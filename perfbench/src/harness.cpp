#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "algorithms/cpu_reference.hpp"
#include "algorithms/sssp_gpu.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace alg = maxwarp::algorithms;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double estimate_error(std::span<const alg::UnitPlacement> schedule) {
  double est_total = 0.0;
  double obs_total = 0.0;
  std::size_t completed = 0;
  for (const auto& p : schedule) {
    if (p.executed_on < 0) continue;
    est_total += p.estimated_cost;
    obs_total += p.observed_cost_ms;
    ++completed;
  }
  if (completed < 2 || est_total <= 0.0 || obs_total <= 0.0) return 0.0;
  double distance = 0.0;
  for (const auto& p : schedule) {
    if (p.executed_on < 0) continue;
    distance += std::abs(p.estimated_cost / est_total -
                         p.observed_cost_ms / obs_total);
  }
  return 0.5 * distance;
}

std::vector<std::string> generate_fault_plans(std::uint64_t seed) {
  maxwarp::util::Rng rng(seed ^ 0x5eedfa17c0ffeeULL);
  char rare[2][48];
  std::snprintf(rare[0], sizeof rare[0], "launch:p=%.6f:max=0;", kLaunchFailP);
  std::snprintf(rare[1], sizeof rare[1], "ecc-fatal:p=%.6f:max=0;",
                kEccFatalP);
  std::vector<std::string> plans;
  for (const char* tail : rare) {
    const std::uint64_t at = kFirstWindow + rng.next_below(kWindowJitter + 1);
    char window[48];
    std::snprintf(window, sizeof window, "ecc-fatal:nth=%llu+:max=%u;",
                  static_cast<unsigned long long>(at), kWindowFires);
    plans.push_back(std::string(window) + tail + "seed=" +
                    std::to_string(rng.next_u64() % 1000000007ULL + 1));
  }
  return plans;
}

void Digest::byte(std::uint8_t b) {
  h_ ^= b;
  h_ *= 0x100000001b3ULL;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<std::uint8_t>(c));
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

SpeedProbe::SpeedProbe() : keys_(std::size_t{1} << 16) {
  maxwarp::util::Rng rng(0x5eed5eedULL);
  for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(rng.next_u64());
}

double SpeedProbe::run_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  work_ = keys_;
  std::sort(work_.begin(), work_.end());
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool bfs_matches(std::span<const std::uint32_t> gpu,
                 std::span<const std::uint32_t> cpu) {
  return std::equal(gpu.begin(), gpu.end(), cpu.begin(), cpu.end());
}

bool sssp_matches(std::span<const std::uint32_t> gpu,
                  std::span<const std::uint64_t> cpu) {
  if (gpu.size() != cpu.size()) return false;
  for (std::size_t v = 0; v < gpu.size(); ++v) {
    const bool unreached = cpu[v] == alg::kUnreachedDist;
    if (unreached ? gpu[v] != alg::kInfDist : gpu[v] != cpu[v]) return false;
  }
  return true;
}

bool cc_matches(std::span<const std::uint32_t> gpu,
                std::span<const std::uint32_t> cpu) {
  return std::equal(gpu.begin(), gpu.end(), cpu.begin(), cpu.end());
}

bool pagerank_matches(std::span<const float> gpu, std::span<const double> cpu,
                      double tolerance) {
  if (gpu.size() != cpu.size()) return false;
  for (std::size_t v = 0; v < gpu.size(); ++v) {
    if (!(std::abs(static_cast<double>(gpu[v]) - cpu[v]) <= tolerance)) {
      return false;
    }
  }
  return true;
}

bool query_matches(const alg::QueryResult& result,
                   const maxwarp::graph::Csr& host) {
  if (!result.ok()) return false;
  if (result.query.kind == alg::Query::Kind::kBfs) {
    return bfs_matches(result.value, alg::bfs_cpu(host, result.query.source));
  }
  return sssp_matches(result.value, alg::sssp_cpu(host, result.query.source));
}

}  // namespace perfbench
