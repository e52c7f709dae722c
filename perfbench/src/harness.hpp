// The benchmark's own arithmetic: percentiles, the scheduler's
// estimate error, the seeded fault-plan generator, the modeled-statistics
// digest and the answer checks against the CPU reference. Kept apart from
// main.cpp so tests/harness_test.cpp can check each piece by hand.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/query_engine.hpp"
#include "graph/csr.hpp"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it (rank ceil(q * n), 1-based). q in (0, 1];
/// 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// The middle value (nearest-rank p50).
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Total-variation distance between the estimated and the observed cost
/// shares of the completed units of one schedule: 0 when the estimates
/// split the work exactly as it ran, 1 when they put it all elsewhere.
/// Units that never ran (executed_on < 0) are left out; 0 when fewer than
/// two units completed.
double estimate_error(std::span<const maxwarp::algorithms::UnitPlacement> schedule);

/// Shape of the generated fault plans. Counts are in launches of the
/// member since it was armed.
inline constexpr std::uint64_t kFirstWindow = 60;   ///< kill window opens
inline constexpr std::uint64_t kWindowJitter = 60;  ///< + uniform [0, this]
inline constexpr std::uint32_t kWindowFires = 9;    ///< faults per window (max=M)
inline constexpr double kLaunchFailP = 0.002;       ///< transient rejections
inline constexpr double kEccFatalP = 0.001;         ///< rare uncorrectable flips

/// FaultPlan::parse strings for members 0 and 1, a pure function of
/// `seed`; the other members stay unarmed (and so take no per-iteration
/// checkpoints). Each plan is one sticky "ecc-fatal:nth=K+:max=M" kill
/// window, K drawn from [kFirstWindow, kFirstWindow + kWindowJitter], then
/// one rare random fault kind ("launch:p=..:max=0" on member 0,
/// "ecc-fatal:p=..:max=0" on member 1), then its own "seed=" item drawn
/// from `seed`.
std::vector<std::string> generate_fault_plans(std::uint64_t seed);

/// FNV-1a over the bit patterns of what is fed in: the digest of a run's
/// modeled statistics. Two runs agree on it only when every fed value
/// agrees bit for bit.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  void byte(std::uint8_t b);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// -- the host clock's reference -----------------------------------------------

/// A fixed CPU-bound job timed after every request, to read how fast the
/// machine is running at the time. Other tenants of the VM's cores slow
/// the simulator by up to 2x, for minutes at a time, and no run length
/// averages that out (see README, "Host clock"). The probe slows with it:
/// it sorts a fresh copy of the same 65,536 pseudo-random keys. It calls
/// nothing in maxwarp, so no change to the program moves it.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Sorts a fresh copy of the keys; returns the host wall time in ms.
  double run_ms();
  /// The keys as the last run left them.
  const std::vector<std::uint32_t>& sorted() const { return work_; }

 private:
  std::vector<std::uint32_t> keys_, work_;
};

/// The probe's time at the reference speed: a round figure near its
/// median on the 4-core VM the benchmark was written on (4.2-6.2 ms).
inline constexpr double kProbeNominalMs = 5.0;

/// The factor that takes a host time measured while the probe took
/// `probe_ms` to the reference speed; 0 for a probe that never ran.
inline double speed_scale(double probe_ms) {
  return probe_ms > 0 ? kProbeNominalMs / probe_ms : 0.0;
}

// -- answer checks against the CPU reference --------------------------------

/// BFS levels equal bfs_cpu's exactly (kUnreached on both sides).
bool bfs_matches(std::span<const std::uint32_t> gpu,
                 std::span<const std::uint32_t> cpu);

/// SSSP distances equal sssp_cpu's exactly (kInfDist against
/// kUnreachedDist for unreachable nodes).
bool sssp_matches(std::span<const std::uint32_t> gpu,
                  std::span<const std::uint64_t> cpu);

/// Component labels equal connected_components_cpu's exactly.
bool cc_matches(std::span<const std::uint32_t> gpu,
                std::span<const std::uint32_t> cpu);

/// Every rank within `tolerance` of pagerank_cpu's.
bool pagerank_matches(std::span<const float> gpu, std::span<const double> cpu,
                      double tolerance = 2e-4);

/// A served answer is right when it is ok() and its value equals the CPU
/// reference for its query on `host`.
bool query_matches(const maxwarp::algorithms::QueryResult& result,
                   const maxwarp::graph::Csr& host);

/// Answers attempted and failed (not ok, or different from the reference).
struct AnswerTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool correct) {
    ++attempted;
    if (!correct) ++failed;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
