// Self-tests of the benchmark's own arithmetic (perfbench/src/harness.*,
// perfbench/src/trace.*). Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "algorithms/cpu_reference.hpp"
#include "algorithms/sssp_gpu.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "simt/fault.hpp"
#include "trace.hpp"

namespace alg = maxwarp::algorithms;
namespace graph = maxwarp::graph;
using namespace perfbench;

TEST(Percentile, NearestRankOnOneToHundred) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // input order must not matter
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
}

TEST(Percentile, SmallAndEmptySamples) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.9), 7.0);
  // n = 10: p90 is the 9th value, p50 the 5th.
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(percentile(ten, 0.9), 9.0);
  EXPECT_EQ(percentile(ten, 0.5), 5.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

alg::UnitPlacement unit(std::uint32_t id, double estimate, double observed,
                        int executed_on) {
  alg::UnitPlacement p;
  p.unit = id;
  p.estimated_cost = estimate;
  p.observed_cost_ms = observed;
  p.executed_on = executed_on;
  return p;
}

TEST(EstimateError, HandBuiltSchedule) {
  // Estimated shares 0.5 / 0.5, observed 0.25 / 0.75: distance 0.25.
  const std::vector<alg::UnitPlacement> two = {unit(0, 1.0, 1.0, 0),
                                               unit(1, 1.0, 3.0, 1)};
  EXPECT_DOUBLE_EQ(estimate_error(two), 0.25);

  // Scale does not matter, only shares: exact proportions give 0.
  const std::vector<alg::UnitPlacement> exact = {unit(0, 10.0, 0.1, 0),
                                                 unit(1, 30.0, 0.3, 1)};
  EXPECT_NEAR(estimate_error(exact), 0.0, 1e-12);

  // A unit that never ran is left out of both sides.
  std::vector<alg::UnitPlacement> with_idle = two;
  with_idle.push_back(unit(2, 50.0, 0.0, -1));
  EXPECT_DOUBLE_EQ(estimate_error(with_idle), 0.25);

  // Three units: est (0.5, 0.25, 0.25), obs (0.2, 0.4, 0.4).
  const std::vector<alg::UnitPlacement> three = {
      unit(0, 2.0, 1.0, 0), unit(1, 1.0, 2.0, 1), unit(2, 1.0, 2.0, 2)};
  EXPECT_NEAR(estimate_error(three), 0.5 * (0.3 + 0.15 + 0.15), 1e-12);

  EXPECT_EQ(estimate_error(std::vector<alg::UnitPlacement>{}), 0.0);
}

TEST(FaultPlans, DeterministicInTheSeedAndParseable) {
  const auto a = generate_fault_plans(7);
  const auto b = generate_fault_plans(7);
  const auto c = generate_fault_plans(8);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (const std::string& plan : a) {
    EXPECT_FALSE(maxwarp::simt::FaultPlan::parse(plan).empty()) << plan;
  }
}

TEST(FaultPlans, OneStickyKillWindowThenARareFault) {
  using maxwarp::simt::FaultKind;
  const auto plans = generate_fault_plans(3);
  ASSERT_EQ(plans.size(), 2u);
  for (std::size_t m = 0; m < plans.size(); ++m) {
    const auto plan = maxwarp::simt::FaultPlan::parse(plans[m]);
    ASSERT_EQ(plan.faults.size(), 2u) << plans[m];
    const auto& window = plan.faults[0];
    EXPECT_EQ(window.kind, FaultKind::kEccUncorrectable);
    EXPECT_TRUE(window.trigger.sticky);
    EXPECT_EQ(window.max_fires, kWindowFires);
    EXPECT_GE(window.trigger.nth, kFirstWindow);
    EXPECT_LE(window.trigger.nth, kFirstWindow + kWindowJitter);
    const auto& rare = plan.faults[1];
    EXPECT_EQ(rare.kind,
              m == 0 ? FaultKind::kLaunchFail : FaultKind::kEccUncorrectable);
    EXPECT_DOUBLE_EQ(rare.trigger.probability,
                     m == 0 ? kLaunchFailP : kEccFatalP);
    EXPECT_EQ(rare.max_fires, 0u);
  }
}

TEST(SpeedProbe, DoesTheSameWorkEveryRun) {
  SpeedProbe probe;
  EXPECT_GT(probe.run_ms(), 0.0);
  const std::vector<std::uint32_t> first = probe.sorted();
  ASSERT_EQ(first.size(), std::size_t{1} << 16);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_LT(first.front(), first.back());  // not all one key
  probe.run_ms();
  EXPECT_EQ(probe.sorted(), first);
}

TEST(SpeedProbe, ScaleTakesTimesToTheReferenceSpeed) {
  EXPECT_EQ(speed_scale(kProbeNominalMs), 1.0);
  EXPECT_EQ(speed_scale(2 * kProbeNominalMs), 0.5);  // a machine twice as slow
  EXPECT_EQ(speed_scale(0.0), 0.0);
}

TEST(Digest, SensitiveToEveryBit) {
  Digest a;
  Digest b;
  a.add(1.0);
  b.add(std::nextafter(1.0, 2.0));
  EXPECT_NE(a.value(), b.value());
  Digest c;
  Digest d;
  c.add(std::string_view("ab"));
  c.add(std::string_view("c"));
  d.add(std::string_view("a"));
  d.add(std::string_view("bc"));
  EXPECT_NE(c.value(), d.value());
  EXPECT_EQ(c.hex().size(), 16u);
}

class AnswerCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    host_ = graph::rmat(256, 2048, {}, {.seed = 5});
    graph::assign_hash_weights(host_, 16);
  }
  graph::Csr host_;
};

TEST_F(AnswerCheck, FailedShareCountsACorruptedAnswer) {
  AnswerTally tally;
  alg::QueryResult good;
  good.query = alg::Query::bfs(0);
  good.value = alg::bfs_cpu(host_, 0);
  tally.add(query_matches(good, host_));

  alg::QueryResult corrupted = good;
  corrupted.value[corrupted.value.size() / 2] ^= 1u;
  tally.add(query_matches(corrupted, host_));

  alg::QueryResult errored = good;
  errored.status = maxwarp::gpu::Status(maxwarp::gpu::ErrorCode::kLaunchFailed,
                                        "injected");
  tally.add(query_matches(errored, host_));

  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 2u);
  EXPECT_DOUBLE_EQ(tally.failed_share(), 2.0 / 3.0);
}

TEST_F(AnswerCheck, SsspComparesUnreachedSentinels) {
  const std::vector<std::uint64_t> cpu = alg::sssp_cpu(host_, 0);
  std::vector<std::uint32_t> gpu(cpu.size());
  for (std::size_t v = 0; v < cpu.size(); ++v) {
    gpu[v] = cpu[v] == alg::kUnreachedDist ? alg::kInfDist
                                           : static_cast<std::uint32_t>(cpu[v]);
  }
  EXPECT_TRUE(sssp_matches(gpu, cpu));
  alg::QueryResult r;
  r.query = alg::Query::sssp(0);
  r.value = gpu;
  EXPECT_TRUE(query_matches(r, host_));
  r.value.back() += 1;
  EXPECT_FALSE(query_matches(r, host_));
}

TEST(PageRankCheck, WithinTolerance) {
  const std::vector<double> cpu = {0.25, 0.5, 0.25};
  EXPECT_TRUE(pagerank_matches(std::vector<float>{0.25f, 0.5001f, 0.25f}, cpu));
  EXPECT_FALSE(pagerank_matches(std::vector<float>{0.25f, 0.501f, 0.25f}, cpu));
  EXPECT_FALSE(pagerank_matches(std::vector<float>{0.25f, 0.5f}, cpu));
}

TEST(Tracer, NestsSpansAndWritesChromeJson) {
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "request", 4);
    ScopedSpan inner(tracer, "query_engine.run", 4);
    inner.counter("modeled_ms", 1.5);
  }
  ASSERT_EQ(tracer.size(), 2u);
  std::ostringstream out;
  tracer.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\": \"query_engine.run\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"request\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"modeled_ms\": 1.5"), std::string::npos);

  Tracer off(false);
  { ScopedSpan s(off, "request", 1); }
  EXPECT_EQ(off.size(), 0u);
}
