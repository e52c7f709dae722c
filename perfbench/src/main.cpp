// perfbench — the repository benchmark. One seeded workload per run,
// timed from outside on the host clock and the modeled clock, every
// answer checked against the CPU reference. See perfbench/README.md.
//
//   perfbench --workload analytics|serve|serve_faults --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// The last line of stdout is the result object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "algorithms/adaptive_dispatch.hpp"
#include "algorithms/bfs_gpu.hpp"
#include "algorithms/cc_gpu.hpp"
#include "algorithms/cpu_reference.hpp"
#include "algorithms/pagerank_gpu.hpp"
#include "algorithms/query_engine.hpp"
#include "algorithms/sssp_gpu.hpp"
#include "gpu/device_group.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "harness.hpp"
#include "simt/fault.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

namespace alg = maxwarp::algorithms;
namespace gpu = maxwarp::gpu;
namespace graph = maxwarp::graph;
namespace simt = maxwarp::simt;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

/// A run is this many episodes: a fresh set-up, then a fixed share of the
/// requests. setup_s is the median of the set-ups, and the host
/// throughputs are medians of the episodes' throughputs. Host time per
/// request grows with the device's history (see README); fresh devices
/// keep it flat, so that each percentile pools the whole run instead of
/// one stretch of it.
constexpr int kEpisodes = 5;
/// A run that needs more than kCapFactor * --seconds for its set-ups and
/// fixed request count stops there and fails; kHardCapSeconds keeps the
/// whole process inside its time limit whatever --seconds says. The shared
/// VM the counts were sized on has run the same work 2.4x slower for
/// minutes at a time, which must not fail a run.
constexpr double kCapFactor = 6.0;
constexpr double kHardCapSeconds = 150.0;
constexpr std::uint32_t kMaxWeight = 64;
constexpr const char* kDataset = "LiveJournal*";
/// The dataset's structure comes from this fixed generator seed; --seed
/// relabels its vertices (graph::permute, weights travel with their
/// edges). At these sizes two RMAT instances differ in depth and
/// component structure enough to move every figure by 10-25%, which would
/// swamp the changes the benchmark exists to detect.
constexpr std::uint64_t kGraphSeed = 42;

/// analytics: 20 BFS, 8 SSSP, 1 CC and 1 PageRank per 30-request cycle.
/// The two slowest calls per cycle stay under the top 10%, so p90 falls
/// inside the SSSP band on both clocks rather than on a band edge.
constexpr std::string_view kAnalyticsCycle = "BBSBBSBBSBBCBBSBBSBBSBBSBBSBBP";
constexpr double kAnalyticsScale = 1.0;
/// Every run makes the same number of requests, so each metric is taken
/// over the same work whatever the host's speed: two cycles per episode
/// for analytics (300 requests), 40 batches per episode for serve* (200).
/// At HEAD on a 4-core VM in its slower spells either run takes about
/// 30 s (BENCHMARK.json's run_seconds), and p90 has at least ten samples
/// beyond it.
constexpr std::size_t kAnalyticsEpisodeRequests = 2 * kAnalyticsCycle.size();
constexpr std::size_t kServeEpisodeBatches = 40;
/// serve*: 32 BFS (one fused unit) and 6 SSSP singles per batch: seven
/// units for four members, so LPT pairs SSSP singles on three of them.
constexpr std::uint32_t kServeBfs = 32;
constexpr std::uint32_t kServeSssp = 6;
constexpr std::size_t kServeMembers = 4;
constexpr double kServeScale = 0.125;

/// `g` with its vertices relabeled by a permutation drawn from `seed`.
graph::Csr relabel(const graph::Csr& g, std::uint64_t seed) {
  std::vector<graph::NodeId> perm(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) perm[v] = v;
  maxwarp::util::Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return graph::permute(g, perm);
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload != "analytics" && o.workload != "serve" &&
      o.workload != "serve_faults") {
    throw std::invalid_argument(
        "--workload must be analytics, serve or serve_faults");
  }
  if (!have_seed || !have_seconds || !have_trace || !(o.seconds > 0)) {
    throw std::invalid_argument("--seed, --seconds (> 0) and --trace are required");
  }
  return o;
}

// -- device counters ---------------------------------------------------------

/// after - before, field by field: what a device did between two reads.
simt::KernelStats kernel_delta(const simt::KernelStats& after,
                               const simt::KernelStats& before) {
  simt::KernelStats d;
  for (const auto field :
       {&simt::KernelStats::elapsed_cycles, &simt::KernelStats::busy_cycles,
        &simt::KernelStats::launches, &simt::KernelStats::warps,
        &simt::KernelStats::blocks}) {
    d.*field = after.*field - before.*field;
  }
  using CC = simt::CycleCounters;
  for (const auto field :
       {&CC::issued_instructions, &CC::alu_cycles, &CC::mem_cycles,
        &CC::active_lane_ops, &CC::possible_lane_ops,
        &CC::global_transactions, &CC::global_requests, &CC::global_bytes,
        &CC::atomic_ops, &CC::atomic_conflicts, &CC::shared_accesses,
        &CC::shared_bank_conflict_replays, &CC::branch_divergences,
        &CC::loop_iterations}) {
    d.counters.*field = after.counters.*field - before.counters.*field;
  }
  return d;
}

/// The device counters a request moves, summed over members. The
/// overlap-aware makespan is read only at the ends of the timed phase:
/// Device::modeled_makespan_ms() re-resolves the whole timeline, and
/// reading it per request would add that cost to every one.
struct Counters {
  simt::KernelStats kernels;
  gpu::TransferStats transfers;
  double delay_ms = 0;

  // A KernelStats counts itself as one launch; a sum starts from none.
  Counters() { kernels.launches = 0; }

  double serial_ms(const simt::SimConfig& cfg) const {
    return kernels.elapsed_ms(cfg) + transfers.modeled_ms + delay_ms;
  }

  void add(const Counters& o) {
    kernels.add(o.kernels);
    transfers.bytes_to_device += o.transfers.bytes_to_device;
    transfers.bytes_to_host += o.transfers.bytes_to_host;
    transfers.calls += o.transfers.calls;
    transfers.modeled_ms += o.transfers.modeled_ms;
    delay_ms += o.delay_ms;
  }

  Counters since(const Counters& before) const {
    Counters d;
    d.kernels = kernel_delta(kernels, before.kernels);
    d.transfers.bytes_to_device =
        transfers.bytes_to_device - before.transfers.bytes_to_device;
    d.transfers.bytes_to_host =
        transfers.bytes_to_host - before.transfers.bytes_to_host;
    d.transfers.calls = transfers.calls - before.transfers.calls;
    d.transfers.modeled_ms = transfers.modeled_ms - before.transfers.modeled_ms;
    d.delay_ms = delay_ms - before.delay_ms;
    return d;
  }

  void digest(perfbench::Digest& h) const {
    h.add(transfers.modeled_ms);
    h.add(delay_ms);
    const simt::CycleCounters& c = kernels.counters;
    for (const std::uint64_t v :
         {kernels.elapsed_cycles, kernels.busy_cycles, kernels.launches,
          kernels.warps, c.issued_instructions, c.active_lane_ops,
          c.global_transactions, c.atomic_conflicts,
          transfers.bytes_to_device, transfers.bytes_to_host,
          transfers.calls}) {
      h.add(v);
    }
  }
};

Counters read_counters(gpu::Device& d) {
  Counters c;
  c.kernels = d.kernel_totals();
  c.transfers = d.transfer_totals();
  c.delay_ms = d.delay_total_ms();
  return c;
}

Counters read_counters(gpu::DeviceGroup& g) {
  Counters c;
  for (std::size_t i = 0; i < g.size(); ++i) c.add(read_counters(g.device(i)));
  return c;
}

double makespan_sum(gpu::DeviceGroup& g) {
  double sum = 0;
  for (std::size_t i = 0; i < g.size(); ++i) sum += g.modeled_makespan_ms(i);
  return sum;
}

// -- what one run measured ---------------------------------------------------

struct Run {
  simt::SimConfig config;  ///< the (every member's) device configuration
  // set-up, one entry per repetition
  std::vector<double> setup_s, graph_build_s, upload_s, adaptive_setup_s;
  double adaptive_setup_modeled_ms = 0;
  // timed requests; host_ms and timed_host_s are wall time (host_times()
  // takes them to the reference speed)
  std::vector<double> host_ms, modeled_ms;
  perfbench::AnswerTally answers;
  Counters dev;
  double makespan_ms = 0;  ///< Σ per-member makespan advance, timed phase
  double timed_host_s = 0;
  /// The speed probe's time after each request (see SpeedProbe).
  std::vector<double> probe_ms;
  perfbench::SpeedProbe probe;
  /// Each episode's share of the timed requests.
  struct Episode {
    std::size_t first = 0, end = 0;  ///< request indices [first, end)
    std::uint64_t answers = 0, warps = 0;
    double wall_s = 0;  ///< host seconds inside its requests
  };
  std::vector<Episode> episodes;
  double check_s = 0;
  std::uint64_t peak_device_bytes = 0;
  // warp: kAdaptive degree-bin ledger of the driver calls
  double driver_kernel_ms = 0, binned_ms = 0, outlier_ms = 0;
  simt::CycleCounters binned, outlier;
  // algorithms: per-driver request indices and modeled times
  std::map<std::string, std::vector<std::size_t>> algo_requests;
  std::map<std::string, std::vector<double>> algo_modeled_ms;
  std::uint64_t bfs_edges = 0;
  std::uint64_t iterations = 0, driver_calls = 0, driver_retries = 0;
  // query_engine and gpu.group, summed over batches
  std::uint64_t batches = 0, units = 0, queries = 0, bfs_answers = 0;
  std::uint64_t fused_answers = 0, attempts = 0, retries = 0, isolated = 0;
  std::uint64_t migrations = 0, migrated_units = 0, resumes = 0;
  std::uint64_t degraded = 0, fallbacks = 0, steals = 0;
  std::uint64_t probes = 0, probe_failures = 0, restorations = 0;
  std::uint64_t retired = 0, deaths = 0;
  double healthy_share = 0, imbalance = 0, idle_share = 0, estimate_error = 0;
  std::uint64_t degraded_batches = 0;  ///< some member not healthy at start
  std::vector<double> repair_ms;
  std::size_t retired_members = 0;
  std::vector<std::string> plans;
  // checks on the run itself
  std::vector<std::string> guard_failures;
  perfbench::Digest digest;
  std::size_t spans = 0;

  void guard(bool ok, const std::string& what) {
    if (!ok) guard_failures.push_back(what);
  }
};

/// Shared timed-loop bookkeeping: one call per request, after its answer
/// is checked. Times the speed probe, outside the request.
void note_request(Run& run, double host_ms, double modeled_ms,
                  const Counters& delta) {
  run.probe_ms.push_back(run.probe.run_ms());
  run.host_ms.push_back(host_ms);
  run.modeled_ms.push_back(modeled_ms);
  run.timed_host_s += host_ms / 1e3;
  run.dev.add(delta);
  run.digest.add(modeled_ms);
  delta.digest(run.digest);
}

double cap_seconds(double seconds) {
  return std::min(kCapFactor * seconds, kHardCapSeconds);
}

/// Whether the run, begun at `start`, may set up or issue another
/// request. Past the cap it stops and fails (see cap_guard).
bool within_cap(Clock::time_point start, double seconds) {
  return seconds_since(start) < cap_seconds(seconds);
}

void cap_guard(Run& run, std::size_t planned, double seconds) {
  char what[128];
  std::snprintf(what, sizeof what,
                "run passed its cap of %g s after %zu of %zu requests",
                cap_seconds(seconds), run.host_ms.size(), planned);
  run.guard(run.host_ms.size() == planned, what);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- analytics ---------------------------------------------------------------

struct AnalyticsEnv {
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<alg::GpuGraph> directed;    ///< weighted, BFS/SSSP/PR
  std::unique_ptr<alg::GpuGraph> undirected;  ///< its closure, for CC
};

alg::KernelOptions analytics_options() {
  alg::KernelOptions o;
  o.mapping = alg::Mapping::kAdaptive;
  return o;
}

/// Call before note_request: the request's index is the next one.
void note_driver_stats(Run& run, const std::string& kind,
                       const alg::GpuRunStats& stats,
                       const simt::SimConfig& cfg) {
  const double modeled = stats.total_ms(cfg);
  run.algo_requests[kind].push_back(run.host_ms.size());
  run.algo_modeled_ms[kind].push_back(modeled);
  run.iterations += stats.iterations;
  run.driver_calls += 1;
  run.driver_retries += stats.recovery.retries;
  run.driver_kernel_ms += stats.kernel_ms(cfg);
  for (const auto& [label, k] : stats.bins.entries()) {
    if (label.ends_with(".binned")) {
      run.binned_ms += k.elapsed_ms(cfg);
      run.binned.add(k.counters);
    } else if (label.ends_with(".outlier")) {
      run.outlier_ms += k.elapsed_ms(cfg);
      run.outlier.add(k.counters);
    }
  }
}

class Analytics {
 public:
  static constexpr std::size_t kEpisodeRequests = kAnalyticsEpisodeRequests;

  Analytics(const Options& opts, Tracer& tracer, Run& run)
      : opts_(opts),
        tracer_(tracer),
        run_(run),
        rng_(opts.seed * 0x9e3779b97f4a7c15ULL + 17) {}

  void setup_once() {
    // The graphs free their buffers on the device, so they go first.
    env_.undirected.reset();
    env_.directed.reset();
    env_.device.reset();
    env_ = build_env();
    run_.config = env_.device->config();
    if (sources_.empty()) {
      const graph::Csr& host = env_.directed->host();
      for (graph::NodeId v = 0; v < host.num_nodes(); ++v) {
        if (host.degree(v) > 0) sources_.push_back(v);
      }
    }
  }

  void run_episode(Clock::time_point start) {
    const double makespan_before = env_.device->modeled_makespan_ms();
    for (std::size_t i = 0;
         i < kEpisodeRequests && within_cap(start, opts_.seconds); ++i) {
      const std::size_t request = run_.host_ms.size();
      const graph::NodeId src = sources_[rng_.next_below(sources_.size())];
      request_once(kAnalyticsCycle[request % kAnalyticsCycle.size()], src,
                   static_cast<std::int64_t>(request));
    }
    run_.makespan_ms += env_.device->modeled_makespan_ms() - makespan_before;
    run_.peak_device_bytes = std::max(
        run_.peak_device_bytes, env_.device->memory_totals().peak_bytes);
  }

  void guards() {
    run_.guard(run_.binned_ms > 0 && run_.outlier_ms > 0,
               "analytics must exercise the warp degree bins");
    run_.guard(run_.driver_retries == 0 && run_.dev.delay_ms == 0,
               "analytics must not retry or charge backoff");
    // query_engine and gpu.group are bypassed by construction: analytics
    // builds neither a QueryEngine nor a DeviceGroup.
  }

 private:
  AnalyticsEnv build_env() {
    ScopedSpan span(tracer_, "setup", -1);
    const Clock::time_point t0 = Clock::now();
    AnalyticsEnv env;
    graph::Csr g;
    graph::Csr und;
    {
      ScopedSpan s(tracer_, "graph.make_dataset", -1);
      g = graph::make_dataset(kDataset, kAnalyticsScale, kGraphSeed);
    }
    {
      ScopedSpan s(tracer_, "graph.assign_hash_weights", -1);
      graph::assign_hash_weights(g, kMaxWeight);
    }
    {
      ScopedSpan s(tracer_, "graph.permute", -1);
      g = relabel(g, opts_.seed);
    }
    {
      // Connected components are defined over the undirected closure.
      ScopedSpan s(tracer_, "graph.build_csr", -1);
      und = graph::build_csr(g.num_nodes(), graph::to_edge_list(g),
                             {.symmetrize = true});
    }
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan s(tracer_, "gpu.upload", -1);
      env.device = std::make_unique<gpu::Device>();
      env.directed = std::make_unique<alg::GpuGraph>(*env.device, std::move(g));
      env.directed->reverse_csr();
      env.undirected =
          std::make_unique<alg::GpuGraph>(*env.device, std::move(und));
    }
    const Clock::time_point t2 = Clock::now();
    {
      ScopedSpan s(tracer_, "algorithms.adaptive_state", -1);
      const alg::KernelOptions o = analytics_options();
      double modeled = 0;
      for (const alg::AdaptiveState* st :
           {&env.directed->adaptive_state(o),
            &env.directed->adaptive_state(o, /*reverse=*/true),
            &env.undirected->adaptive_state(o)}) {
        for (const auto& entry : st->setup.entries()) {
          modeled += entry.second.elapsed_ms(env.device->config());
        }
      }
      run_.adaptive_setup_modeled_ms = modeled;
      s.counter("modeled_ms", modeled);
    }
    const Clock::time_point t3 = Clock::now();
    {
      ScopedSpan s(tracer_, "warmup", -1);
      const graph::NodeId src = first_source(env.directed->host());
      const alg::KernelOptions o = analytics_options();
      (void)alg::bfs_gpu(*env.directed, src, o);
      (void)alg::sssp_gpu(*env.directed, src, o);
      (void)alg::connected_components_gpu(*env.undirected, o);
      (void)alg::pagerank_gpu(*env.directed, {}, o);
    }
    const Clock::time_point t4 = Clock::now();
    run_.graph_build_s.push_back(ms_between(t0, t1) / 1e3);
    run_.upload_s.push_back(ms_between(t1, t2) / 1e3);
    run_.adaptive_setup_s.push_back(ms_between(t2, t3) / 1e3);
    run_.setup_s.push_back(ms_between(t0, t4) / 1e3);
    return env;
  }

  static graph::NodeId first_source(const graph::Csr& g) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.degree(v) > 0) return v;
    }
    return 0;
  }

  void request_once(char kind, graph::NodeId src, std::int64_t request) {
    const alg::KernelOptions o = analytics_options();
    const alg::GpuGraph& dg = *env_.directed;
    if (kind == 'B') {
      const alg::GpuBfsResult r = timed_call(
          "bfs", "algorithms.bfs_gpu", src, request,
          [&] { return alg::bfs_gpu(dg, src, o); },
          [&](const alg::GpuBfsResult& res) {
            return perfbench::bfs_matches(res.level,
                                          alg::bfs_cpu(dg.host(), src));
          });
      run_.bfs_edges += r.traversed_edges;
    } else if (kind == 'S') {
      timed_call(
          "sssp", "algorithms.sssp_gpu", src, request,
          [&] { return alg::sssp_gpu(dg, src, o); },
          [&](const alg::GpuSsspResult& res) {
            return perfbench::sssp_matches(res.dist,
                                           alg::sssp_cpu(dg.host(), src));
          });
    } else if (kind == 'C') {
      timed_call(
          "cc", "algorithms.connected_components_gpu", src, request,
          [&] { return alg::connected_components_gpu(*env_.undirected, o); },
          [&](const alg::GpuCcResult& res) {
            if (cc_reference_.empty()) {
              cc_reference_ = alg::connected_components_cpu(dg.host());
            }
            return perfbench::cc_matches(res.label, cc_reference_);
          });
    } else {
      timed_call(
          "pagerank", "algorithms.pagerank_gpu", src, request,
          [&] { return alg::pagerank_gpu(dg, {}, o); },
          [&](const alg::GpuPageRankResult& res) {
            if (pr_reference_.empty()) {
              const alg::PageRankParams p;
              pr_reference_ =
                  alg::pagerank_cpu(dg.host(), p.damping, p.iterations);
            }
            return perfbench::pagerank_matches(res.rank, pr_reference_);
          });
    }
  }

  /// Times `call` alone, then checks its answer with `compare` outside
  /// the timed span. `src` only feeds the digest (CC and PageRank have
  /// no source).
  template <typename Call, typename Compare>
  auto timed_call(const std::string& kind, const char* span,
                  graph::NodeId src, std::int64_t request, Call&& call,
                  Compare&& compare) -> std::invoke_result_t<Call&> {
    const simt::SimConfig& cfg = env_.device->config();
    ScopedSpan req(tracer_, "request", request);
    const Counters before = read_counters(*env_.device);
    Clock::time_point t0;
    Clock::time_point t1;
    decltype(call()) result;
    {
      ScopedSpan s(tracer_, span, request);
      t0 = Clock::now();
      result = call();
      t1 = Clock::now();
      s.counter("modeled_ms", result.stats.total_ms(cfg));
    }
    const Counters delta = read_counters(*env_.device).since(before);
    const double host_ms = ms_between(t0, t1);
    note_driver_stats(run_, kind, result.stats, cfg);
    req.counter("warps", static_cast<double>(delta.kernels.warps));
    req.counter("launches", static_cast<double>(delta.kernels.launches));
    {
      ScopedSpan s(tracer_, "check.reference", request);
      const Clock::time_point tc = Clock::now();
      run_.answers.add(compare(result));
      run_.check_s += seconds_since(tc);
    }
    run_.digest.add(kind);
    run_.digest.add(static_cast<std::uint64_t>(src));
    note_request(run_, host_ms, result.stats.total_ms(cfg), delta);
    return result;
  }

  const Options& opts_;
  Tracer& tracer_;
  Run& run_;
  maxwarp::util::Rng rng_;
  AnalyticsEnv env_;
  std::vector<graph::NodeId> sources_;
  std::vector<std::uint32_t> cc_reference_;
  std::vector<double> pr_reference_;
};

// -- serve and serve_faults --------------------------------------------------

class Serve {
 public:
  static constexpr std::size_t kEpisodeRequests = kServeEpisodeBatches;

  Serve(const Options& opts, Tracer& tracer, Run& run, bool faults)
      : opts_(opts),
        tracer_(tracer),
        run_(run),
        faults_(faults),
        rng_(opts.seed * 0x9e3779b97f4a7c15ULL + 29) {
    if (faults_) run_.plans = perfbench::generate_fault_plans(opts_.seed);
  }

  void setup_once() {
    ScopedSpan span(tracer_, "setup", -1);
    engine_.reset();
    group_.reset();
    const Clock::time_point t0 = Clock::now();
    graph::Csr g;
    {
      ScopedSpan s(tracer_, "graph.make_dataset", -1);
      g = graph::make_dataset(kDataset, kServeScale, kGraphSeed);
    }
    {
      ScopedSpan s(tracer_, "graph.assign_hash_weights", -1);
      graph::assign_hash_weights(g, kMaxWeight);
    }
    {
      ScopedSpan s(tracer_, "graph.permute", -1);
      g = relabel(g, opts_.seed);
    }
    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan s(tracer_, "gpu.upload", -1);
      group_ = std::make_unique<gpu::DeviceGroup>(kServeMembers);
      engine_ = std::make_unique<alg::QueryEngine>(*group_, std::move(g));
    }
    const Clock::time_point t2 = Clock::now();
    {
      ScopedSpan s(tracer_, "warmup", -1);
      (void)engine_->run(warmup_batch(engine_->graph().host()));
    }
    for (std::size_t i = 0; i < run_.plans.size(); ++i) {
      group_->arm(i, simt::FaultPlan::parse(run_.plans[i]));
    }
    const Clock::time_point t3 = Clock::now();
    health_seen_ = group_->health_log().size();
    died_at_.assign(group_->size(), 0.0);
    run_.config = group_->device(0).config();
    run_.graph_build_s.push_back(ms_between(t0, t1) / 1e3);
    run_.upload_s.push_back(ms_between(t1, t2) / 1e3);
    run_.setup_s.push_back(ms_between(t0, t3) / 1e3);
  }

  void run_episode(Clock::time_point start) {
    const double makespan_before = makespan_sum(*group_);
    for (std::size_t i = 0;
         i < kEpisodeRequests && within_cap(start, opts_.seconds); ++i) {
      batch_once(static_cast<std::int64_t>(run_.host_ms.size()));
    }
    run_.makespan_ms += makespan_sum(*group_) - makespan_before;
    for (std::size_t i = 0; i < group_->size(); ++i) {
      run_.peak_device_bytes =
          std::max(run_.peak_device_bytes,
                   group_->device(i).memory_totals().peak_bytes);
      if (group_->health_state(i) == gpu::DeviceHealth::kRetired) {
        ++run_.retired_members;
      }
    }
  }

  void guards() {
    run_.guard(run_.units > 0 && run_.fused_answers > 0,
               "serving must run fused BFS units");
    // warp.* is read from driver calls, which serving does not make, so
    // the bypass is checked on the engine's configuration instead.
    run_.guard(engine_->options().kernel.mapping != alg::Mapping::kAdaptive,
               "serving must bypass the warp degree bins (kAdaptive)");
    if (faults_) {
      run_.guard(run_.migrations > 0, "serve_faults must migrate units");
      run_.guard(run_.restorations > 0, "serve_faults must restore members");
      run_.guard(run_.retries > 0, "serve_faults must retry units");
      run_.guard(run_.retired_members == 0 && run_.retired == 0,
                 "serve_faults must retire no member");
    } else {
      run_.guard(run_.retries == 0 && run_.migrations == 0 &&
                     run_.deaths == 0 && run_.dev.delay_ms == 0,
                 "serve must not retry, migrate or charge backoff");
    }
  }

 private:
  /// The warm-up batch: the traffic's shape, from the highest-degree
  /// vertices, so every unit does real work and feeds the calibration.
  static std::vector<alg::Query> warmup_batch(const graph::Csr& host) {
    std::vector<graph::NodeId> order(host.num_nodes());
    for (graph::NodeId v = 0; v < host.num_nodes(); ++v) order[v] = v;
    std::stable_sort(order.begin(), order.end(),
                     [&](graph::NodeId a, graph::NodeId b) {
                       return host.degree(a) > host.degree(b);
                     });
    std::vector<alg::Query> batch;
    for (std::uint32_t q = 0; q < kServeBfs; ++q) {
      batch.push_back(alg::Query::bfs(order[q % order.size()]));
    }
    for (std::uint32_t q = 0; q < kServeSssp; ++q) {
      batch.push_back(alg::Query::sssp(order[q % order.size()]));
    }
    return batch;
  }

  std::vector<alg::Query> make_batch(const graph::Csr& host) {
    std::vector<alg::Query> batch;
    const std::uint32_t n = host.num_nodes();
    for (std::uint32_t q = 0; q < kServeBfs; ++q) {
      batch.push_back(alg::Query::bfs(
          static_cast<graph::NodeId>(rng_.next_below(n))));
    }
    for (std::uint32_t q = 0; q < kServeSssp; ++q) {
      batch.push_back(alg::Query::sssp(
          static_cast<graph::NodeId>(rng_.next_below(n))));
    }
    return batch;
  }

  void batch_once(std::int64_t request) {
    ScopedSpan req(tracer_, "request", request);
    const graph::Csr& host = engine_->graph().host();
    const std::vector<alg::Query> batch = make_batch(host);
    run_.healthy_share += static_cast<double>(group_->healthy_count()) /
                          static_cast<double>(group_->size());
    if (group_->healthy_count() < group_->size()) ++run_.degraded_batches;
    const Counters before = read_counters(*group_);
    std::vector<alg::QueryResult> results;
    Clock::time_point t0;
    Clock::time_point t1;
    {
      ScopedSpan s(tracer_, "query_engine.run", request);
      t0 = Clock::now();
      results = engine_->run(batch);
      t1 = Clock::now();
      s.counter("modeled_ms", engine_->last_batch_stats().group_makespan_ms);
    }
    const Counters delta = read_counters(*group_).since(before);
    req.counter("warps", static_cast<double>(delta.kernels.warps));
    req.counter("launches", static_cast<double>(delta.kernels.launches));
    const alg::BatchStats& st = engine_->last_batch_stats();
    const std::vector<alg::UnitPlacement>& schedule = engine_->last_schedule();

    {
      ScopedSpan s(tracer_, "check.reference", request);
      const Clock::time_point tc = Clock::now();
      for (const alg::QueryResult& r : results) {
        run_.answers.add(perfbench::query_matches(r, host));
      }
      run_.check_s += seconds_since(tc);
    }

    ++run_.batches;
    std::set<std::uint32_t> units;
    for (const auto& p : schedule) units.insert(p.unit);
    run_.units += units.size();
    run_.queries += results.size();
    for (const alg::QueryResult& r : results) {
      run_.attempts += r.gpu_attempts;
      if (r.query.kind == alg::Query::Kind::kBfs) {
        ++run_.bfs_answers;
        if (r.path == alg::QueryPath::kFusedGpu) ++run_.fused_answers;
      }
    }
    run_.retries += st.retries;
    run_.isolated += st.isolated_groups;
    run_.migrations += st.migrations;
    run_.migrated_units += st.migrated_units;
    run_.resumes += st.checkpoint_resumes;
    run_.degraded += st.degraded_queries;
    run_.fallbacks += st.fallback_queries;
    run_.steals += st.steals;
    run_.probes += st.probes;
    run_.probe_failures += st.probe_failures;
    run_.restorations += st.restorations;
    run_.retired += st.retired;
    run_.estimate_error += perfbench::estimate_error(schedule);

    double busy = 0;
    double busiest = 0;
    std::size_t working = 0;
    for (const auto& d : st.per_device) {
      busy += d.modeled_ms;
      if (d.units > 0) {
        busiest = std::max(busiest, d.modeled_ms);
        ++working;
      }
    }
    if (working > 0 && busy > 0) {
      run_.imbalance += busiest / (busy / static_cast<double>(working));
    }
    if (st.group_makespan_ms > 0) {
      run_.idle_share +=
          1.0 - busy / (static_cast<double>(group_->size()) *
                        st.group_makespan_ms);
    }

    for (const auto& p : schedule) {
      run_.digest.add(static_cast<std::uint64_t>(p.unit));
      run_.digest.add(static_cast<std::uint64_t>(p.device));
      run_.digest.add(p.estimated_cost);
      run_.digest.add(static_cast<std::uint64_t>(p.queries));
      run_.digest.add(static_cast<std::uint64_t>((p.replanned ? 1 : 0) |
                                                 (p.stolen ? 2 : 0)));
      run_.digest.add(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(p.executed_on)));
      run_.digest.add(p.observed_cost_ms);
    }
    for (const std::uint64_t v :
         {std::uint64_t{st.retries}, std::uint64_t{st.migrations},
          std::uint64_t{st.migrated_units},
          std::uint64_t{st.checkpoint_resumes},
          std::uint64_t{st.fallback_queries}, std::uint64_t{st.probes},
          std::uint64_t{st.restorations}}) {
      run_.digest.add(v);
    }
    const auto& log = group_->health_log();
    for (; health_seen_ < log.size(); ++health_seen_) {
      const gpu::HealthRecord& rec = log[health_seen_];
      if (rec.to == gpu::DeviceHealth::kDead) {
        ++run_.deaths;
        if (rec.from != gpu::DeviceHealth::kProbation) {
          died_at_[rec.device] = rec.at_ms;
        }
      }
      if (rec.from == gpu::DeviceHealth::kProbation &&
          rec.to == gpu::DeviceHealth::kHealthy) {
        run_.repair_ms.push_back(rec.at_ms - died_at_[rec.device]);
      }
      run_.digest.add(static_cast<std::uint64_t>(rec.device));
      run_.digest.add(static_cast<std::uint64_t>(rec.from));
      run_.digest.add(static_cast<std::uint64_t>(rec.to));
      run_.digest.add(rec.at_ms);
      run_.digest.add(rec.reason);
    }
    note_request(run_, ms_between(t0, t1), st.group_makespan_ms, delta);
  }

  const Options& opts_;
  Tracer& tracer_;
  Run& run_;
  bool faults_;
  maxwarp::util::Rng rng_;
  std::unique_ptr<gpu::DeviceGroup> group_;
  std::unique_ptr<alg::QueryEngine> engine_;
  std::size_t health_seen_ = 0;
  std::vector<double> died_at_;
};

// -- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host times of the timed requests at the reference speed: each
/// episode's wall times times speed_scale() of its median probe time.
struct HostTimes {
  std::vector<double> ms;  ///< per request
  std::vector<double> answers_per_s, warps_per_s;  ///< per episode
  double seconds = 0;  ///< Σ over requests
};

HostTimes host_times(const Run& run) {
  HostTimes h;
  for (const Run::Episode& e : run.episodes) {
    const auto first = static_cast<std::ptrdiff_t>(e.first);
    const auto end = static_cast<std::ptrdiff_t>(e.end);
    const double scale = perfbench::speed_scale(perfbench::median(
        {run.probe_ms.begin() + first, run.probe_ms.begin() + end}));
    for (std::size_t i = e.first; i < e.end; ++i) {
      h.ms.push_back(run.host_ms[i] * scale);
    }
    const double seconds = e.wall_s * scale;
    h.answers_per_s.push_back(ratio(static_cast<double>(e.answers), seconds));
    h.warps_per_s.push_back(ratio(static_cast<double>(e.warps), seconds));
    h.seconds += seconds;
  }
  return h;
}

std::vector<Metric> end_to_end(const Run& run, const HostTimes& host) {
  double modeled_s = 0;
  for (const double ms : run.modeled_ms) modeled_s += ms / 1e3;
  const auto answers = static_cast<double>(run.answers.attempted);
  return {
      {"setup_s", "s", perfbench::median(run.setup_s)},
      {"host_ms.p50", "ref-ms", perfbench::percentile(host.ms, 0.5)},
      {"host_ms.p90", "ref-ms", perfbench::percentile(host.ms, 0.9)},
      {"modeled_ms.p50", "modeled-ms", perfbench::percentile(run.modeled_ms, 0.5)},
      {"modeled_ms.p90", "modeled-ms", perfbench::percentile(run.modeled_ms, 0.9)},
      {"answers_per_host_s", "1/ref-s", perfbench::median(host.answers_per_s)},
      {"answers_per_modeled_s", "1/modeled-s", ratio(answers, modeled_s)},
      {"sim_warps_per_s", "warps/ref-s", perfbench::median(host.warps_per_s)},
      {"correct_share", "ratio", 1.0 - run.answers.failed_share()},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
  };
}

std::vector<Metric> per_layer(const Run& run, const HostTimes& host) {
  const Counters& d = run.dev;
  const simt::CycleCounters& c = d.kernels.counters;
  const auto requests = static_cast<double>(run.host_ms.size());
  const auto batches = static_cast<double>(run.batches);
  const double per100 = ratio(100.0, batches);
  const double serial = d.serial_ms(run.config);
  const auto algo_modeled = [&](const char* kind) {
    const auto it = run.algo_modeled_ms.find(kind);
    return it == run.algo_modeled_ms.end() ? 0.0
                                            : perfbench::median(it->second);
  };
  const auto algo_host = [&](const char* kind) {
    std::vector<double> ms;
    if (const auto it = run.algo_requests.find(kind);
        it != run.algo_requests.end()) {
      for (const std::size_t i : it->second) ms.push_back(host.ms[i]);
    }
    return perfbench::median(ms);
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const double timed_ns = host.seconds * 1e9;
  double bfs_modeled_ms = 0;
  if (const auto it = run.algo_modeled_ms.find("bfs");
      it != run.algo_modeled_ms.end()) {
    for (const double ms : it->second) bfs_modeled_ms += ms;
  }
  return {
      {"graph.build_s", "s", perfbench::median(run.graph_build_s)},
      {"gpu.upload_s", "s", perfbench::median(run.upload_s)},
      {"gpu.launches", "count", ratio(u(d.kernels.launches), requests)},
      {"gpu.copies", "count", ratio(u(d.transfers.calls), requests)},
      {"gpu.h2d_mb", "MiB",
       ratio(u(d.transfers.bytes_to_device) / 1048576.0, requests)},
      {"gpu.d2h_mb", "MiB",
       ratio(u(d.transfers.bytes_to_host) / 1048576.0, requests)},
      {"gpu.kernel_share", "ratio",
       ratio(d.kernels.elapsed_ms(run.config), serial)},
      {"gpu.transfer_share", "ratio", ratio(d.transfers.modeled_ms, serial)},
      {"gpu.delay_share", "ratio", ratio(d.delay_ms, serial)},
      {"gpu.overlap", "ratio", ratio(serial, run.makespan_ms)},
      {"gpu.peak_device_mb", "MiB", u(run.peak_device_bytes) / 1048576.0},
      {"gpu.group.healthy_share", "ratio",
       batches > 0 ? run.healthy_share / batches : 1.0},
      {"gpu.group.degraded_batch_share", "ratio",
       ratio(u(run.degraded_batches), batches)},
      {"gpu.group.repair_ms", "modeled-ms", mean(run.repair_ms)},
      {"gpu.group.deaths", "per-100-batches", u(run.deaths) * per100},
      {"gpu.group.probes", "per-100-batches", u(run.probes) * per100},
      {"gpu.group.probe_failures", "per-100-batches",
       u(run.probe_failures) * per100},
      {"gpu.group.restorations", "per-100-batches",
       u(run.restorations) * per100},
      {"gpu.group.retired", "per-100-batches", u(run.retired) * per100},
      {"simt.warps", "count", ratio(u(d.kernels.warps), requests)},
      {"simt.instructions", "count",
       ratio(u(c.issued_instructions), requests)},
      {"simt.ns_per_warp", "ref-ns", ratio(timed_ns, u(d.kernels.warps))},
      {"simt.ns_per_instruction", "ref-ns",
       ratio(timed_ns, u(c.issued_instructions))},
      {"simt.simd_utilization", "ratio", c.simd_utilization()},
      {"simt.txn_per_request", "ratio", c.transactions_per_request()},
      {"simt.atomic_conflicts", "count",
       ratio(u(c.atomic_conflicts), requests)},
      {"simt.sm_balance", "ratio", d.kernels.sm_balance(run.config)},
      {"simt.mem_cycle_share", "ratio",
       ratio(u(c.mem_cycles), u(c.total_cycles()))},
      {"warp.binned_share", "ratio", ratio(run.binned_ms, run.driver_kernel_ms)},
      {"warp.outlier_share", "ratio",
       ratio(run.outlier_ms, run.driver_kernel_ms)},
      {"warp.binned_simd_utilization", "ratio",
       run.binned_ms > 0 ? run.binned.simd_utilization() : 0.0},
      {"warp.outlier_simd_utilization", "ratio",
       run.outlier_ms > 0 ? run.outlier.simd_utilization() : 0.0},
      {"algorithms.adaptive.setup_s", "s",
       perfbench::median(run.adaptive_setup_s)},
      {"algorithms.adaptive.setup_modeled_ms", "modeled-ms",
       run.adaptive_setup_modeled_ms},
      {"algorithms.bfs.host_ms", "ref-ms", algo_host("bfs")},
      {"algorithms.bfs.modeled_ms", "modeled-ms", algo_modeled("bfs")},
      {"algorithms.sssp.host_ms", "ref-ms", algo_host("sssp")},
      {"algorithms.sssp.modeled_ms", "modeled-ms", algo_modeled("sssp")},
      {"algorithms.cc.host_ms", "ref-ms", algo_host("cc")},
      {"algorithms.cc.modeled_ms", "modeled-ms", algo_modeled("cc")},
      {"algorithms.pagerank.host_ms", "ref-ms", algo_host("pagerank")},
      {"algorithms.pagerank.modeled_ms", "modeled-ms",
       algo_modeled("pagerank")},
      {"algorithms.bfs.mteps", "edges/modeled-us",
       ratio(u(run.bfs_edges), bfs_modeled_ms * 1e3)},
      {"algorithms.iterations", "count",
       ratio(u(run.iterations), u(run.driver_calls))},
      {"query_engine.units", "count", ratio(u(run.units), batches)},
      {"query_engine.fused_share", "ratio",
       ratio(u(run.fused_answers), u(run.bfs_answers))},
      {"query_engine.imbalance", "ratio", ratio(run.imbalance, batches)},
      {"query_engine.idle_share", "ratio", ratio(run.idle_share, batches)},
      {"query_engine.estimate_error", "ratio",
       ratio(run.estimate_error, batches)},
      {"query_engine.attempts_per_query", "count",
       ratio(u(run.attempts), u(run.queries))},
      {"query_engine.retries", "count", ratio(u(run.retries), batches)},
      {"query_engine.isolated_groups", "count", ratio(u(run.isolated), batches)},
      {"query_engine.migrations", "count", ratio(u(run.migrations), batches)},
      {"query_engine.migrated_units", "count",
       ratio(u(run.migrated_units), batches)},
      {"query_engine.resume_share", "ratio",
       ratio(u(run.resumes), u(run.migrated_units))},
      {"query_engine.degraded_share", "ratio",
       ratio(u(run.degraded), u(run.queries))},
      {"query_engine.fallback_share", "ratio",
       ratio(u(run.fallbacks), u(run.queries))},
      {"query_engine.steals", "count", ratio(u(run.steals), batches)},
      {"check.host_ms", "ms", ratio(run.check_s * 1e3, requests)},
      {"trace.host_ms.p50", "ref-ms", perfbench::percentile(host.ms, 0.5)},
      {"trace.spans", "count", ratio(u(run.spans), requests)},
  };
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

/// Runs `w` as kEpisodes episodes, each a fresh set-up followed by its
/// share of the requests, then checks the workload's guards.
template <typename Workload>
void measure(Workload& w, Run& run, double seconds) {
  const Clock::time_point start = Clock::now();
  for (int e = 0; e < kEpisodes && within_cap(start, seconds); ++e) {
    w.setup_once();
    Run::Episode ep;
    ep.first = run.host_ms.size();
    const std::uint64_t answers = run.answers.attempted;
    const std::uint64_t warps = run.dev.kernels.warps;
    const double wall_s = run.timed_host_s;
    w.run_episode(start);
    ep.end = run.host_ms.size();
    ep.answers = run.answers.attempted - answers;
    ep.warps = run.dev.kernels.warps - warps;
    ep.wall_s = run.timed_host_s - wall_s;
    run.episodes.push_back(ep);
  }
  cap_guard(run, kEpisodes * Workload::kEpisodeRequests, seconds);
  w.guards();
}

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  Tracer tracer(opts.trace);
  Run run;
  if (opts.workload == "analytics") {
    Analytics w(opts, tracer, run);
    measure(w, run, opts.seconds);
  } else {
    Serve w(opts, tracer, run, opts.workload == "serve_faults");
    measure(w, run, opts.seconds);
  }
  run.spans = tracer.size();
  for (std::size_t i = 0; i < run.plans.size(); ++i) {
    std::printf("fault plan member %zu: %s\n", i, run.plans[i].c_str());
  }
  std::printf("requests %zu, answers %llu, failed %llu\n", run.host_ms.size(),
              static_cast<unsigned long long>(run.answers.attempted),
              static_cast<unsigned long long>(run.answers.failed));
  std::printf("check host time %.3f s (outside the timed requests)\n",
              run.check_s);
  std::printf("modeled digest %s over %zu requests, seed %llu\n",
              run.digest.hex().c_str(), run.host_ms.size(),
              static_cast<unsigned long long>(opts.seed));
  for (const std::string& g : run.guard_failures) {
    std::printf("guard failed: %s\n", g.c_str());
  }
  if (opts.trace && !opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out);
    tracer.write_chrome_json(out);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opts.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans in %s\n", tracer.size(),
                opts.trace_out.c_str());
  }

  const HostTimes host = host_times(run);
  std::printf(
      "host wall time per request: p50 %.3f ms, p90 %.3f ms; speed probe "
      "%.3f ms (median; %.3f ms at the reference speed)\n",
      perfbench::percentile(run.host_ms, 0.5),
      perfbench::percentile(run.host_ms, 0.9),
      perfbench::median(run.probe_ms), perfbench::kProbeNominalMs);
  const std::vector<Metric> metrics =
      opts.trace ? per_layer(run, host) : end_to_end(run, host);
  for (const Metric& m : metrics) {
    std::printf("%-40s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = run.answers.failed == 0 && run.guard_failures.empty();
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(run.answers.attempted);
  line += ", \"failed\": " + std::to_string(run.answers.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
