// Perf-trajectory runner: times the engine's hot paths, checks the
// determinism gates and writes BENCH_engine.json, so CI can track
// regressions from one PR to the next. `ctest -L bench_smoke` runs it with
// --quick; it needs no google-benchmark. Schema v10:
//
//   { "schema": "radnet-bench-engine-v10",
//     "host": {"hardware_concurrency", "pool_threads", "simd", "cpu_avx2"},
//     "benchmarks": [ {"name", "n", "ns_per_round", "wall_ms", "threads",
//                      "peak_rss_kb"}, ... ],
//     "comparison": {"n", "p", "csr_ms", "implicit_ms", "speedup",
//                    "peak_rss_kb"},
//     "dynamic": {"n", "churn", "trial_ms", "rounds"},
//     "thread_scaling": [ {"name", "protocol", "family", "n", "max_rounds",
//                          "serial_ms", "parallel_ms", "speedup",
//                          "pool_threads", "identical", "peak_rss_kb"
//                          [, "stranded_fraction"]}, ... ],
//     "e19_batch": {"specs", "trials_run", "trials_saved", "serial_ms",
//                   "parallel_ms", "warm_ms", "threads_identical",
//                   "cached_identical"},
//     "e20_faulttol": {"specs", "kill_confirmed", "partial_prefix",
//                      "resumed_identical", "journal_trials",
//                      "journal_results", "baseline_ms", "resume_ms"},
//     "e13_simd": {"dense_n", "dense_scalar_ns", "dense_simd_ns",
//                  "dense_speedup", "rgg_n", "rgg_scalar_ns", "rgg_simd_ns",
//                  "rgg_speedup", "identical"} }
//
// "benchmarks" holds median ns per round of the CSR and implicit engines
// under a fixed-probability load, plus the per-sweep cost of the two SIMD
// kernels under scalar and SIMD dispatch. "comparison" is one broadcast on
// CSR vs implicit G(n,p); "dynamic" one churned gossip trial (E16).
//
// Each "thread_scaling" row is trial 0 of a batch spec (harness/batch.hpp)
// run through harness::run_trial at threads = 1 and threads = 0 (every
// pool thread). "identical" compares the complete RunResult, ledger, trace
// and AdversaryStats included; "stranded_fraction" appears when the
// protocol tracks provenance. "e19_batch" answers a mixed spec set through
// run_batch serial vs all-core, then cold vs warm cache. "e20_faulttol"
// SIGKILLs a journaled sweep mid-flight in a forked child and resumes it.
// "e13_simd" fingerprints the SIMD kernels' events against their scalar
// references.
//
// Bit-identity is a correctness contract, not a statistic: every gate is
// evaluated, the JSON is written with each row's identity flags, and the
// run then exits 1 naming every gate that failed.
//
// Flags: --quick shrinks sizes/repetitions for smoke runs; --out overrides
// the output path (default BENCH_engine.json in the working directory).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "support/cli_args.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using radnet::Rng;
using radnet::Sample;
using radnet::graph::NodeId;
namespace rh = radnet::harness;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everybody transmits with fixed probability; never completes. The same
/// pure-throughput load bench_e13_engine_micro uses.
class LoadProtocol final : public radnet::sim::Protocol {
 public:
  explicit LoadProtocol(double q) : q_(q) {}

  void reset(NodeId n, Rng rng) override {
    rng_ = rng;
    all_.resize(n);
    for (NodeId v = 0; v < n; ++v) all_[v] = v;
  }
  [[nodiscard]] std::span<const NodeId> candidates() const override {
    return {all_.data(), all_.size()};
  }
  [[nodiscard]] bool wants_transmit(NodeId, radnet::sim::Round) override {
    return rng_.bernoulli(q_);
  }
  void on_delivered(NodeId, NodeId, radnet::sim::Round) override {}
  [[nodiscard]] bool is_complete() const override { return false; }
  [[nodiscard]] std::string name() const override { return "load"; }

 private:
  double q_;
  Rng rng_;
  std::vector<NodeId> all_;
};

struct Entry {
  std::string name;
  std::uint32_t n = 0;
  double ns_per_round = 0.0;
  double wall_ms = 0.0;       ///< total wall time spent producing the entry
  unsigned threads = 1;       ///< RunOptions::threads the entry ran with
  std::uint64_t peak_rss_kb = 0;  ///< process high-water RSS at entry end
};

constexpr radnet::sim::Round kRounds = 64;

/// Process peak RSS in KiB (ru_maxrss is KiB on Linux); monotone over the
/// process lifetime, so each entry records the high-water mark so far.
std::uint64_t peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

/// Median ns per round of the fixed-probability load on `topology` (a
/// Digraph or an ImplicitGnp spec). wall_ms counts from `t0_ns`, so a CSR
/// entry includes its graph build.
template <class Topology>
Entry time_engine(const char* name, std::uint32_t n, std::uint32_t reps,
                  double t0_ns, const Topology& topology) {
  radnet::sim::Engine engine;
  radnet::sim::RunOptions options;
  options.max_rounds = kRounds;
  Sample ns;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    LoadProtocol proto(0.1);
    const double t0 = now_ns();
    (void)engine.run(topology, proto, Rng(1), options);
    ns.add((now_ns() - t0) / kRounds);
  }
  return {name, n, ns.median(), (now_ns() - t0_ns) / 1e6, options.threads,
          peak_rss_kb()};
}

/// One gated serial-vs-parallel row: trial 0 of a batch spec.
struct ScalingRow {
  std::string name;
  rh::BatchSpec spec;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
  std::optional<double> stranded_fraction = std::nullopt;
  std::uint64_t peak_rss_kb = 0;
};

/// Parses `line` at size n. A positive `degree` pins the mean degree:
/// p = degree / n, or for irgg radius-mult = degree / ln n (so that
/// pi r^2 n = degree).
rh::BatchSpec scaling_spec(const std::string& line, NodeId n,
                           double degree = 0.0) {
  rh::BatchSpec spec = rh::parse_batch_spec(line + " n=" + std::to_string(n));
  if (degree > 0.0) {
    if (spec.family == rh::BatchFamily::kImplicitRgg)
      spec.radius_mult = degree / std::log(static_cast<double>(n));
    else
      spec.p = degree / n;
  }
  spec.validate();
  return spec;
}

/// The gated rows. Algorithm 1 on ignp at d = 8 ln n completes reliably,
/// so thread_scaling times a full broadcast; the csr row at d = 32 has
/// heavy rounds for the scatter/gather delivery; the gossip rows keep
/// every node transmitting, so churn = 0.5 routes each delivery through
/// the pair sketch and the RGG rows keep k large for the transmitter
/// bucketing; e14b_mobility reaches n = 10^7 in the full run, where an
/// explicit per-round rebuild could not allocate; e18_adversary runs the
/// whole adversary stack.
std::vector<ScalingRow> scaling_rows(bool quick) {
  const auto size = [quick](NodeId q, NodeId full) { return quick ? q : full; };
  const std::string horizon = quick ? " max-rounds=32" : " max-rounds=64";
  const std::string alg1_ignp = "protocol=alg1 family=ignp delta=8";
  const std::string gossip = "protocol=alg2m max-rounds=64 family=";
  const std::string adversary =
      " jammers=0.01 byzantine=0.02 energy-budget=4:0.25"
      " fault-schedule=crash@8:0.1,recover@16:1";
  return {
      {.name = "thread_scaling",
       .spec = scaling_spec(alg1_ignp, size(1u << 18, 1u << 22))},
      {.name = "csr_thread_scaling",
       .spec = scaling_spec("protocol=alg1 family=csr",
                            size(1u << 15, 1u << 19), 32.0)},
      {.name = "idgnp_gossip_thread_scaling",
       .spec = scaling_spec(gossip + "idgnp churn=0.5",
                            size(1u << 14, 1u << 20), 16.0)},
      {.name = "irgg_gossip_thread_scaling",
       .spec = scaling_spec(gossip + "irgg", size(1u << 14, 1u << 20), 16.0)},
      {.name = "e14b_mobility",
       .spec = scaling_spec("protocol=alg1 family=irgg" + horizon,
                            size(1u << 18, 10'000'000u), 50.0)},
      {.name = "e18_adversary",
       .spec = scaling_spec(alg1_ignp + horizon + adversary,
                            size(1u << 15, 1u << 20))},
  };
}

/// Wall ms of trial `trial` of `mc` at the given thread count.
double time_trial(const rh::McSpec& mc, std::uint32_t trial, unsigned threads,
                  rh::TrialRun& out) {
  radnet::sim::RunOptions options = mc.run_options;
  options.threads = threads;
  const double t0 = now_ns();
  out = rh::run_trial(mc, trial, options);
  return (now_ns() - t0) / 1e6;
}

/// Times the row's trial at threads = 1 and threads = 0 and compares them.
void time_scaling(ScalingRow& row) {
  rh::McSpec mc = row.spec.to_mc_spec();
  // csr: generate trial 0's graph (stream (seed, 0, 0)) once, so both
  // clocks time the broadcast rather than graph generation.
  if (mc.make_graph)
    mc.make_graph =
        rh::shared_graph(*mc.make_graph(0, Rng(mc.seed).split(0, 0)));
  rh::TrialRun serial, parallel;
  row.serial_ms = time_trial(mc, 0, 1, serial);
  row.parallel_ms = time_trial(mc, 0, 0, parallel);
  row.identical = serial.run == parallel.run;
  if (serial.stranded.has_value())
    row.stranded_fraction =
        static_cast<double>(*serial.stranded) / serial.nodes;
  row.peak_rss_kb = peak_rss_kb();
}

struct BatchNumbers {
  std::uint64_t specs = 0;
  std::uint64_t trials_run = 0;    ///< trials the serial early-stop run paid
  std::uint64_t trials_saved = 0;  ///< budget minus granted, summed
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double warm_ms = 0.0;            ///< cache replay of the whole set
  bool threads_identical = false;  ///< serial vs all-core byte streams
  bool cached_identical = false;   ///< cold vs warm-cache byte streams
};

/// E19's tracked numbers: a small mixed-family spec set answered by the
/// batch sweep service with CI-based early stopping, serial vs all-core,
/// then cold-cache vs warm-cache replay. Both identity columns compare the
/// complete streamed byte output — the batch layer's determinism contract
/// is that grant scheduling, thread count and cache replay are invisible
/// in the result bytes (see tests/harness/batch_test.cpp for the
/// per-property pins; this is the in-CI end-to-end gate).
BatchNumbers time_batch(bool quick) {
  // A fixed horizon keeps censored trials cheap, and tol 0.1 converges at
  // a proper prefix of the budget, so the tracked numbers exercise early
  // stopping rather than just exhaustion.
  std::vector<rh::BatchSpec> specs;
  for (const std::string family : {"csr", "ignp", "idgnp churn=0.5", "irgg"})
    for (const std::string protocol : {"alg1", "flooding"})
      for (const char* n : {"256", "512"})
        specs.push_back(rh::parse_batch_spec(
            "protocol=" + protocol + " family=" + family + " n=" + n +
            (quick ? " trials=48" : " trials=96") + " max-rounds=256 tol=0.1"));

  BatchNumbers b;
  b.specs = specs.size();
  const auto run_with = [&](const rh::BatchOptions& options, double* ms,
                            rh::BatchStats* stats_out) {
    std::ostringstream out;
    rh::BatchStats stats;
    const double t0 = now_ns();
    (void)rh::run_batch(specs, options, out, &stats);
    *ms = (now_ns() - t0) / 1e6;
    if (stats_out != nullptr) *stats_out = stats;
    return out.str();
  };

  rh::BatchOptions serial;
  serial.threads = 1;
  rh::BatchStats serial_stats;
  const std::string serial_stream =
      run_with(serial, &b.serial_ms, &serial_stats);
  b.trials_run = serial_stats.trials_run;
  b.trials_saved = serial_stats.trials_saved;

  rh::BatchOptions parallel;  // threads = 0: harness default schedule
  const std::string parallel_stream =
      run_with(parallel, &b.parallel_ms, nullptr);
  b.threads_identical = parallel_stream == serial_stream;

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "radnet_bench_runner_e19";
  std::filesystem::remove_all(cache_dir);
  rh::BatchOptions cached = parallel;
  cached.cache_dir = cache_dir.string();
  double cold_ms = 0.0;
  const std::string cold_stream = run_with(cached, &cold_ms, nullptr);
  const std::string warm_stream = run_with(cached, &b.warm_ms, nullptr);
  std::filesystem::remove_all(cache_dir);
  b.cached_identical =
      cold_stream == serial_stream && warm_stream == cold_stream;
  return b;
}

struct FaultTolNumbers {
  std::uint64_t specs = 0;
  bool kill_confirmed = false;    ///< the child really died by SIGKILL
  bool partial_prefix = false;    ///< torn output is a prefix of the stream
  bool resumed_identical = false; ///< resume(interrupt(run)) == run, bytes
  std::uint64_t journal_trials = 0;   ///< trial records replayed on resume
  std::uint64_t journal_results = 0;  ///< result records replayed on resume
  double baseline_ms = 0.0;
  double resume_ms = 0.0;
};

/// E20's tracked numbers and the crash-safety gate: run a small journaled
/// sweep to completion for the reference bytes, fork a child that runs the
/// same sweep under `grant@2:kill` (SIGKILL at the second grant boundary,
/// mid-sweep by construction: tol = 0 forces every spec through multiple
/// grants), then resume in-process from the journal the dead child left
/// behind. The contract under test is the tentpole invariant of the
/// fault-tolerance layer — resume(interrupt(run)) == run, byte-for-byte —
/// plus the weaker torn-output guarantee that whatever the child flushed
/// before dying is a prefix of the uninterrupted stream, never a
/// divergence. Everything runs serially: result bytes are thread-invariant
/// anyway, and the forked child must not depend on pool threads that do
/// not survive fork.
FaultTolNumbers time_faulttol() {
  namespace fs = std::filesystem;
  FaultTolNumbers f;
  std::vector<rh::BatchSpec> specs;
  for (const char* n : {"96", "128"})  // tol=0: several grants per spec
    specs.push_back(rh::parse_batch_spec(
        "protocol=alg1 family=ignp trials=16 max-rounds=256 tol=0 seed=7 n=" +
        std::string(n)));
  f.specs = specs.size();

  rh::BatchOptions base;
  base.threads = 1;
  base.min_grant = 4;
  double t0 = now_ns();
  std::ostringstream expect;
  (void)rh::run_batch(specs, base, expect, nullptr);
  f.baseline_ms = (now_ns() - t0) / 1e6;

  const fs::path dir = fs::temp_directory_path() / "radnet_bench_runner_e20";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string journal = (dir / "run.journal").string();
  const std::string partial = (dir / "partial.jsonl").string();

  const pid_t pid = fork();
  if (pid == 0) {
    radnet::io::set_fault("grant@2:kill");
    std::ofstream out(partial, std::ios::binary | std::ios::trunc);
    rh::BatchOptions opts = base;
    opts.journal_path = journal;
    try {
      (void)rh::run_batch(specs, opts, out, nullptr);
    } catch (...) {
      _exit(3);
    }
    _exit(0);  // fault never fired — the parent reports the gate failure
  }
  int status = 0;
  waitpid(pid, &status, 0);
  f.kill_confirmed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;

  const std::string torn = radnet::io::read_file(partial).value_or("");
  f.partial_prefix = expect.str().compare(0, torn.size(), torn) == 0;

  rh::BatchOptions resume = base;
  resume.journal_path = journal;
  resume.resume = true;
  rh::BatchStats stats;
  std::ostringstream resumed;
  t0 = now_ns();
  (void)rh::run_batch(specs, resume, resumed, &stats);
  f.resume_ms = (now_ns() - t0) / 1e6;
  f.journal_trials = stats.journal_trials;
  f.journal_results = stats.journal_results;
  f.resumed_identical = resumed.str() == expect.str();
  fs::remove_all(dir);
  return f;
}

/// Order-sensitive FNV-style fingerprint of a delivery stream: two runs
/// produce the same fingerprint iff they emit the same events in the same
/// order — the observable the SIMD dispatch must never change.
struct FingerprintSink {
  std::uint64_t hash = 0x9e3779b97f4a7c15ull;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;

  void mix(std::uint64_t x) { hash = (hash ^ x) * 0x100000001b3ull; }
  void deliver(NodeId listener, NodeId sender) {
    ++deliveries;
    mix(listener | (static_cast<std::uint64_t>(sender) << 32));
  }
  void collide(NodeId listener) {
    ++collisions;
    mix(~static_cast<std::uint64_t>(listener));
  }
  void deliver_bulk(std::uint64_t count) { mix(count * 3 + 1); }
  void collide_bulk(std::uint64_t count) { mix(count * 3 + 2); }
};
struct SimdSweep {
  double scalar_ns = 0.0;  ///< median ns per sweep, scalar kernels
  double simd_ns = 0.0;    ///< median ns per sweep, SIMD kernels
  std::uint64_t scalar_fp = 0;
  std::uint64_t simd_fp = 0;
  [[nodiscard]] double speedup() const { return scalar_ns / simd_ns; }
  [[nodiscard]] bool identical() const { return scalar_fp == simd_fp; }
};

struct SimdNumbers {
  std::uint32_t dense_n = 0;
  std::uint32_t rgg_n = 0;
  SimdSweep dense;
  SimdSweep rgg;
  bool lanes_identical = false;  ///< bulk lane stream == scalar reference
};

/// Median per-sweep cost of one backend's deliver() over kRounds rounds
/// with a fixed transmitter set, and the fingerprint of every event it
/// emitted, under scalar and under SIMD dispatch.
template <class MakeTopology>
SimdSweep time_sweep(const MakeTopology& make_topology,
                     const std::vector<NodeId>& tx,
                     const std::vector<char>& is_tx, std::uint32_t reps) {
  SimdSweep s;
  const auto run = [&](radnet::simd::Mode mode, double* ns_out,
                       std::uint64_t* fp_out) {
    radnet::simd::set_mode(mode);
    auto topo = make_topology();
    FingerprintSink sink;
    Sample ns;
    radnet::sim::Round round = 0;  // backends require non-decreasing rounds
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const double t0 = now_ns();
      for (radnet::sim::Round r = 0; r < kRounds; ++r) {
        topo.begin_round(round++);
        topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                     radnet::sim::DeliveryPath::kAuto, std::nullopt,
                     /*collisions_inert=*/false, sink);
      }
      ns.add((now_ns() - t0) / kRounds);
    }
    *ns_out = ns.median();
    *fp_out = sink.hash ^ sink.deliveries ^ (sink.collisions << 1);
  };
  run(radnet::simd::Mode::kScalar, &s.scalar_ns, &s.scalar_fp);
  run(radnet::simd::Mode::kAvx2, &s.simd_ns, &s.simd_fp);
  return s;
}

/// Per-sweep cost of the dense G(n,p) lane classification: k*p ~ 0.8 ln n
/// puts every block on the vectorised plain path (q well above 0.5).
SimdSweep time_dense_classify(std::uint32_t n, std::uint32_t reps) {
  const double p = 8.0 * std::log(n) / n;
  std::vector<NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (NodeId v = 0; v < n / 10; ++v) {
    tx.push_back(v * 7 % n);
    is_tx[tx.back()] = 1;
  }
  return time_sweep(
      [&] {
        return radnet::sim::ImplicitGnpTopology(
            radnet::sim::ImplicitGnp{n, p, Rng(91)});
      },
      tx, is_tx, reps);
}

/// Per-sweep cost of the RGG distance-mask scan: mean degree 64 with half
/// the nodes transmitting keeps every cell populated, so the scan (not the
/// bucketing) dominates. begin_round's counter-keyed motion sweep is
/// included — it is mode-independent, so the delta between the rows is
/// the scan alone.
SimdSweep time_rgg_distance(std::uint32_t n, std::uint32_t reps) {
  const double radius = std::sqrt(64.0 / (3.141592653589793 * n));
  std::vector<NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (NodeId v = 0; v < n; v += 2) {
    tx.push_back(v);
    is_tx[v] = 1;
  }
  return time_sweep(
      [&] {
        return radnet::sim::ImplicitRggTopology(
            radnet::sim::ImplicitRgg{n, radius, radius / 8.0, Rng(92)});
      },
      tx, is_tx, reps);
}


/// Byte-compares the lane generator's dispatched bulk stream against its
/// portable scalar reference — the root of the whole SIMD identity
/// argument, checked directly.
bool lane_streams_identical() {
  const auto key = radnet::StreamKey::from_rng(Rng(0x51));
  radnet::LaneRng dispatched(key);
  radnet::LaneRng reference(key);
  radnet::simd::set_mode(radnet::simd::Mode::kAvx2);
  for (std::uint32_t step = 0; step < 4096; ++step) {
    std::uint64_t got[radnet::LaneRng::kLanes];
    std::uint64_t want[radnet::LaneRng::kLanes];
    dispatched.next_u64_lanes(got);
    reference.next_u64_lanes_scalar(want);
    for (unsigned l = 0; l < radnet::LaneRng::kLanes; ++l)
      if (got[l] != want[l]) return false;
  }
  return true;
}

/// E13's SIMD rows and the scalar-vs-SIMD identity gate. On hosts without
/// AVX2 set_mode degrades to scalar, so the rows coincide and the gate
/// passes trivially; cpu_avx2 in the host block records which case ran.
SimdNumbers time_simd_sweeps(bool quick) {
  SimdNumbers s;
  s.dense_n = quick ? (1u << 14) : (1u << 16);
  s.rgg_n = quick ? (1u << 14) : (1u << 16);
  const std::uint32_t reps = quick ? 3 : 5;
  s.dense = time_dense_classify(s.dense_n, reps);
  s.rgg = time_rgg_distance(s.rgg_n, reps);
  s.lanes_identical = lane_streams_identical();
  return s;
}

struct Comparison {
  std::uint32_t n = 0;
  double p = 0.0;
  double csr_ms = 0.0;
  double implicit_ms = 0.0;
  double speedup = 0.0;
};

/// Algorithm 1 at mean degree 16: trial `rep` of one spec on CSR and on
/// implicit G(n,p), which share their graph streams. The CSR clock
/// includes the graph build.
Comparison compare_broadcast(std::uint32_t n, std::uint32_t reps) {
  Comparison c;
  c.n = n;
  c.p = 16.0 / n;
  rh::BatchSpec spec = scaling_spec("protocol=alg1 family=csr", n, 16.0);
  const rh::McSpec csr = spec.to_mc_spec();
  spec.family = rh::BatchFamily::kImplicitGnp;
  const rh::McSpec implicit = spec.to_mc_spec();
  Sample csr_ms, implicit_ms;
  rh::TrialRun trial;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    csr_ms.add(time_trial(csr, rep, 1, trial));
    implicit_ms.add(time_trial(implicit, rep, 1, trial));
  }
  c.csr_ms = csr_ms.median();
  c.implicit_ms = implicit_ms.median();
  c.speedup = c.csr_ms / c.implicit_ms;
  return c;
}

struct DynamicNumbers {
  std::uint32_t n = 0;
  double churn = 0.5;
  double trial_ms = 0.0;
  double rounds = 0.0;
};

/// One E16-style churned-gossip trial per rep on the implicit dynamic
/// backend at mean degree 16; medians across reps.
DynamicNumbers time_dynamic_gossip(std::uint32_t n, std::uint32_t reps) {
  DynamicNumbers d;
  d.n = n;
  const rh::McSpec mc =
      scaling_spec("protocol=alg2m family=idgnp churn=0.5", n, 16.0)
          .to_mc_spec();
  Sample ms, rounds;
  rh::TrialRun trial;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    ms.add(time_trial(mc, rep, 1, trial));
    // completion_round is only meaningful for completed runs; a failed rep
    // must not push a 0 into the tracked median.
    if (trial.run.completed)
      rounds.add(static_cast<double>(trial.run.completion_round));
  }
  d.trial_ms = ms.median();
  d.rounds = rounds.empty() ? 0.0 : rounds.median();
  return d;
}

}  // namespace
int main(int argc, char** argv) {
  radnet::CliArgs args = [&] {
    try {
      return radnet::CliArgs(argc, argv, {"quick", "out"});
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      std::exit(2);
    }
  }();
  const bool quick = args.get_bool("quick", false);
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  // The dispatch mode the process resolved at startup (RADNET_SIMD env or
  // CPUID) — recorded in the host block; every entry below except the
  // explicit scalar-vs-SIMD rows runs under it.
  const radnet::simd::Mode host_mode = radnet::simd::active_mode();
  const unsigned pool_threads = radnet::global_pool().size();

  const std::vector<std::uint32_t> sizes =
      quick ? std::vector<std::uint32_t>{1u << 10, 1u << 12}
            : std::vector<std::uint32_t>{1u << 12, 1u << 14, 1u << 16};
  const std::uint32_t reps = quick ? 5 : 15;
  const std::uint32_t compare_n = quick ? (1u << 14) : (1u << 20);
  const std::uint32_t compare_reps = quick ? 3 : 5;

  std::vector<Entry> entries;
  for (const std::uint32_t n : sizes) {
    const double p = 8.0 * std::log(n) / n;
    Rng grng(n);
    const double t0 = now_ns();
    entries.push_back(time_engine("csr_engine_rounds", n, reps, t0,
                                  radnet::graph::gnp_directed(n, p, grng)));
    entries.push_back(time_engine("implicit_engine_rounds", n, reps, now_ns(),
                                  radnet::sim::ImplicitGnp{n, p, Rng(n)}));
    std::cout << entries[entries.size() - 2].name << " n=" << n << ": "
              << entries[entries.size() - 2].ns_per_round << " ns/round\n"
              << entries.back().name << " n=" << n << ": "
              << entries.back().ns_per_round << " ns/round\n";
  }

  const Comparison cmp = compare_broadcast(compare_n, compare_reps);
  std::cout << "broadcast end-to-end n=" << cmp.n << ": csr " << cmp.csr_ms
            << " ms, implicit " << cmp.implicit_ms << " ms, speedup "
            << cmp.speedup << "x\n";

  const DynamicNumbers dyn =
      time_dynamic_gossip(quick ? (1u << 14) : (1u << 17), compare_reps);
  std::cout << "churned gossip (E16) n=" << dyn.n << " churn=" << dyn.churn
            << ": " << dyn.trial_ms << " ms/trial, " << dyn.rounds
            << " rounds\n";

  struct Gate {
    std::string name;
    bool ok;
    std::string message;
  };
  std::vector<Gate> gates;

  std::vector<ScalingRow> scaling = scaling_rows(quick);
  for (ScalingRow& row : scaling) {
    time_scaling(row);
    std::cout << row.name << " (" << row.spec.protocol << " on "
              << rh::batch_family_name(row.spec.family) << ") n="
              << row.spec.n << ": serial " << row.serial_ms << " ms, "
              << pool_threads << "-thread " << row.parallel_ms
              << " ms, speedup " << row.serial_ms / row.parallel_ms << "x, ";
    if (row.stranded_fraction.has_value())
      std::cout << "stranded " << *row.stranded_fraction << ", ";
    std::cout << (row.identical ? "bit-identical" : "DIVERGED") << "\n";
    gates.push_back({row.name, row.identical,
                     "serial and all-core runs of trial 0 diverged — "
                     "determinism bug"});
  }

  const BatchNumbers e19 = time_batch(quick);
  std::cout << "batch sweep service (E19) " << e19.specs << " specs: "
            << e19.trials_run << " trials run, " << e19.trials_saved
            << " saved by early stopping; serial " << e19.serial_ms
            << " ms, parallel " << e19.parallel_ms << " ms, warm replay "
            << e19.warm_ms << " ms, "
            << (e19.threads_identical && e19.cached_identical
                    ? "bit-identical"
                    : "DIVERGED")
            << "\n";
  gates.push_back({"e19_threads", e19.threads_identical,
                   "batch serial-vs-parallel streams diverged — the grant "
                   "schedule leaked thread count into the results"});
  gates.push_back({"e19_cached", e19.cached_identical,
                   "batch cached result diverged from the cold run for the "
                   "same spec hash — cache replay broke byte-identity"});

  const FaultTolNumbers e20 = time_faulttol();
  std::cout << "crash-safe sweep (E20) " << e20.specs << " specs: child "
            << (e20.kill_confirmed ? "SIGKILLed mid-flight" : "NOT KILLED")
            << ", " << e20.journal_trials << " trials + "
            << e20.journal_results
            << " results replayed from the journal; baseline "
            << e20.baseline_ms << " ms, resume " << e20.resume_ms << " ms, "
            << (e20.partial_prefix && e20.resumed_identical ? "byte-identical"
                                                            : "DIVERGED")
            << "\n";
  gates.push_back({"e20_kill", e20.kill_confirmed,
                   "the injected SIGKILL never fired — the grant-boundary "
                   "fault hook is dead"});
  gates.push_back({"e20_prefix", e20.partial_prefix,
                   "the torn partial output is not a byte-prefix of the "
                   "uninterrupted stream"});
  gates.push_back({"e20_resume", e20.resumed_identical,
                   "the resumed stream differs from the uninterrupted run — "
                   "resume(interrupt(run)) != run"});

  const SimdNumbers e13 = time_simd_sweeps(quick);
  radnet::simd::set_mode(host_mode);
  const bool e13_identical =
      e13.dense.identical() && e13.rgg.identical() && e13.lanes_identical;
  std::cout << "SIMD sweeps (E13) dense n=" << e13.dense_n << ": scalar "
            << e13.dense.scalar_ns << " ns/sweep, simd " << e13.dense.simd_ns
            << " ns/sweep, speedup " << e13.dense.speedup()
            << "x; rgg n=" << e13.rgg_n << ": scalar " << e13.rgg.scalar_ns
            << " ns/sweep, simd " << e13.rgg.simd_ns << " ns/sweep, speedup "
            << e13.rgg.speedup() << "x, "
            << (e13_identical ? "bit-identical" : "DIVERGED") << "\n";
  gates.push_back({"e13_lanes", e13.lanes_identical,
                   "the dispatched lane-RNG stream diverged from its scalar "
                   "reference"});
  gates.push_back({"e13_dense", e13.dense.identical(),
                   "dense classification events diverged between scalar and "
                   "SIMD dispatch"});
  gates.push_back({"e13_rgg", e13.rgg.identical(),
                   "RGG distance-scan events diverged between scalar and "
                   "SIMD dispatch"});
  entries.push_back(
      {"dense_classify_sweep_scalar", e13.dense_n, e13.dense.scalar_ns, 0.0,
       1, peak_rss_kb()});
  entries.push_back({"dense_classify_sweep_simd", e13.dense_n,
                     e13.dense.simd_ns, 0.0, 1, peak_rss_kb()});
  entries.push_back({"rgg_distance_sweep_scalar", e13.rgg_n,
                     e13.rgg.scalar_ns, 0.0, 1, peak_rss_kb()});
  entries.push_back({"rgg_distance_sweep_simd", e13.rgg_n, e13.rgg.simd_ns,
                     0.0, 1, peak_rss_kb()});

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  out << "{\n  \"schema\": \"radnet-bench-engine-v10\",\n  \"host\": {"
      << "\"hardware_concurrency\": "
      << std::max(1u, std::thread::hardware_concurrency())
      << ", \"pool_threads\": " << pool_threads
      << ", \"simd\": \"" << radnet::simd::mode_name(host_mode)
      << "\", \"cpu_avx2\": " << flag(radnet::simd::cpu_has_avx2()) << "},\n"
      << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "    {\"name\": \"" << entries[i].name << "\", \"n\": "
        << entries[i].n << ", \"ns_per_round\": " << entries[i].ns_per_round
        << ", \"wall_ms\": " << entries[i].wall_ms
        << ", \"threads\": " << entries[i].threads
        << ", \"peak_rss_kb\": " << entries[i].peak_rss_kb
        << (i + 1 < entries.size() ? "},\n" : "}\n");
  }
  out << "  ],\n  \"comparison\": {\"n\": " << cmp.n << ", \"p\": " << cmp.p
      << ", \"csr_ms\": " << cmp.csr_ms
      << ", \"implicit_ms\": " << cmp.implicit_ms
      << ", \"speedup\": " << cmp.speedup
      << ", \"peak_rss_kb\": " << peak_rss_kb() << "},\n"
      << "  \"dynamic\": {\"n\": " << dyn.n << ", \"churn\": " << dyn.churn
      << ", \"trial_ms\": " << dyn.trial_ms
      << ", \"rounds\": " << dyn.rounds << "},\n"
      << "  \"thread_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& row = scaling[i];
    out << "    {\"name\": \"" << row.name << "\", \"protocol\": \""
        << row.spec.protocol << "\", \"family\": \""
        << rh::batch_family_name(row.spec.family) << "\", \"n\": "
        << row.spec.n
        << ", \"max_rounds\": " << row.spec.resolved_max_rounds()
        << ", \"serial_ms\": " << row.serial_ms
        << ", \"parallel_ms\": " << row.parallel_ms
        << ", \"speedup\": " << row.serial_ms / row.parallel_ms
        << ", \"pool_threads\": " << pool_threads
        << ", \"identical\": " << flag(row.identical)
        << ", \"peak_rss_kb\": " << row.peak_rss_kb;
    if (row.stranded_fraction.has_value())
      out << ", \"stranded_fraction\": " << *row.stranded_fraction;
    out << (i + 1 < scaling.size() ? "},\n" : "}\n");
  }
  out << "  ],\n  \"e19_batch\": {\"specs\": " << e19.specs
      << ", \"trials_run\": " << e19.trials_run
      << ", \"trials_saved\": " << e19.trials_saved
      << ", \"serial_ms\": " << e19.serial_ms
      << ", \"parallel_ms\": " << e19.parallel_ms
      << ", \"warm_ms\": " << e19.warm_ms
      << ", \"threads_identical\": " << flag(e19.threads_identical)
      << ", \"cached_identical\": " << flag(e19.cached_identical) << "},\n"
      << "  \"e20_faulttol\": {\"specs\": " << e20.specs
      << ", \"kill_confirmed\": " << flag(e20.kill_confirmed)
      << ", \"partial_prefix\": " << flag(e20.partial_prefix)
      << ", \"resumed_identical\": " << flag(e20.resumed_identical)
      << ", \"journal_trials\": " << e20.journal_trials
      << ", \"journal_results\": " << e20.journal_results
      << ", \"baseline_ms\": " << e20.baseline_ms
      << ", \"resume_ms\": " << e20.resume_ms << "},\n"
      << "  \"e13_simd\": {\"dense_n\": " << e13.dense_n
      << ", \"dense_scalar_ns\": " << e13.dense.scalar_ns
      << ", \"dense_simd_ns\": " << e13.dense.simd_ns
      << ", \"dense_speedup\": " << e13.dense.speedup()
      << ", \"rgg_n\": " << e13.rgg_n
      << ", \"rgg_scalar_ns\": " << e13.rgg.scalar_ns
      << ", \"rgg_simd_ns\": " << e13.rgg.simd_ns
      << ", \"rgg_speedup\": " << e13.rgg.speedup()
      << ", \"identical\": " << flag(e13_identical) << "}\n}\n";
  out.close();
  std::cout << "wrote " << out_path << '\n';

  int failed = 0;
  for (const Gate& gate : gates)
    if (!gate.ok) {
      std::cerr << "gate " << gate.name << " FAILED: " << gate.message << '\n';
      ++failed;
    }
  return failed == 0 ? 0 : 1;
}
