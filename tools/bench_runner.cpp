// Bench gate runner: checks the determinism, cache, crash-safety and
// SIMD-identity gates and records them in BENCH_engine.json, so CI keeps
// each gate's evidence from one PR to the next. `ctest -L bench_smoke`
// runs it. It times nothing: wall time, RSS and speedups are measured by
// radbench (`python3 radbench/run.py`). Schema v11:
//
//   { "schema": "radnet-bench-engine-v11",
//     "host": {"hardware_concurrency", "pool_threads", "simd", "cpu_avx2"},
//     "thread_scaling": [ {"name", "protocol", "family", "n", "max_rounds",
//                          "identical" [, "stranded_fraction"]}, ... ],
//     "e19_batch": {"specs", "trials_run", "trials_saved",
//                   "threads_identical", "cached_identical"},
//     "e20_faulttol": {"specs", "kill_confirmed", "partial_prefix",
//                      "resumed_identical", "journal_trials",
//                      "journal_results"},
//     "e13_simd": {"dense_n", "rgg_n", "identical"},
//     "gates": [ {"name", "ok"}, ... ] }
//
// Each "thread_scaling" row is trial 0 of a batch spec (harness/batch.hpp)
// run through harness::run_trial at threads = 1 and threads = 0 (every
// pool thread). "identical" compares the complete RunResult, ledger, trace
// and AdversaryStats included; "stranded_fraction" appears when the
// protocol tracks provenance. "e19_batch" answers a mixed spec set through
// run_batch serial vs all-core, then cold vs warm cache. "e20_faulttol"
// SIGKILLs a journaled sweep mid-flight in a forked child and resumes it.
// "e13_simd" fingerprints the SIMD kernels' events against their scalar
// references. "gates" is the one table of pass/fail verdicts.
//
// Bit-identity is a correctness contract, not a statistic: every gate is
// evaluated, the JSON is written, and the run then exits 1 naming every
// gate that failed. Two runs on one host write byte-identical files.
//
// Flag: --out overrides the output path (default BENCH_engine.json in the
// working directory).
#include <sys/wait.h>
#include <unistd.h>

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

#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "support/cli_args.hpp"
#include "support/io.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace {

using radnet::Rng;
using radnet::graph::NodeId;
namespace rh = radnet::harness;

struct Gate {
  std::string name;
  bool ok;
  std::string message;
};

/// One gated serial-vs-parallel row: trial 0 of a batch spec.
struct ScalingRow {
  std::string name;
  rh::BatchSpec spec;
  bool identical = false;
  std::optional<double> stranded_fraction = std::nullopt;
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
/// so thread_scaling covers a full broadcast; the csr row at d = 32 has
/// heavy rounds for the scatter/gather delivery; the gossip rows keep
/// every node transmitting, so churn = 0.5 routes each delivery through
/// the pair sketch and the RGG rows keep k large for the transmitter
/// bucketing; e18_adversary runs the whole adversary stack.
std::vector<ScalingRow> scaling_rows() {
  const std::string horizon = " max-rounds=32";
  const std::string alg1_ignp = "protocol=alg1 family=ignp delta=8";
  const std::string gossip = "protocol=alg2m max-rounds=64 family=";
  const std::string adversary =
      " jammers=0.01 byzantine=0.02 energy-budget=4:0.25"
      " fault-schedule=crash@8:0.1,recover@16:1";
  return {
      {.name = "thread_scaling", .spec = scaling_spec(alg1_ignp, 1u << 18)},
      {.name = "csr_thread_scaling",
       .spec = scaling_spec("protocol=alg1 family=csr", 1u << 15, 32.0)},
      {.name = "idgnp_gossip_thread_scaling",
       .spec = scaling_spec(gossip + "idgnp churn=0.5", 1u << 14, 16.0)},
      {.name = "irgg_gossip_thread_scaling",
       .spec = scaling_spec(gossip + "irgg", 1u << 14, 16.0)},
      {.name = "e14b_mobility",
       .spec = scaling_spec("protocol=alg1 family=irgg" + horizon, 1u << 18,
                            50.0)},
      {.name = "e18_adversary",
       .spec = scaling_spec(alg1_ignp + horizon + adversary, 1u << 15)},
  };
}

/// Runs the row's trial at threads = 1 and threads = 0 and compares them.
void check_scaling(ScalingRow& row) {
  const rh::McSpec mc = row.spec.to_mc_spec();
  radnet::sim::RunOptions serial_options = mc.run_options;
  serial_options.threads = 1;
  radnet::sim::RunOptions parallel_options = mc.run_options;
  parallel_options.threads = 0;
  const rh::TrialRun serial = rh::run_trial(mc, 0, serial_options);
  const rh::TrialRun parallel = rh::run_trial(mc, 0, parallel_options);
  row.identical = serial.run == parallel.run;
  if (serial.stranded.has_value())
    row.stranded_fraction =
        static_cast<double>(*serial.stranded) / serial.nodes;
}

struct BatchNumbers {
  std::uint64_t specs = 0;
  std::uint64_t trials_run = 0;    ///< trials the serial early-stop run paid
  std::uint64_t trials_saved = 0;  ///< budget minus granted, summed
  bool threads_identical = false;  ///< serial vs all-core byte streams
  bool cached_identical = false;   ///< cold vs warm-cache byte streams
};

/// E19's gate: a small mixed-family spec set answered by the batch sweep
/// service with CI-based early stopping, serial vs all-core, then
/// cold-cache vs warm-cache replay. Both identity columns compare the
/// complete streamed byte output — the batch layer's determinism contract
/// is that grant scheduling, thread count and cache replay are invisible
/// in the result bytes (see tests/harness/batch_test.cpp for the
/// per-property pins; this is the in-CI end-to-end gate).
BatchNumbers check_batch() {
  // A fixed horizon keeps censored trials cheap, and tol 0.1 converges at
  // a proper prefix of the budget, so the gate exercises early stopping
  // rather than just exhaustion.
  std::vector<rh::BatchSpec> specs;
  for (const std::string family : {"csr", "ignp", "idgnp churn=0.5", "irgg"})
    for (const std::string protocol : {"alg1", "flooding"})
      for (const char* n : {"256", "512"})
        specs.push_back(rh::parse_batch_spec(
            "protocol=" + protocol + " family=" + family + " n=" + n +
            " trials=48 max-rounds=256 tol=0.1"));

  BatchNumbers b;
  b.specs = specs.size();
  const auto run_with = [&](const rh::BatchOptions& options,
                            rh::BatchStats* stats) {
    std::ostringstream out;
    (void)rh::run_batch(specs, options, out, stats);
    return out.str();
  };

  rh::BatchOptions serial;
  serial.threads = 1;
  rh::BatchStats serial_stats;
  const std::string serial_stream = run_with(serial, &serial_stats);
  b.trials_run = serial_stats.trials_run;
  b.trials_saved = serial_stats.trials_saved;

  rh::BatchOptions parallel;  // threads = 0: harness default schedule
  b.threads_identical = run_with(parallel, nullptr) == serial_stream;

  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() / "radnet_bench_runner_e19";
  std::filesystem::remove_all(cache_dir);
  rh::BatchOptions cached = parallel;
  cached.cache_dir = cache_dir.string();
  const std::string cold_stream = run_with(cached, nullptr);
  const std::string warm_stream = run_with(cached, nullptr);
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
};

/// E20's crash-safety gate: run a small journaled sweep to completion for
/// the reference bytes, fork a child that runs the same sweep under
/// `grant@2:kill` (SIGKILL at the second grant boundary, mid-sweep by
/// construction: tol = 0 forces every spec through multiple grants), then
/// resume in-process from the journal the dead child left behind. The
/// contract under test is the tentpole invariant of the fault-tolerance
/// layer — resume(interrupt(run)) == run, byte-for-byte — plus the weaker
/// torn-output guarantee that whatever the child flushed before dying is a
/// prefix of the uninterrupted stream, never a divergence. Everything runs
/// serially: result bytes are thread-invariant anyway, and the forked child
/// must not depend on pool threads that do not survive fork.
FaultTolNumbers check_faulttol() {
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
  std::ostringstream expect;
  (void)rh::run_batch(specs, base, expect, nullptr);

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
  (void)rh::run_batch(specs, resume, resumed, &stats);
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
  [[nodiscard]] std::uint64_t value() const {
    return hash ^ deliveries ^ (collisions << 1);
  }
};

constexpr radnet::sim::Round kSweepRounds = 64;
constexpr std::uint32_t kSimdN = 1u << 14;

/// Fingerprints kSweepRounds rounds of one backend's deliver() with a fixed
/// transmitter set under scalar and under SIMD dispatch; true iff the two
/// event streams match.
template <class MakeTopology>
bool sweep_identical(const MakeTopology& make_topology,
                     const std::vector<NodeId>& tx,
                     const std::vector<char>& is_tx) {
  const auto fingerprint = [&](radnet::simd::Mode mode) {
    radnet::simd::set_mode(mode);
    auto topo = make_topology();
    FingerprintSink sink;
    for (radnet::sim::Round r = 0; r < kSweepRounds; ++r) {
      topo.begin_round(r);
      topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                   radnet::sim::DeliveryPath::kAuto, std::nullopt,
                   /*collisions_inert=*/false, sink);
    }
    return sink.value();
  };
  return fingerprint(radnet::simd::Mode::kScalar) ==
         fingerprint(radnet::simd::Mode::kAvx2);
}

/// The dense G(n,p) lane classification: k*p ~ 0.8 ln n puts every block
/// on the vectorised plain path (q well above 0.5).
bool dense_classify_identical(std::uint32_t n) {
  const double p = 8.0 * std::log(n) / n;
  std::vector<NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (NodeId v = 0; v < n / 10; ++v) {
    tx.push_back(v * 7 % n);
    is_tx[tx.back()] = 1;
  }
  return sweep_identical(
      [&] {
        return radnet::sim::ImplicitGnpTopology(
            radnet::sim::ImplicitGnp{n, p, Rng(91)});
      },
      tx, is_tx);
}

/// The RGG distance-mask scan: mean degree 64 with half the nodes
/// transmitting keeps every cell populated, so the scan (not the
/// bucketing) dominates.
bool rgg_distance_identical(std::uint32_t n) {
  const double radius = std::sqrt(64.0 / (3.141592653589793 * n));
  std::vector<NodeId> tx;
  std::vector<char> is_tx(n, 0);
  for (NodeId v = 0; v < n; v += 2) {
    tx.push_back(v);
    is_tx[v] = 1;
  }
  return sweep_identical(
      [&] {
        return radnet::sim::ImplicitRggTopology(
            radnet::sim::ImplicitRgg{n, radius, radius / 8.0, Rng(92)});
      },
      tx, is_tx);
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

}  // namespace

int main(int argc, char** argv) {
  radnet::CliArgs args = [&] {
    try {
      return radnet::CliArgs(argc, argv, {"out"});
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      std::exit(2);
    }
  }();
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  // The dispatch mode the process resolved at startup (RADNET_SIMD env or
  // CPUID) — recorded in the host block; every check below except the
  // explicit scalar-vs-SIMD sweeps runs under it.
  const radnet::simd::Mode host_mode = radnet::simd::active_mode();
  const unsigned pool_threads = radnet::global_pool().size();
  const auto verdict = [](bool ok) {
    return ok ? "bit-identical" : "DIVERGED";
  };

  std::vector<Gate> gates;

  std::vector<ScalingRow> scaling = scaling_rows();
  for (ScalingRow& row : scaling) {
    check_scaling(row);
    std::cout << row.name << " (" << row.spec.protocol << " on "
              << rh::batch_family_name(row.spec.family) << ") n="
              << row.spec.n << ", serial vs " << pool_threads
              << " threads: ";
    if (row.stranded_fraction.has_value())
      std::cout << "stranded " << *row.stranded_fraction << ", ";
    std::cout << verdict(row.identical) << "\n";
    gates.push_back({row.name, row.identical,
                     "serial and all-core runs of trial 0 diverged — "
                     "determinism bug"});
  }

  const BatchNumbers e19 = check_batch();
  std::cout << "batch sweep service (E19) " << e19.specs << " specs: "
            << e19.trials_run << " trials run, " << e19.trials_saved
            << " saved by early stopping, "
            << verdict(e19.threads_identical && e19.cached_identical) << "\n";
  gates.push_back({"e19_threads", e19.threads_identical,
                   "batch serial-vs-parallel streams diverged — the grant "
                   "schedule leaked thread count into the results"});
  gates.push_back({"e19_cached", e19.cached_identical,
                   "batch cached result diverged from the cold run for the "
                   "same spec hash — cache replay broke byte-identity"});

  const FaultTolNumbers e20 = check_faulttol();
  std::cout << "crash-safe sweep (E20) " << e20.specs << " specs: child "
            << (e20.kill_confirmed ? "SIGKILLed mid-flight" : "NOT KILLED")
            << ", " << e20.journal_trials << " trials + "
            << e20.journal_results << " results replayed from the journal, "
            << verdict(e20.partial_prefix && e20.resumed_identical) << "\n";
  gates.push_back({"e20_kill", e20.kill_confirmed,
                   "the injected SIGKILL never fired — the grant-boundary "
                   "fault hook is dead"});
  gates.push_back({"e20_prefix", e20.partial_prefix,
                   "the torn partial output is not a byte-prefix of the "
                   "uninterrupted stream"});
  gates.push_back({"e20_resume", e20.resumed_identical,
                   "the resumed stream differs from the uninterrupted run — "
                   "resume(interrupt(run)) != run"});

  // On hosts without AVX2 set_mode degrades to scalar, so the SIMD gates
  // pass trivially; cpu_avx2 in the host block records which case ran.
  const bool dense_identical = dense_classify_identical(kSimdN);
  const bool rgg_identical = rgg_distance_identical(kSimdN);
  const bool lanes_identical = lane_streams_identical();
  radnet::simd::set_mode(host_mode);
  const bool e13_identical = lanes_identical && dense_identical && rgg_identical;
  std::cout << "SIMD sweeps (E13) dense and rgg n=" << kSimdN << ": "
            << verdict(e13_identical) << "\n";
  gates.push_back({"e13_lanes", lanes_identical,
                   "the dispatched lane-RNG stream diverged from its scalar "
                   "reference"});
  gates.push_back({"e13_dense", dense_identical,
                   "dense classification events diverged between scalar and "
                   "SIMD dispatch"});
  gates.push_back({"e13_rgg", rgg_identical,
                   "RGG distance-scan events diverged between scalar and "
                   "SIMD dispatch"});

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  const auto flag = [](bool b) { return b ? "true" : "false"; };
  out << "{\n  \"schema\": \"radnet-bench-engine-v11\",\n  \"host\": {"
      << "\"hardware_concurrency\": "
      << std::max(1u, std::thread::hardware_concurrency())
      << ", \"pool_threads\": " << pool_threads
      << ", \"simd\": \"" << radnet::simd::mode_name(host_mode)
      << "\", \"cpu_avx2\": " << flag(radnet::simd::cpu_has_avx2()) << "},\n"
      << "  \"thread_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& row = scaling[i];
    out << "    {\"name\": \"" << row.name << "\", \"protocol\": \""
        << row.spec.protocol << "\", \"family\": \""
        << rh::batch_family_name(row.spec.family) << "\", \"n\": "
        << row.spec.n
        << ", \"max_rounds\": " << row.spec.resolved_max_rounds()
        << ", \"identical\": " << flag(row.identical);
    if (row.stranded_fraction.has_value())
      out << ", \"stranded_fraction\": " << *row.stranded_fraction;
    out << (i + 1 < scaling.size() ? "},\n" : "}\n");
  }
  out << "  ],\n  \"e19_batch\": {\"specs\": " << e19.specs
      << ", \"trials_run\": " << e19.trials_run
      << ", \"trials_saved\": " << e19.trials_saved
      << ", \"threads_identical\": " << flag(e19.threads_identical)
      << ", \"cached_identical\": " << flag(e19.cached_identical) << "},\n"
      << "  \"e20_faulttol\": {\"specs\": " << e20.specs
      << ", \"kill_confirmed\": " << flag(e20.kill_confirmed)
      << ", \"partial_prefix\": " << flag(e20.partial_prefix)
      << ", \"resumed_identical\": " << flag(e20.resumed_identical)
      << ", \"journal_trials\": " << e20.journal_trials
      << ", \"journal_results\": " << e20.journal_results << "},\n"
      << "  \"e13_simd\": {\"dense_n\": " << kSimdN << ", \"rgg_n\": "
      << kSimdN << ", \"identical\": " << flag(e13_identical) << "},\n"
      << "  \"gates\": [\n";
  for (std::size_t i = 0; i < gates.size(); ++i)
    out << "    {\"name\": \"" << gates[i].name
        << "\", \"ok\": " << flag(gates[i].ok)
        << (i + 1 < gates.size() ? "},\n" : "}\n");
  out << "  ]\n}\n";
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
