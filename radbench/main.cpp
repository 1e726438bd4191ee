// radbench: the radnet benchmark program.
//
//   radbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see radbench/README.md for why each was chosen):
//   bcast-ignp     Algorithm 1 on implicit G(n,p), n = 2^22, one trial
//   gossip-idgnp   gossip marginal on implicit dynamic G(n,p), churn 0.5
//   mobility-irgg  gossip marginal on the implicit mobility RGG, 32 rounds
//   sweep-batch    run_batch over a 32-spec mix, cache off
//
// --trace 0 measures the end-to-end metrics (solve_s, setup_s,
// peak_rss_mb) with tracing off. --trace 1 is the separate traced run: it
// reports the per-layer metrics from the decorator, the shadow backend and
// the batch re-runs (radbench.hpp). Either way the last line of stdout is
// one JSON object {correct, attempted, failed, metrics}; the exit code is 1
// when any output check failed and 2 on a usage error.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "radbench.hpp"

namespace radbench {
namespace {

// ------------------------------------------------------------- report ---

/// Per-layer metrics, in output order, with their units. Every traced run
/// prints all of them; a metric whose layer the workload does not run reads
/// 0 (README.md lists which workload each one belongs to).
const std::vector<std::pair<std::string, std::string>> kPerLayerMetrics = {
    {"core.transmit_s", "s"},         {"core.commit_s", "s"},
    {"core.complete_s", "s"},         {"core.transmitters", "count"},
    {"core.callbacks", "count"},      {"core.attentive_ratio", "ratio"},
    {"engine.rounds", "count"},       {"engine.round_p50_s", "s"},
    {"engine.round_tail_s", "s"},     {"engine.deliver_s", "s"},
    {"engine.merge_s", "s"},
    {"ignp.deliver_s", "s"},          {"ignp.deliver_speedup", "ratio"},
    {"idgnp.begin_round_s", "s"},     {"idgnp.deliver_s", "s"},
    {"idgnp.sketch_size", "count"},   {"idgnp.deliver_speedup", "ratio"},
    {"irgg.begin_round_s", "s"},      {"irgg.bucket_s", "s"},
    {"irgg.deliver_s", "s"},          {"irgg.deliver_speedup", "ratio"},
    {"sharding.speedup", "ratio"},    {"batch.parse_s", "s"},
    {"batch.trials_run", "count"},    {"batch.trials_saved", "count"},
    {"batch.trials_per_s", "1/s"},    {"mc.csr_s", "s"},
    {"mc.ignp_s", "s"},               {"mc.idgnp_s", "s"},
    {"mc.irgg_s", "s"},               {"batch.overhead_s", "s"},
    {"host.spin_s", "s"},             {"host.stream_gbps", "GB/s"},
    {"trace.overhead", "ratio"},
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< run-level checks outside the counted samples
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records one counted sample and whether all of its output checks held.
  void sample(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "radbench: output check failed: " << what << "\n";
    }
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      checks_ok = false;
      std::cerr << "radbench: output check failed: " << what << "\n";
    }
  }
  [[nodiscard]] bool correct() const { return failed == 0 && checks_ok; }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const Report& r) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
         ", \"unit\": \"" + vu.second + "\"}";
  }
  return s + "}";
}

void print_report(const Report& r) {
  std::cout << "{\"correct\": " << (r.correct() ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(r) << "}" << std::endl;
}

// ---------------------------------------------------------- statistics ---

double median(std::vector<double> v) {
  RADNET_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <class F>
double time_call(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Repeats `once` (which returns its own duration) at least `min_samples`
/// and at most `max_samples` times; past the minimum, a sample starts only
/// if one more of median length still ends within `budget_s`.
template <class F>
std::vector<double> repeat_for(double budget_s, std::size_t min_samples,
                               std::size_t max_samples, F&& once) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (out.size() < max_samples &&
         (out.size() < min_samples ||
          seconds_between(start, Clock::now()) + median(out) <= budget_s))
    out.push_back(once());
  return out;
}

void log_samples(const std::string& what, const std::vector<double>& v) {
  std::cerr << "radbench: " << what << " samples (s):";
  for (const double x : v) std::cerr << " " << json_number(x);
  std::cerr << "\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------- host probe ---

/// A fixed dependent integer loop: its time moves with the host (steal,
/// frequency), never with radnet.
double host_spin_s() {
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    volatile std::uint64_t sink = 0;
    t.push_back(time_call([&] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<unsigned>(rep);
      for (int i = 0; i < (1 << 25); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink = x;
    }));
    (void)sink;
  }
  return median(t);
}

/// A fixed single-threaded memory stream: b = a * s + c over two 64 MiB
/// arrays; GB/s counts the bytes read plus the bytes written.
double host_stream_gbps() {
  constexpr std::size_t kWords = std::size_t{8} << 20;  // 64 MiB of doubles
  std::vector<double> a(kWords, 1.0), b(kWords, 0.0);
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = 1.0 + 1e-9 * rep;
    t.push_back(time_call([&] {
      for (std::size_t i = 0; i < kWords; ++i) b[i] = a[i] * s + 0.5;
    }));
    a.swap(b);
  }
  volatile double keep = a[kWords / 2];
  (void)keep;
  return 2.0 * kWords * sizeof(double) / median(t) / 1e9;
}

// ------------------------------------------------------------ workloads ---

struct SingleTrialWorkload {
  std::string name;
  std::string spec;  ///< spec line without the seed
  bool broadcast_checks = false;  ///< completes, <= 1 transmission per node
  sim::Round fixed_rounds = 0;    ///< nonzero: the run must execute these
};

const std::vector<SingleTrialWorkload>& single_trial_workloads() {
  static const std::vector<SingleTrialWorkload> w = {
      {"bcast-ignp", "protocol=alg1 family=ignp n=4194304 delta=8", true, 0},
      {"gossip-idgnp",
       "protocol=alg2m family=idgnp churn=0.5 n=524288 delta=8 max-rounds=48",
       false, 48},
      {"mobility-irgg", "protocol=alg2m family=irgg n=1048576 max-rounds=32",
       false, 32},
  };
  return w;
}

/// Within-trial thread knob of the single-trial workloads: 0, the user
/// default (every core of the shared pool).
constexpr unsigned kTrialThreads = 0;

harness::McSpec lower(const std::string& line) {
  return harness::parse_batch_spec(line).to_mc_spec();
}

std::string with_seed(const std::string& spec, std::uint64_t seed) {
  return spec + " seed=" + std::to_string(seed);
}

/// The checks every solved trial must pass besides equality with the
/// run's first result.
bool trial_output_ok(const SingleTrialWorkload& w, const sim::RunResult& r) {
  if (w.broadcast_checks)  // Theorem 2.1: completes, <= 1 tx per node
    return r.completed && r.ledger.max_tx_per_node() <= 1;
  if (w.fixed_rounds != 0)  // the horizon, or completion before it
    return r.rounds_executed == w.fixed_rounds || r.completed;
  return r.completed;
}

/// Engine::run with max_rounds = 0: topology construction, protocol
/// reset, ledger and per-node vectors. Median of repeated set-ups.
double single_trial_setup_s(const harness::McSpec& mc) {
  return median(repeat_for(1.5, 7, 301, [&] {
    return time_call([&] { (void)run_bare_trial(mc, kTrialThreads, 0); });
  }));
}

void untraced_single_trial(const SingleTrialWorkload& w, std::uint64_t seed,
                           double seconds, Report& rep) {
  const std::string line = with_seed(w.spec, seed);
  const double setup = single_trial_setup_s(lower(line));

  const sim::RunResult first = run_bare_trial(lower(line), kTrialThreads);
  rep.check(trial_output_ok(w, first), w.name + " warm-up trial");
  const std::vector<double> solve = repeat_for(seconds, 3, 1000, [&] {
    sim::RunResult r;
    const double t =
        time_call([&] { r = run_bare_trial(lower(line), kTrialThreads); });
    rep.sample(r == first && trial_output_ok(w, r),
               w.name + " sample " + std::to_string(rep.attempted + 1));
    return t;
  });
  log_samples("solve", solve);
  rep.add("solve_s", median(solve), "s");
  rep.add("setup_s", setup, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-round time at the highest percentile with at least ten rounds
/// beyond it, and that percentile; zeros below eleven rounds.
std::pair<double, double> round_tail(std::vector<double> rounds) {
  if (rounds.size() < 11) return {0.0, 0.0};
  std::sort(rounds.begin(), rounds.end());
  const std::size_t idx = rounds.size() - 11;
  return {rounds[idx], std::floor(100.0 * static_cast<double>(idx + 1) /
                                  static_cast<double>(rounds.size()))};
}

/// Per-layer values of one traced run: every metric's per-cycle values,
/// reported as their median.
using LayerSamples = std::map<std::string, std::vector<double>>;

LayerSamples traced_single_trial(const SingleTrialWorkload& w,
                                 std::uint64_t seed, double seconds,
                                 Report& rep) {
  const std::string line = with_seed(w.spec, seed);
  const harness::McSpec mc = lower(line);
  const sim::RunResult first = run_bare_trial(mc, kTrialThreads);
  rep.check(trial_output_ok(w, first), w.name + " warm-up trial");
  const std::string fam = with_backend_spec(mc, [](const auto& spec) {
    return std::string(Backend<std::decay_t<decltype(spec)>>::kFamily);
  });

  LayerSamples m;
  std::size_t cycle = 0;
  log_samples("cycle", repeat_for(seconds, 1, 1000, [&] {
    const Clock::time_point cycle_start = Clock::now();
    ++cycle;
    const std::string tag = w.name + " cycle " + std::to_string(cycle);
    sim::RunResult par, ser;
    const double par_s =
        time_call([&] { par = run_bare_trial(mc, kTrialThreads); });
    const TracedTrial tp = run_traced_trial(mc, kTrialThreads);
    const double ser_s = time_call([&] { ser = run_bare_trial(mc, 1); });
    const TracedTrial ts = run_traced_trial(mc, 1);

    std::string why;
    if (par != first) why += "; untraced trial differs from the first";
    if (tp.result != first) why += "; decorated trial differs from the bare";
    if (ser != first || ts.result != first)
      why += "; serial trial differs from the parallel trial";
    if (!shadow_matches_ledger(tp) || !shadow_matches_ledger(ts))
      why += "; shadow totals differ from the ledger totals";
    if (tp.core.transmitters != first.ledger.total_transmissions)
      why += "; decorator transmitter count differs from the ledger";
    rep.sample(why.empty(), tag + why);

    const CoreTrace& c = tp.core;
    m["core.transmit_s"].push_back(c.transmit_s);
    m["core.commit_s"].push_back(c.commit_s);
    m["core.complete_s"].push_back(c.complete_s);
    m["core.transmitters"].push_back(static_cast<double>(c.transmitters));
    m["core.callbacks"].push_back(static_cast<double>(c.callbacks));
    // Base: every delivery the ledger counted, bulk folds included.
    m["core.attentive_ratio"].push_back(
        static_cast<double>(c.callbacks) /
        static_cast<double>(std::max<std::uint64_t>(
            1, first.ledger.total_deliveries)));
    m["engine.rounds"].push_back(static_cast<double>(c.round_s.size()));
    m["engine.round_p50_s"].push_back(median(c.round_s));
    const auto [tail_s, tail_pct] = round_tail(c.round_s);
    m["engine.round_tail_s"].push_back(tail_s);
    std::cerr << "radbench: " << tag << ": engine.round_tail_s is p"
              << tail_pct << " of " << c.round_s.size() << " rounds\n";
    m["engine.deliver_s"].push_back(c.deliver_s);
    m["engine.merge_s"].push_back(c.deliver_s - tp.shadow.begin_round_s -
                                  tp.shadow.deliver_s);
    m[fam + ".deliver_s"].push_back(tp.shadow.deliver_s);
    m[fam + ".deliver_speedup"].push_back(ts.shadow.deliver_s /
                                          tp.shadow.deliver_s);
    if (fam != "ignp")
      m[fam + ".begin_round_s"].push_back(tp.shadow.begin_round_s);
    if (fam == "idgnp")
      m["idgnp.sketch_size"].push_back(
          static_cast<double>(tp.shadow.max_sketch_size));
    if (fam == "irgg") m["irgg.bucket_s"].push_back(tp.shadow.bucket_s);
    m["sharding.speedup"].push_back(ser_s / par_s);
    m["trace.overhead"].push_back((tp.wall_s - c.shadow_s) / par_s);
    return seconds_between(cycle_start, Clock::now());
  }));
  return m;
}

// -------------------------------------------------------- sweep-batch ---

/// The sweep mix at n in {256, 1024}, every spec seeded with the run's
/// seed: 32 specs of 64 trials each. tol=0 grants every trial (on the usual
/// doubling schedule): with early stopping the granted counts jump in
/// doubling steps with the seed, which moved the sweep's work by +-7% from
/// seed to seed.
std::string sweep_spec_text(std::uint64_t seed) {
  return sweep_mix_text({256, 1024}, 64, "0", seed);
}
constexpr std::size_t kSweepSpecs = 32;
constexpr unsigned kSweepPoolThreads = 2;

std::vector<harness::BatchSpec> parse_specs(const std::string& text) {
  std::istringstream in(text);
  return harness::parse_batch_file(in);
}

struct BatchRun {
  std::string bytes;
  std::vector<harness::BatchOutcome> outcomes;
  harness::BatchStats stats;
};

BatchRun run_sweep(const std::vector<harness::BatchSpec>& specs) {
  BatchRun out;
  harness::BatchOptions opts;  // cache off, harness thread schedule
  std::ostringstream os;
  out.outcomes = harness::run_batch(specs, opts, os, &out.stats);
  out.bytes = os.str();
  return out;
}

bool sweep_output_ok(const BatchRun& r) {
  std::size_t lines = 0;
  std::istringstream in(r.bytes);
  for (std::string line; std::getline(in, line); ++lines)
    if (line.find("\"error\"") != std::string::npos) return false;
  return lines == kSweepSpecs && r.stats.spec_errors == 0;
}

/// Parse, validate, hash and lower the whole spec file: per-pass time,
/// median over samples of at least 50 ms of repeated passes.
double sweep_setup_s(const std::string& text) {
  std::vector<double> per_pass;
  for (int s = 0; s < 15; ++s) {
    std::size_t passes = 0;
    const double t = time_call([&] {
      const Clock::time_point t0 = Clock::now();
      do {
        for (const harness::BatchSpec& spec : parse_specs(text)) {
          (void)spec.hash();
          (void)spec.to_mc_spec();
        }
        ++passes;
      } while (seconds_between(t0, Clock::now()) < 0.05);
    });
    per_pass.push_back(t / static_cast<double>(passes));
  }
  return median(per_pass);
}

void untraced_sweep(std::uint64_t seed, double seconds, Report& rep) {
  const std::string text = sweep_spec_text(seed);
  const double setup = sweep_setup_s(text);

  const BatchRun first = run_sweep(parse_specs(text));
  rep.check(sweep_output_ok(first), "sweep-batch warm-up output");
  const std::vector<double> solve = repeat_for(seconds, 3, 1000, [&] {
    BatchRun r;
    const double t = time_call([&] { r = run_sweep(parse_specs(text)); });
    rep.sample(r.bytes == first.bytes && sweep_output_ok(r),
               "sweep-batch sample " + std::to_string(rep.attempted + 1));
    return t;
  });
  log_samples("solve", solve);
  rep.add("solve_s", median(solve), "s");
  rep.add("setup_s", setup, "s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
}

LayerSamples traced_sweep(std::uint64_t seed, double seconds, Report& rep) {
  const std::string text = sweep_spec_text(seed);
  LayerSamples m;
  m["batch.parse_s"].push_back(median(repeat_for(0.5, 15, 100000, [&] {
    return time_call([&] { (void)parse_specs(text); });
  })));

  const std::vector<harness::BatchSpec> specs = parse_specs(text);
  const BatchRun first = run_sweep(specs);
  rep.check(sweep_output_ok(first), "sweep-batch warm-up output");

  std::size_t cycle = 0;
  log_samples("cycle", repeat_for(seconds, 1, 1000, [&] {
    const Clock::time_point cycle_start = Clock::now();
    ++cycle;
    const std::string tag = "sweep-batch cycle " + std::to_string(cycle);
    BatchRun r;
    const double solve = time_call([&] { r = run_sweep(specs); });
    std::string why;
    if (r.bytes != first.bytes || !sweep_output_ok(r))
      why += "; batch bytes differ from the first run";
    // The sweep has no decorator: its layers are timed by the re-runs
    // below, outside run_batch, so tracing adds nothing to its time.
    m["trace.overhead"].push_back(1.0);

    // Each family's granted trials re-run in one range call: the trial
    // work alone, without the grant schedule.
    std::map<harness::BatchFamily, double> family_s;
    bool rerun_ok = true;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const harness::BatchOutcome& o = r.outcomes[i];
      const harness::McSpec mc = specs[i].to_mc_spec();
      harness::McResult acc;
      family_s[specs[i].family] += time_call([&] {
        harness::run_monte_carlo_range(mc, 0, o.trials_granted, acc);
      });
      rerun_ok = rerun_ok && harness::batch_result_json(specs[i], acc,
                                                        o.trials_granted,
                                                        o.converged) == o.json;
    }
    if (!rerun_ok) why += "; re-run trials differ from the batch lines";
    rep.sample(why.empty(), tag + why);

    double mc_total = 0.0;
    for (const auto& [family, s] : family_s) {
      m[std::string("mc.") + harness::batch_family_name(family) + "_s"]
          .push_back(s);
      mc_total += s;
    }
    m["batch.overhead_s"].push_back(solve - mc_total);
    m["batch.trials_run"].push_back(static_cast<double>(r.stats.trials_run));
    m["batch.trials_saved"].push_back(
        static_cast<double>(r.stats.trials_saved));
    m["batch.trials_per_s"].push_back(
        static_cast<double>(r.stats.trials_run) / solve);
    return seconds_between(cycle_start, Clock::now());
  }));
  return m;
}

// ----------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1))
    throw std::invalid_argument(
        "usage: radbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  return a;
}

int run(const Args& a) {
  const SingleTrialWorkload* single = nullptr;
  for (const SingleTrialWorkload& w : single_trial_workloads())
    if (w.name == a.workload) single = &w;
  if (single == nullptr && a.workload != "sweep-batch")
    throw std::invalid_argument("unknown workload " + a.workload);

  // The shared pool is sized from RADNET_THREADS on first use. The
  // single-trial workloads run on the user default, every core. The sweep
  // runs on a 2-thread pool: on a 4-core host with other tenants, its
  // 4-thread samples swung by up to 27% between runs, because stragglers
  // stall every grant boundary.
  if (single != nullptr)
    unsetenv("RADNET_THREADS");
  else
    setenv("RADNET_THREADS", std::to_string(kSweepPoolThreads).c_str(), 1);

  Report rep;
  if (a.trace == 0) {
    if (single != nullptr)
      untraced_single_trial(*single, a.seed, a.seconds, rep);
    else
      untraced_sweep(a.seed, a.seconds, rep);
    // The host probe runs after the RSS high-water mark was read; it goes
    // to stderr so every run records it.
    std::cerr << "radbench: host {\"host.spin_s\": "
              << json_number(host_spin_s()) << ", \"host.stream_gbps\": "
              << json_number(host_stream_gbps()) << "}\n";
  } else {
    LayerSamples m = single != nullptr
                         ? traced_single_trial(*single, a.seed, a.seconds, rep)
                         : traced_sweep(a.seed, a.seconds, rep);
    m["host.spin_s"].push_back(host_spin_s());
    m["host.stream_gbps"].push_back(host_stream_gbps());
    for (const auto& [name, unit] : kPerLayerMetrics) {
      const auto it = m.find(name);
      rep.add(name, it == m.end() ? 0.0 : median(it->second), unit);
    }
  }
  print_report(rep);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace radbench

int main(int argc, char** argv) {
  radbench::Args args;
  try {
    args = radbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "radbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return radbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "radbench: " << e.what() << "\n";
    return 1;
  }
}
