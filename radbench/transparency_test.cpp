// Transparency checks for radbench's traced run, at small n:
//
//   1. The decorator leaves the RunResult byte-identical: on every
//      workload's spec, and on every protocol x family pair of the
//      sweep-batch mix, the TracingProtocol-wrapped run equals the bare run
//      at 1 and 4 threads.
//   2. The shadow backend saw the engine's exact inputs: its delivery and
//      collision totals, bulk folds included, equal the run's ledger
//      totals.
//   3. The sweep's per-family re-runs reproduce run_batch's result lines.
//
// Build and run: cmake --build .bench_build/radbench --target
// radbench_transparency_test && .bench_build/radbench/radbench_transparency_test
// (or ctest in that build directory). Exit code 0 iff every check holds.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "radbench.hpp"

namespace radbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

/// Decorated-vs-bare equality on a CSR trial (no shadow: the explicit
/// family is exercised by the sweep only).
void check_csr(const harness::McSpec& mc, unsigned threads,
               const std::string& tag) {
  sim::RunOptions opts = mc.run_options;
  opts.threads = threads;
  const auto g = mc.make_graph(0, Rng(mc.seed).split(0, 0));
  const auto bare_protocol = make_protocol(mc);
  const sim::RunResult bare =
      sim::Engine{}.run(*g, *bare_protocol, protocol_rng(mc), opts);
  const auto inner = make_protocol(mc);
  TracingProtocol traced(*inner, nullptr, opts);
  const sim::RunResult decorated =
      sim::Engine{}.run(*g, traced, protocol_rng(mc), traced.traced_options());
  expect(decorated == bare, tag + ": decorated run differs from bare run");
  expect(traced.trace().round_s.size() == bare.rounds_executed,
         tag + ": round observer missed rounds");
}

void check_implicit(const harness::McSpec& mc, unsigned threads,
                    const std::string& tag) {
  const sim::RunResult bare = run_bare_trial(mc, threads);
  const TracedTrial traced = run_traced_trial(mc, threads);
  expect(traced.result == bare, tag + ": decorated run differs from bare run");
  expect(shadow_matches_ledger(traced),
         tag + ": shadow totals differ from ledger totals (shadow " +
             std::to_string(traced.shadow_totals.deliveries) + "/" +
             std::to_string(traced.shadow_totals.collisions) + ", ledger " +
             std::to_string(bare.ledger.total_deliveries) + "/" +
             std::to_string(bare.ledger.total_collisions) + ")");
  expect(traced.core.transmitters == bare.ledger.total_transmissions,
         tag + ": decorator transmitter count differs from the ledger");
  expect(traced.core.round_s.size() == bare.rounds_executed,
         tag + ": round observer missed rounds");
  expect(bare.ledger.total_deliveries > 0, tag + ": nothing was delivered");
}

void check_spec(const std::string& line) {
  const harness::BatchSpec spec = harness::parse_batch_spec(line);
  const harness::McSpec mc = spec.to_mc_spec();
  for (const unsigned threads : {1u, 4u}) {
    const std::string tag = line + " threads=" + std::to_string(threads);
    if (spec.family == harness::BatchFamily::kCsr)
      check_csr(mc, threads, tag);
    else
      check_implicit(mc, threads, tag);
  }
}

void check_sweep_reruns() {
  std::istringstream in(sweep_mix_text({256}, 32, "0.1", 7));
  const std::vector<harness::BatchSpec> specs = harness::parse_batch_file(in);
  std::ostringstream out;
  const std::vector<harness::BatchOutcome> outcomes =
      harness::run_batch(specs, harness::BatchOptions{}, out);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    harness::McResult acc;
    harness::run_monte_carlo_range(specs[i].to_mc_spec(), 0,
                                   outcomes[i].trials_granted, acc);
    expect(harness::batch_result_json(specs[i], acc, outcomes[i].trials_granted,
                                      outcomes[i].converged) ==
               outcomes[i].json,
           "sweep re-run of spec " + std::to_string(i) +
               " differs from its batch line");
  }
}

}  // namespace
}  // namespace radbench

int main() {
  using radbench::check_spec;
  // The single-trial workloads at small n, three seeds each.
  for (const char* seed : {"1", "2", "3"}) {
    const std::string s = std::string(" seed=") + seed;
    check_spec("protocol=alg1 family=ignp n=8192 delta=8" + s);
    check_spec("protocol=alg2m family=idgnp churn=0.5 n=8192 delta=8" + s);
    check_spec("protocol=alg2m family=irgg n=8192 max-rounds=32" + s);
  }
  // Every protocol x family pair of the sweep-batch mix.
  std::istringstream mix(radbench::sweep_mix_text({256}, 1, "0", 11));
  for (std::string line; std::getline(mix, line);) check_spec(line);
  radbench::check_sweep_reruns();

  if (radbench::failures != 0) {
    std::cerr << radbench::failures << " transparency check(s) failed\n";
    return 1;
  }
  std::cout << "radbench transparency: all checks passed\n";
  return 0;
}
