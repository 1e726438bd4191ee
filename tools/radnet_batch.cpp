// radnet_batch — batched many-query Monte-Carlo sweeps over spec files.
//
//   radnet_batch --specs sweep.specs
//   radnet_batch --specs sweep.specs --cache /tmp/radnet-cache --threads 8
//   radnet_batch --specs - < sweep.specs          (read specs from stdin)
//   radnet_batch --specs sweep.specs --force-full (diagnostic: no early stop)
//   radnet_batch --specs sweep.specs --journal run.journal --out results.jsonl
//                --resume                         (continue a killed run)
//
// The spec file holds one query per line as whitespace-separated key=value
// tokens (`#` starts a comment, blank lines are skipped), e.g.:
//
//   protocol=alg1  family=ignp  n=4096 delta=8 trials=256 seed=7
//   protocol=alg2m family=idgnp n=2048 churn=0.5 fail-prob=0.0001 tol=0.02
//   protocol=eg2005 family=irgg n=1024 radius-mult=2 step=0.125 jammers=0.05
//
// Keys: protocol family n p delta q churn fail-prob p-amp p-period
//       radius-mult step source diameter lambda trials seed max-rounds tol
//       confidence jammers byzantine energy-budget fault-schedule
//       (defaults and semantics: harness/batch.hpp; protocols: any name in
//       harness/protocols.hpp)
//
// Each converged spec prints one JSON line (to --out, default stdout) in
// deterministic family-major order, streamed as results settle; progress
// counters go to stderr. The output bytes are identical at any --threads
// value and cold vs warm cache (see README "Batched sweeps").
//
// Crash safety: with --journal, every grant and result is append-logged
// with per-record checksums; SIGINT/SIGTERM stop the run cleanly at the
// next grant boundary (exit 75, journal committed), and --resume replays
// the committed prefix and continues, re-emitting the COMPLETE stream —
// byte-identical to an uninterrupted run — which is why a resumed run
// truncates --out rather than appending to a possibly-torn partial file.
// --isolate forks each spec into a watchdogged child (crashing or wedged
// specs degrade into structured "error" JSON lines; see README "Fault
// tolerance & resume").
//
// A malformed spec line fails the whole run before any trial, naming the
// line and key. Exit: 0 on success, 1 on any error, 75 interrupted by a
// signal or cancel (resumable).
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/batch.hpp"
#include "support/cli_args.hpp"
#include "support/require.hpp"

namespace {

// Written by the signal handlers, polled by run_batch at grant boundaries:
// the first Ctrl-C finishes the in-flight grant, commits the journal and
// exits 75 instead of tearing the run mid-write.
std::atomic<bool> g_cancel{false};

extern "C" void handle_signal(int) { g_cancel.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace radnet;
  try {
    const CliArgs args(argc, argv,
                       {"specs", "cache", "no-cache", "threads", "force-full",
                        "min-grant", "journal", "resume", "out", "isolate",
                        "isolate-attempts", "isolate-timeout-ms",
                        "isolate-mem-mb", "help"});
    if (args.get_bool("help", false) || argc == 1) {
      std::cout
          << "usage: radnet_batch --specs FILE|-   spec file ('-' = stdin)\n"
             "                    [--cache DIR]    result cache directory\n"
             "                    (default .radnet_batch_cache)\n"
             "                    [--no-cache]     disable the disk cache\n"
             "                    [--threads K]    1 serial, 0 harness pick,\n"
             "                    k k-thread round sweeps; output bytes are\n"
             "                    identical for every value\n"
             "                    [--force-full]   run every trial (no early\n"
             "                    stopping, cache bypassed)\n"
             "                    [--min-grant G]  first grant quantum\n"
             "                    [--journal FILE] checksummed run journal\n"
             "                    (enables clean SIGINT/SIGTERM stop + resume)\n"
             "                    [--resume]       replay the journal's\n"
             "                    committed prefix and continue the sweep;\n"
             "                    re-emits the complete stream (truncates\n"
             "                    --out), byte-identical to an uninterrupted\n"
             "                    run; requires --journal\n"
             "                    [--out FILE]     result stream destination\n"
             "                    (default stdout; truncated on open)\n"
             "                    [--isolate]      fork each spec into a\n"
             "                    watchdogged child; crashed/hung specs emit\n"
             "                    structured \"error\" lines after retries\n"
             "                    [--isolate-attempts N]   default 3\n"
             "                    [--isolate-timeout-ms T] default 300000\n"
             "                    [--isolate-mem-mb M]     RLIMIT_AS cap,\n"
             "                    default unlimited\n"
             "exit codes: 0 ok, 1 error, 75 interrupted (resumable)\n"
             "spec lines: key=value tokens; see tools/radnet_batch.cpp "
             "header\n";
      return 0;
    }

    const std::string specs_path = args.get_string("specs", "");
    RADNET_REQUIRE(!specs_path.empty(), "--specs FILE is required");
    std::vector<harness::BatchSpec> specs;
    if (specs_path == "-") {
      specs = harness::parse_batch_file(std::cin);
    } else {
      std::ifstream in(specs_path);
      RADNET_REQUIRE(static_cast<bool>(in),
                     "cannot open spec file '" + specs_path + "'");
      specs = harness::parse_batch_file(in);
    }
    RADNET_REQUIRE(!specs.empty(), "spec file holds no specs");

    harness::BatchOptions options;
    options.cache_dir = args.get_bool("no-cache", false)
                            ? std::string()
                            : args.get_string("cache", ".radnet_batch_cache");
    options.force_full = args.get_bool("force-full", false);
    const std::uint64_t threads = args.get_u64("threads", 0);
    RADNET_REQUIRE(threads <= 4096, "--threads must be <= 4096");
    options.threads = static_cast<unsigned>(threads);
    const std::uint64_t min_grant = args.get_u64("min-grant", 16);
    RADNET_REQUIRE(min_grant >= 1 && min_grant <= harness::McSpec::kMaxTrials,
                   "--min-grant is out of range");
    options.min_grant = static_cast<std::uint32_t>(min_grant);

    options.journal_path = args.get_string("journal", "");
    options.resume = args.get_bool("resume", false);
    RADNET_REQUIRE(!options.resume || !options.journal_path.empty(),
                   "--resume requires --journal FILE");
    options.isolate = args.get_bool("isolate", false);
    const std::uint64_t attempts = args.get_u64("isolate-attempts", 3);
    RADNET_REQUIRE(attempts >= 1 && attempts <= 100,
                   "--isolate-attempts must be in [1, 100]");
    options.isolate_attempts = static_cast<std::uint32_t>(attempts);
    const std::uint64_t timeout_ms = args.get_u64("isolate-timeout-ms", 300'000);
    RADNET_REQUIRE(timeout_ms <= 86'400'000,
                   "--isolate-timeout-ms must be <= 86400000");
    options.isolate_timeout_ms = static_cast<std::uint32_t>(timeout_ms);
    options.isolate_mem_bytes = args.get_u64("isolate-mem-mb", 0) << 20;
    options.cancel = &g_cancel;

    // Journaled runs stop cleanly on the usual terminal signals; without a
    // journal there is nothing to commit, so default signal disposition
    // (immediate death) is the honest behaviour.
    if (!options.journal_path.empty()) {
      std::signal(SIGINT, handle_signal);
      std::signal(SIGTERM, handle_signal);
    }

    // Result lines stream as specs converge; line-buffered so a consumer
    // sees whole JSON records. A resumed run re-emits the complete stream,
    // so --out opens truncating — never appending to a torn partial file.
    const std::string out_path = args.get_string("out", "");
    std::ofstream out_file;
    if (!out_path.empty()) {
      out_file.open(out_path, std::ios::binary | std::ios::trunc);
      RADNET_REQUIRE(static_cast<bool>(out_file),
                     "cannot open output file '" + out_path + "'");
    }
    std::ostream& out = out_path.empty() ? std::cout : out_file;

    harness::BatchStats stats;
    const auto outcomes = harness::run_batch(specs, options, out, &stats);
    out.flush();
    RADNET_REQUIRE(static_cast<bool>(out), "writing the result stream failed");
    std::uint32_t converged = 0;
    for (const auto& o : outcomes) converged += o.converged ? 1 : 0;
    std::cerr << "radnet_batch: " << stats.specs << " specs, " << converged
              << " converged, " << stats.cache_hits << " cache hits, "
              << stats.trials_run << " trials run, " << stats.trials_saved
              << " trials saved by early stopping/cache";
    if (stats.journal_trials > 0 || stats.journal_results > 0)
      std::cerr << ", " << stats.journal_trials << " trials + "
                << stats.journal_results << " results replayed from journal";
    if (stats.cache_quarantined > 0)
      std::cerr << ", " << stats.cache_quarantined
                << " corrupt cache entries quarantined";
    if (stats.spec_errors > 0)
      std::cerr << ", " << stats.spec_errors << " spec errors";
    std::cerr << "\n";
    if (stats.interrupted) {
      std::cerr << "radnet_batch: interrupted — journal committed, rerun "
                   "with --resume to finish\n";
      return 75;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "radnet_batch: " << e.what() << "\n";
    return 1;
  }
}
