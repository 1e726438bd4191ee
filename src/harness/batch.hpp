// Batched many-query Monte-Carlo: the engine as a service.
//
// The one-shot harness (monte_carlo.hpp) answers a single
// (protocol, topology, n, p, adversary) question per invocation; serving
// heavy traffic means amortising across thousands of such questions. This
// layer turns specs into data:
//
//   * a BatchSpec is one declarative query — parsed from a `key=value`
//     spec line, defaulted, validated, and canonicalised into a stable
//     64-bit hash (support/hash.hpp) over the resolved field set, so the
//     same question always addresses the same cached answer regardless of
//     key order or spelled-out defaults;
//   * run_batch groups specs by backend family and admits trials
//     incrementally (a deterministic doubling grant schedule per spec,
//     interleaved round-robin within each family group) on the shared
//     global pool;
//   * each spec early-stops as soon as its completion-rate Wilson interval
//     and its completion-rounds median order-statistic interval
//     (support/stats.hpp) are below its tolerance. Because trial t's
//     randomness is keyed on (seed, t) alone — never on the grant schedule
//     or thread count — an early-stopped result is bit-identical to a
//     prefix of the full run (run_monte_carlo_range's contract);
//   * converged results are streamed to the output in deterministic order
//     (family-major, then input order: a spec's line prints as soon as it
//     and every spec before it in that order have converged), so the byte
//     stream is identical at any thread count and cold vs warm cache;
//   * a finished spec's trial outcomes are cached on disk keyed by
//     (spec hash, seed): a repeated query runs no trial, and its line is
//     re-rendered by the batch_result_json a cold run uses. An in-memory
//     memo answers duplicates the same way even with the cache disabled.
//
// The execution layer is crash-safe:
//
//   * cache entries, the run journal and the isolate pipe share one
//     checksummed record format (harness/batch_record.hpp); a cache entry
//     is committed by write-to-temp + rename() (support/io.hpp), and a
//     corrupt, truncated, stale or foreign one is quarantined to
//     `*.quarantine` and treated as a miss — corruption can cost a
//     recompute, never a wrong answer;
//   * with BatchOptions::journal_path set, every grant's (or cache hit's)
//     outcomes and every error line are append-logged; a run killed at any
//     instant resumes
//     (options.resume) by replaying the committed prefix and continuing
//     the doubling schedule mid-spec, and the resumed output stream is
//     byte-identical to an uninterrupted run (trial t is keyed on
//     (seed, t) alone, so recomputed and replayed trials agree bit-for-bit);
//   * options.cancel gives SIGINT/SIGTERM handlers a flag run_batch polls
//     at grant boundaries: the run stops cleanly with the journal
//     committed, ready to resume;
//   * options.isolate runs each spec's grants in a forked, watchdogged
//     child (RLIMIT_AS cap + wall-clock timeout, bounded retry with
//     exponential backoff), so a crashing or wedged spec degrades into a
//     structured `"error"` JSON line while every other spec completes with
//     byte-identical results. In-process, a grant that throws
//     std::bad_alloc degrades the same way (cause "error", one attempt).
//
// batch_spec.cpp holds BatchSpec, batch.cpp the scheduler;
// tools/radnet_batch.cpp is the thin CLI over this layer.
// tests/harness/batch_test.cpp pins the determinism, prefix and cache
// contracts; tests/harness/faultinject_test.cpp pins the crash-safety
// invariant resume(interrupt(run)) == run.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "harness/monte_carlo.hpp"
#include "sim/adversary.hpp"

namespace radnet::harness {

/// Backend family of a batch spec — the scheduler's grouping key (specs of
/// one family share graph-build code paths and cache behaviour).
enum class BatchFamily : std::uint8_t {
  kCsr = 0,              ///< explicit CSR G(n,p), materialised per trial
  kImplicitGnp = 1,      ///< graph-free static G(n,p)
  kImplicitDynamic = 2,  ///< graph-free dynamic G(n,p) (churn / failures)
  kImplicitRgg = 3,      ///< graph-free mobility RGG
};

/// Short name used in spec lines and result JSON ("csr", "ignp", ...).
[[nodiscard]] const char* batch_family_name(BatchFamily family);

/// One declarative Monte-Carlo query. Field defaults ARE the canonical
/// defaults: parse_batch_spec applies them, validate() checks the resolved
/// values, and hash() covers every field below (resolved, not as written),
/// so adding a field here requires a new tag in hash() — never a renumber.
struct BatchSpec {
  /// A name in the protocol table (harness/protocols.hpp).
  std::string protocol = "alg1";
  BatchFamily family = BatchFamily::kImplicitGnp;
  graph::NodeId n = 1024;
  /// Link probability; 0 means "use delta": p = delta * ln(n) / n.
  double p = 0.0;
  double delta = 8.0;
  /// fixed-prob protocol's transmit probability.
  double q = 0.5;
  /// Implicit-dynamic family: per-round link churn in (0, 1] and permanent
  /// radio-failure probability in [0, 1).
  double churn = 1.0;
  double fail_prob = 0.0;
  /// Implicit-RGG family: radio range as a multiple of the connectivity-
  /// threshold radius, and per-round step as a fraction of the range.
  double radius_mult = 2.0;
  double step = 0.125;
  /// idgnp only: p(t) = p * (1 + p_amp * sin(2 pi t / p_period)), clamped
  /// into [0, 1] by the backend; p_amp = 0 keeps p constant.
  double p_amp = 0.0;
  std::uint64_t p_period = 64;
  /// Broadcast / rumor source; an active adversary never attacks it.
  graph::NodeId source = 0;
  /// Hop diameter for the budget, alg3 and cr; 0 = resolved_diameter().
  std::uint64_t diameter = 0;
  /// alg3's lambda; 0 means lambda_of(n, diameter).
  double lambda = 0.0;
  /// Maximum trials; early stopping may grant fewer (never more).
  std::uint32_t trials = 256;
  std::uint64_t seed = 0x5eed;
  /// Per-trial round budget; 0 derives 64 * (D log2 n + log2^2 n) from n
  /// and the resolved diameter D.
  std::uint64_t max_rounds = 0;
  /// Early-stop tolerance: converged once the completion-rate CI half-width
  /// is <= tol AND the rounds-median CI half-width is <= tol * median.
  /// 0 disables early stopping (every trial runs).
  double tol = 0.05;
  double confidence = 0.95;
  /// Adversary scenario (jammers / byzantine / energy-budget /
  /// fault-schedule spec keys); to_mc_spec protects the source.
  sim::AdversarySpec adversary;

  /// Parses one key's value into its field, checking that value alone;
  /// errors (unknown keys too) name `what`: "spec field <key>" from spec
  /// lines, "--<key>" from radnet_cli.
  void set(std::string_view key, std::string_view value,
           std::string_view what);

  /// Rejects out-of-range resolved fields with std::invalid_argument
  /// (the batch runner refuses whole files fail-fast, before any trial),
  /// naming each field `field` + key ("spec field n", or "--n").
  void validate(std::string_view field = "spec field ") const;

  /// Link probability after the delta default is resolved; for the RGG
  /// family this is the mean-degree fraction pi*r^2 (tunes protocol rates).
  [[nodiscard]] double effective_p() const;
  /// RGG radio range (rgg_threshold_radius(n, radius_mult)).
  [[nodiscard]] double rgg_radius() const;
  /// diameter after the 0-default is resolved: the unit square's hop
  /// diameter at the RGG radio range, else 2 log2 n + 8.
  [[nodiscard]] std::uint64_t resolved_diameter() const;
  /// max_rounds after the 0-default is resolved.
  [[nodiscard]] std::uint64_t resolved_max_rounds() const;

  /// Canonical 64-bit spec hash (FNV-1a + avalanche over the validated,
  /// resolved field set, adversary block included). The cache address.
  [[nodiscard]] std::uint64_t hash() const;

  /// Lowers the query to a one-shot harness spec (factories bound, round
  /// budget resolved, source protected under an active adversary).
  [[nodiscard]] McSpec to_mc_spec() const;
};

/// Parses one `key=value ...` spec line (whitespace-separated; `#` starts
/// a comment). Unknown keys and malformed values throw
/// std::invalid_argument naming the key. Defaults per BatchSpec.
[[nodiscard]] BatchSpec parse_batch_spec(std::string_view line);

/// Parses a whole spec file: one spec per non-blank, non-comment line.
/// Errors are rethrown with the 1-based line number prepended.
[[nodiscard]] std::vector<BatchSpec> parse_batch_file(std::istream& in);

struct BatchOptions {
  /// Result cache directory (created on demand); empty disables the disk
  /// cache. An entry holds a finished spec's trial outcomes, bound by its
  /// header to the record version and (spec hash, seed); one that fails
  /// any check, or whose outcomes fail the stop rule, is a quarantined
  /// miss, never a wrong answer.
  std::string cache_dir;
  /// Grant every spec its full trial count regardless of tolerances (the
  /// forced full run the prefix tests compare early stops against).
  bool force_full = false;
  /// Thread schedule, radnet_cli semantics: 1 = fully serial, 0 = harness
  /// default (trial- vs round-parallelism per grant), k = k-thread round
  /// sweeps. Output bytes are identical for every value.
  unsigned threads = 0;
  /// First grant quantum; grants double thereafter (16, 16, 32, 64, ...),
  /// so granted counts are a deterministic function of convergence alone.
  std::uint32_t min_grant = 16;
  /// Run journal path; empty disables journaling. The journal header binds
  /// the spec set (hash over every spec hash, in input order) plus
  /// force_full and min_grant, so resuming against a different sweep or
  /// grant schedule fails loudly instead of splicing streams.
  std::string journal_path;
  /// Replay the journal's committed prefix, re-render the lines it
  /// finishes from their outcomes, and continue the doubling schedule
  /// mid-spec. The output stream of a resumed run is the COMPLETE stream —
  /// byte-identical to an uninterrupted run — so callers write it to a
  /// fresh (truncated) file rather than appending to the interrupted run's
  /// partial output (whose tail may be torn). Requires journal_path; a
  /// missing or fully torn journal resumes from nothing, i.e. runs fresh.
  bool resume = false;
  /// Polled at grant boundaries (signal handlers set it): when true the
  /// run stops cleanly after the in-flight grant, with everything done so
  /// far journal-committed and the emitted prefix flushed. BatchStats
  /// reports interrupted = true; resume finishes the sweep.
  const std::atomic<bool>* cancel = nullptr;
  /// Watchdogged spec isolation: run each spec's grants in a forked child
  /// under an optional RLIMIT_AS cap and wall-clock timeout, retrying
  /// crashed/hung/failed children with exponential backoff. A spec that
  /// exhausts its attempts yields a structured `"error"` JSON line in its
  /// stream slot; every other spec's bytes are identical to a non-isolated
  /// run (children run the identical grant schedule, serially — thread
  /// count never affects result bytes). Mid-spec journaling is coarser
  /// under isolation: a kill loses at most the in-flight spec's trials.
  bool isolate = false;
  /// Attempts per spec before the error line (>= 1).
  std::uint32_t isolate_attempts = 3;
  /// Wall-clock budget per attempt in ms; 0 disables the watchdog timer.
  std::uint32_t isolate_timeout_ms = 300'000;
  /// RLIMIT_AS for each child in bytes; 0 inherits the parent's limit.
  std::uint64_t isolate_mem_bytes = 0;
  /// Base retry backoff in ms (doubles per attempt). Kept small in tests.
  std::uint32_t isolate_backoff_ms = 100;
};

/// One spec's outcome; `json` is exactly the line streamed to `out`.
struct BatchOutcome {
  std::uint64_t hash = 0;
  std::uint32_t trials_granted = 0;
  bool converged = false;    ///< CIs under tolerance (vs trials exhausted)
  bool from_cache = false;   ///< no trial ran: disk cache, memo or journal
  bool error = false;        ///< isolate mode exhausted its attempts;
                             ///< `json` is the structured error line
  std::string json;
};

/// Aggregate counters for the invocation (reported to stderr by the CLI).
struct BatchStats {
  std::uint64_t specs = 0;
  std::uint64_t cache_hits = 0;    ///< disk hits + in-run memo hits
  std::uint64_t cache_stores = 0;
  std::uint64_t cache_quarantined = 0;  ///< corrupt entries moved aside
  std::uint64_t stale_reaped = 0;  ///< old .tmp/.quarantine files removed
  std::uint64_t trials_run = 0;
  std::uint64_t trials_saved = 0;  ///< sum over specs of (trials - granted)
  std::uint64_t journal_trials = 0;  ///< trials restored by replay, not run
  std::uint64_t spec_errors = 0;   ///< error lines, replayed ones too
  bool interrupted = false;        ///< options.cancel stopped the run early
};

/// Runs every spec and streams result lines to `out` in deterministic
/// (family-major, then input) order. Returns per-spec outcomes in INPUT
/// order. The byte stream written to `out` is identical across thread
/// counts, cold vs warm cache, and early-stop vs force_full re-runs of
/// already-converged grants (same grants => same bytes).
[[nodiscard]] std::vector<BatchOutcome> run_batch(
    const std::vector<BatchSpec>& specs, const BatchOptions& options,
    std::ostream& out, BatchStats* stats = nullptr);

/// The canonical result line for a (spec, accumulated result) pair —
/// exposed so tests can re-derive the expected bytes.
/// Handles the zero-completions regime with JSON nulls (never NaN): an
/// all-fail spec is a data point, not a formatting error.
[[nodiscard]] std::string batch_result_json(const BatchSpec& spec,
                                            const McResult& result,
                                            std::uint32_t granted,
                                            bool converged);

/// The structured error line for a spec that exhausted its isolate
/// attempts or ran out of memory in-process: spec identity (hash, protocol, family, n, seed), the
/// terminal cause ("crash", "timeout" or "error") and the attempt count.
/// Deterministic given (spec, cause, attempts), so error lines are as
/// reproducible as result lines.
[[nodiscard]] std::string batch_error_json(const BatchSpec& spec,
                                           std::string_view cause,
                                           std::uint32_t attempts);

}  // namespace radnet::harness
