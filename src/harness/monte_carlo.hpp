// Deterministic, parallel Monte-Carlo trial runner.
//
// A *trial* is one protocol execution on one network. Trial t derives its
// graph RNG from (seed, t, 0) and its protocol RNG from (seed, t, 1), so the
// full experiment is a pure function of the root seed, and trials are
// independent by construction. Trials run on the global thread pool with
// results written into a pre-sized slot vector — aggregation afterwards is
// serial, so the output is identical whether the pool has 1 or 64 threads
// (asserted by tests/harness tests).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "graph/digraph.hpp"
#include "sim/engine.hpp"
#include "support/stats.hpp"

namespace radnet::harness {

/// Everything a bench wants to know about one trial.
struct TrialOutcome {
  bool completed = false;
  sim::Round rounds = 0;         ///< completion round if completed, else rounds run
  std::uint64_t total_tx = 0;
  std::uint32_t max_tx_node = 0; ///< max transmissions by any single node
  double mean_tx_node = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  graph::NodeId nodes = 0;
  /// In-goal nodes left without a valid message copy when the trial ended
  /// (see Protocol::stranded_count); nullopt when the protocol does not
  /// track provenance. The robustness benches' headline "stranded
  /// fraction" is stranded / nodes.
  std::optional<graph::NodeId> stranded;
};

struct McSpec {
  /// Hard ceiling on `trials`, enforced by validate(): the harness
  /// pre-sizes one TrialOutcome slot per trial before anything runs, so a
  /// fat-fingered trial count must fail validation loudly instead of
  /// silently attempting a multi-GiB allocation (at the bound the slot
  /// vector alone is ~1 GiB; the per-trial topology state scales on top of
  /// it). The slot-sizing arithmetic itself is overflow-checked in
  /// run_monte_carlo_range for 32-bit size_t targets.
  static constexpr std::uint32_t kMaxTrials = 1u << 24;

  /// Number of independent trials.
  std::uint32_t trials = 32;
  /// Root seed; the entire experiment is a function of this.
  std::uint64_t seed = 1;
  /// Produces (or shares) the network for a trial. Called once per trial
  /// with that trial's private graph RNG. Ignored when implicit_gnp /
  /// implicit_dynamic / make_sequence is set.
  std::function<std::shared_ptr<const graph::Digraph>(std::uint32_t trial, Rng rng)>
      make_graph;
  /// Produces a *changing* topology (churn / mobility) for a trial, run on
  /// the explicit dynamic-CSR backend. Called once per trial with that
  /// trial's private graph RNG; takes precedence over make_graph.
  std::function<std::unique_ptr<graph::TopologySequence>(std::uint32_t trial,
                                                         Rng rng)>
      make_sequence;
  /// When set, trials run on the implicit G(n,p) backend instead of a
  /// materialised graph; make_protocol then receives an empty placeholder
  /// Digraph (protocols are oblivious and never look at it anyway). Set
  /// (n, p) only — the spec's rng is overwritten per trial with the
  /// (seed, trial, 0) stream make_graph would have received, so an
  /// implicit spec and a CSR spec with identical seeds form paired trials.
  std::optional<sim::ImplicitGnp> implicit_gnp;
  /// When set, trials run on the implicit dynamic G(n,p) backend (takes
  /// precedence over the explicit factories; setting two implicit
  /// backends at once is contradictory and rejected by validate());
  /// set the model fields
  /// (n, p, churn, fail_prob, p_of_round, sketch_capacity) only — the
  /// spec's rng is overwritten per trial with the (seed, trial, 0) stream,
  /// so an implicit-dynamic spec and a make_sequence ChurnGnp spec form
  /// paired experiments.
  std::optional<sim::ImplicitDynamicGnp> implicit_dynamic;
  /// When set, trials run on the implicit mobility-RGG backend (takes
  /// precedence over the explicit factories; combining it with another
  /// implicit backend is rejected by validate()); set the model fields
  /// (n, radius, step) only — the spec's rng is
  /// overwritten per trial with the (seed, trial, 0) stream, so an
  /// implicit-RGG spec and a make_sequence MobilityRgg spec form paired
  /// experiments (same process law; the motion streams are consumed
  /// differently, so the pairing is distributional, not bit-level).
  std::optional<sim::ImplicitRgg> implicit_rgg;
  /// Produces a fresh protocol object for a trial (trials may run
  /// concurrently, so protocols cannot be shared).
  std::function<std::unique_ptr<sim::Protocol>(const graph::Digraph& g,
                                               std::uint32_t trial)>
      make_protocol;
  /// Engine options (max_rounds etc.), shared by all trials. When
  /// run_options.adversary is active, its seed is re-keyed per trial from
  /// the (seed, trial, 2) stream so adversarial role/budget/fault draws
  /// vary across trials exactly like graph and protocol randomness (and
  /// paired specs with equal root seeds face *identical* adversaries).
  sim::RunOptions run_options;
  /// Run trials serially on the calling thread (used by the determinism
  /// tests and when a caller is already inside a parallel region).
  bool serial = false;

  /// Rejects malformed and self-contradictory specs with
  /// std::invalid_argument (RADNET_REQUIRE) before any trial runs:
  /// missing factories, more than one implicit backend set at once,
  /// out-of-range implicit model parameters, invalid adversary spec.
  /// run_monte_carlo calls this; callers may use it to fail fast.
  void validate() const;
};

struct McResult {
  std::vector<TrialOutcome> outcomes;  ///< indexed by trial
  std::uint32_t successes = 0;

  [[nodiscard]] std::uint32_t trials() const {
    return static_cast<std::uint32_t>(outcomes.size());
  }
  [[nodiscard]] double success_rate() const;

  /// Sample over completed trials only (rounds of failed trials are
  /// censored at max_rounds and would poison time statistics).
  [[nodiscard]] Sample rounds_sample() const;
  /// Samples over all trials (energy is well-defined even on failure).
  [[nodiscard]] Sample total_tx_sample() const;
  [[nodiscard]] Sample max_tx_sample() const;
  [[nodiscard]] Sample mean_tx_sample() const;
  /// Stranded-node counts over trials whose protocol reports provenance
  /// (empty when none do); failures included — stranding is the outcome
  /// robustness curves care about, completed or not.
  [[nodiscard]] Sample stranded_sample() const;
};

/// Runs the experiment described by `spec`.
[[nodiscard]] McResult run_monte_carlo(const McSpec& spec);

/// Incremental accumulation: runs trials [first, first + count) of the
/// experiment and appends their outcomes to `into` (which must already
/// hold exactly the outcomes of trials [0, first) — typically from earlier
/// calls). Trial t is a pure function of (spec.seed, t) regardless of how
/// the trial range is chunked or threaded, so a sequence of range calls
/// produces outcomes bit-identical to one run_monte_carlo call — this is
/// what lets the batch sweep service (harness/batch.hpp) early-stop a spec
/// and still guarantee its result is an exact prefix of the full run.
/// first + count <= spec.trials; validates the spec on every call.
void run_monte_carlo_range(const McSpec& spec, std::uint32_t first,
                           std::uint32_t count, McResult& into);

/// One trial's full engine output: what run_monte_carlo_range condenses
/// into a TrialOutcome, for callers that compare whole runs (the golden
/// fingerprints).
struct TrialRun {
  sim::RunResult run;
  /// Protocol::stranded_count() when the trial ended.
  std::optional<graph::NodeId> stranded;
  graph::NodeId nodes = 0;
};

/// Runs trial `trial` of `spec` under `options` (normally spec.run_options
/// with a caller-chosen thread count) — the one place a trial is built.
/// The topology source is dispatched in precedence order implicit_dynamic,
/// implicit_rgg, implicit_gnp, make_sequence, make_graph; the graph draws
/// from the (seed, trial, 0) stream and the protocol from (seed, trial, 1),
/// and an active adversary is re-keyed from (seed, trial, 2). The result
/// is therefore identical to trial `trial` of run_monte_carlo at any
/// thread count. Validates the spec.
[[nodiscard]] TrialRun run_trial(const McSpec& spec, std::uint32_t trial,
                                 const sim::RunOptions& options);

/// Convenience: wraps an already-built graph for McSpec::make_graph.
[[nodiscard]] std::function<std::shared_ptr<const graph::Digraph>(std::uint32_t, Rng)>
shared_graph(graph::Digraph g);

}  // namespace radnet::harness
