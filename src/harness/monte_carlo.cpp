#include "harness/monte_carlo.hpp"

#include "support/require.hpp"
#include "support/thread_pool.hpp"

namespace radnet::harness {

double McResult::success_rate() const {
  if (outcomes.empty()) return 0.0;
  return static_cast<double>(successes) / static_cast<double>(outcomes.size());
}

Sample McResult::rounds_sample() const {
  Sample s;
  for (const auto& o : outcomes)
    if (o.completed) s.add(static_cast<double>(o.rounds));
  return s;
}

Sample McResult::total_tx_sample() const {
  Sample s;
  for (const auto& o : outcomes) s.add(static_cast<double>(o.total_tx));
  return s;
}

Sample McResult::max_tx_sample() const {
  Sample s;
  for (const auto& o : outcomes) s.add(static_cast<double>(o.max_tx_node));
  return s;
}

Sample McResult::mean_tx_sample() const {
  Sample s;
  for (const auto& o : outcomes) s.add(o.mean_tx_node);
  return s;
}

Sample McResult::stranded_sample() const {
  Sample s;
  for (const auto& o : outcomes)
    if (o.stranded.has_value()) s.add(static_cast<double>(*o.stranded));
  return s;
}

void McSpec::validate() const {
  RADNET_REQUIRE(trials >= 1, "need at least one trial");
  RADNET_REQUIRE(trials <= kMaxTrials,
                 "trials exceeds McSpec::kMaxTrials — the per-trial slot "
                 "vector would need a multi-GiB allocation; split the "
                 "experiment or raise the bound deliberately");
  const int implicit_backends = (implicit_gnp.has_value() ? 1 : 0) +
                                (implicit_dynamic.has_value() ? 1 : 0) +
                                (implicit_rgg.has_value() ? 1 : 0);
  RADNET_REQUIRE(implicit_backends <= 1,
                 "contradictory spec: at most one of implicit_gnp, "
                 "implicit_dynamic and implicit_rgg may be set");
  RADNET_REQUIRE(implicit_backends == 1 ||
                     static_cast<bool>(make_sequence) ||
                     static_cast<bool>(make_graph),
                 "a topology source is required: make_graph, make_sequence, "
                 "implicit_gnp, implicit_dynamic or implicit_rgg");
  RADNET_REQUIRE(static_cast<bool>(make_protocol),
                 "make_protocol is required");
  if (implicit_gnp.has_value()) {
    RADNET_REQUIRE(implicit_gnp->n >= 1, "implicit_gnp needs n >= 1");
    RADNET_REQUIRE(implicit_gnp->p > 0.0 && implicit_gnp->p <= 1.0,
                   "implicit_gnp needs p in (0, 1]");
  }
  if (implicit_dynamic.has_value()) {
    RADNET_REQUIRE(implicit_dynamic->n >= 1, "implicit_dynamic needs n >= 1");
    RADNET_REQUIRE(implicit_dynamic->p > 0.0 && implicit_dynamic->p <= 1.0,
                   "implicit_dynamic needs p in (0, 1]");
    // churn = 0 would freeze a graph that was never drawn: the static
    // model is implicit_gnp, so a zero-churn dynamic spec (with or
    // without fail_prob) is contradictory, not a degenerate case.
    RADNET_REQUIRE(implicit_dynamic->churn > 0.0 &&
                       implicit_dynamic->churn <= 1.0,
                   "implicit_dynamic needs churn in (0, 1]; for a static "
                   "graph use implicit_gnp");
    RADNET_REQUIRE(implicit_dynamic->fail_prob >= 0.0 &&
                       implicit_dynamic->fail_prob < 1.0,
                   "implicit_dynamic needs fail_prob in [0, 1)");
  }
  if (implicit_rgg.has_value()) {
    RADNET_REQUIRE(implicit_rgg->n >= 1, "implicit_rgg needs n >= 1");
    RADNET_REQUIRE(implicit_rgg->radius > 0.0 && implicit_rgg->radius <= 1.5,
                   "implicit_rgg needs radius in (0, 1.5]");
    RADNET_REQUIRE(implicit_rgg->step >= 0.0 && implicit_rgg->step <= 1.0,
                   "implicit_rgg needs step in [0, 1]");
  }
  run_options.adversary.validate();
}

TrialRun run_trial(const McSpec& spec, std::uint32_t trial,
                   const sim::RunOptions& options) {
  spec.validate();
  const Rng root(spec.seed);
  Rng graph_rng = root.split(trial, 0);
  const Rng protocol_rng = root.split(trial, 1);
  // Adversarial specs re-key the adversary per trial from the (seed,
  // trial, 2) stream — the phase after graph (0) and protocol (1) — so
  // roles, budgets and fault draws differ across trials, and paired specs
  // with the same root seed face identical adversaries.
  sim::RunOptions rekeyed;
  const sim::RunOptions* opts = &options;
  if (options.adversary.active()) {
    rekeyed = options;
    rekeyed.adversary.seed = root.split(trial, 2).next_u64();
    opts = &rekeyed;
  }
  // Handed to make_protocol for implicit and sequence trials; protocols
  // are oblivious and must not read the topology from it.
  static const graph::Digraph placeholder;
  const auto make_protocol = [&](const graph::Digraph& g) {
    std::unique_ptr<sim::Protocol> protocol = spec.make_protocol(g, trial);
    RADNET_CHECK(protocol != nullptr, "make_protocol returned null");
    return protocol;
  };

  sim::Engine engine;
  TrialRun out;
  std::unique_ptr<sim::Protocol> protocol;
  if (spec.implicit_dynamic.has_value()) {
    sim::ImplicitDynamicGnp gnp = *spec.implicit_dynamic;
    gnp.rng = graph_rng;
    protocol = make_protocol(placeholder);
    out.run = engine.run(gnp, *protocol, protocol_rng, *opts);
    out.nodes = gnp.n;
  } else if (spec.implicit_rgg.has_value()) {
    sim::ImplicitRgg rgg = *spec.implicit_rgg;
    rgg.rng = graph_rng;
    protocol = make_protocol(placeholder);
    out.run = engine.run(rgg, *protocol, protocol_rng, *opts);
    out.nodes = rgg.n;
  } else if (spec.implicit_gnp.has_value()) {
    const sim::ImplicitGnp gnp{spec.implicit_gnp->n, spec.implicit_gnp->p,
                               graph_rng};
    protocol = make_protocol(placeholder);
    out.run = engine.run(gnp, *protocol, protocol_rng, *opts);
    out.nodes = gnp.n;
  } else if (spec.make_sequence) {
    const std::unique_ptr<graph::TopologySequence> seq =
        spec.make_sequence(trial, graph_rng);
    RADNET_CHECK(seq != nullptr, "make_sequence returned null");
    protocol = make_protocol(placeholder);
    out.run = engine.run(*seq, *protocol, protocol_rng, *opts);
    out.nodes = seq->num_nodes();
  } else {
    const std::shared_ptr<const graph::Digraph> g =
        spec.make_graph(trial, graph_rng);
    RADNET_CHECK(g != nullptr, "make_graph returned null");
    protocol = make_protocol(*g);
    out.run = engine.run(*g, *protocol, protocol_rng, *opts);
    out.nodes = g->num_nodes();
  }
  out.stranded = protocol->stranded_count();
  return out;
}

McResult run_monte_carlo(const McSpec& spec) {
  McResult result;
  run_monte_carlo_range(spec, 0, spec.trials, result);
  return result;
}

void run_monte_carlo_range(const McSpec& spec, std::uint32_t first,
                           std::uint32_t count, McResult& into) {
  spec.validate();
  RADNET_REQUIRE(static_cast<std::uint64_t>(first) + count <= spec.trials,
                 "trial range [first, first + count) exceeds spec.trials");
  RADNET_REQUIRE(into.outcomes.size() == first,
                 "`into` must hold exactly the outcomes of trials "
                 "[0, first) — ranges accumulate in order");
  if (count == 0) return;
  // Overflow-checked slot sizing: validate() bounds trials at kMaxTrials,
  // but the arithmetic below must stay safe even if that bound is ever
  // raised (32-bit size_t: count * sizeof(TrialOutcome) can wrap).
  const std::uint64_t slots = static_cast<std::uint64_t>(first) + count;
  const std::uint64_t bytes = slots * sizeof(TrialOutcome);
  RADNET_REQUIRE(bytes / sizeof(TrialOutcome) == slots &&
                     bytes <= static_cast<std::uint64_t>(SIZE_MAX),
                 "trial slot vector size overflows size_t");

  McResult& result = into;
  result.outcomes.resize(static_cast<std::size_t>(slots));

  // Trial- vs round-parallelism: with at least one trial per pool thread,
  // independent trials saturate the machine, so each trial runs its rounds
  // serially. With fewer trials than threads (the huge-trial regime),
  // trials run sequentially on the calling thread and each trial fans its
  // sharded round phases — listener-block sweeps, the dynamic sketch
  // gather/classify chunks, the RGG bucketing chunks — out over the whole
  // pool instead. The sampled
  // backends always shard their sweeps, so any under-subscribed trial
  // count prefers round-parallelism; explicit-CSR rounds below the work
  // gate (CsrDelivery::kMinParallelRoundWork) stay serial inside the
  // backend, so only a single-trial explicit spec — where
  // trial-parallelism has nothing to offer anyway — flips, and 2..pool
  // explicit trials keep their trial-parallel schedule. Results are
  // identical either way — within-trial randomness is counter-keyed per
  // (round, block) and CSR delivery draws none — so this is purely a
  // utilisation choice. An explicit RunOptions::threads (!= 1) wins.
  sim::RunOptions run_options = spec.run_options;
  const bool sampled_backend = spec.implicit_gnp.has_value() ||
                               spec.implicit_dynamic.has_value() ||
                               spec.implicit_rgg.has_value();
  // The heuristic looks at the trial count of *this* range — an
  // early-stopping caller's last small grant prefers round-parallelism
  // just like a small standalone spec would. Purely a schedule choice:
  // outcomes are identical either way.
  const bool round_parallel =
      !spec.serial && run_options.threads == 1 &&
      global_pool().size() > 1 &&
      (sampled_backend ? count < global_pool().size() : count == 1);
  if (round_parallel) run_options.threads = 0;

  const auto fill = [&](std::uint64_t idx) {
    // Absolute trial id: randomness streams are keyed on it, so a trial's
    // outcome never depends on which range call ran it.
    const auto trial = static_cast<std::uint32_t>(first + idx);
    const TrialRun t = run_trial(spec, trial, run_options);
    TrialOutcome& out = result.outcomes[trial];
    out.stranded = t.stranded;
    out.completed = t.run.completed;
    out.rounds =
        t.run.completed ? t.run.completion_round : t.run.rounds_executed;
    out.total_tx = t.run.ledger.total_transmissions;
    out.max_tx_node = t.run.ledger.max_tx_per_node();
    out.mean_tx_node = t.run.ledger.mean_tx_per_node();
    out.deliveries = t.run.ledger.total_deliveries;
    out.collisions = t.run.ledger.total_collisions;
    out.nodes = t.nodes;
  };

  if (spec.serial || round_parallel) {
    // Sequential trials: either truly serial (spec.serial) or because each
    // trial's round sweeps own the pool (round_parallel — launching trials
    // through the pool here would inline the nested sweeps instead).
    for (std::uint32_t i = 0; i < count; ++i) fill(i);
  } else {
    global_pool().parallel_for_index(count, fill);
  }

  // `into.successes` already counts trials [0, first); fold in the range.
  for (std::size_t i = first; i < result.outcomes.size(); ++i)
    if (result.outcomes[i].completed) ++result.successes;
}

std::function<std::shared_ptr<const graph::Digraph>(std::uint32_t, Rng)>
shared_graph(graph::Digraph g) {
  auto shared = std::make_shared<const graph::Digraph>(std::move(g));
  return [shared](std::uint32_t, Rng) { return shared; };
}

}  // namespace radnet::harness
