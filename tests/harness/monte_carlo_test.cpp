#include "harness/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/broadcast_random.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"

namespace radnet::harness {
namespace {

McSpec alg1_spec(std::uint32_t n, double p, std::uint32_t trials,
                 std::uint64_t seed) {
  McSpec spec;
  spec.trials = trials;
  spec.seed = seed;
  spec.make_graph = [n, p](std::uint32_t, Rng rng) {
    return std::make_shared<const graph::Digraph>(
        graph::gnp_directed(n, p, rng));
  };
  spec.make_protocol = [p](const graph::Digraph&, std::uint32_t) {
    return std::make_unique<core::BroadcastRandomProtocol>(
        core::BroadcastRandomParams{.p = p});
  };
  core::BroadcastRandomProtocol probe(core::BroadcastRandomParams{.p = p});
  probe.reset(n, Rng(0));
  spec.run_options.max_rounds = probe.round_budget();
  return spec;
}

TEST(MonteCarloTest, RunsAllTrialsAndAggregates) {
  const std::uint32_t n = 512;
  const double p = 16.0 * std::log(n) / n;
  const auto result = run_monte_carlo(alg1_spec(n, p, 16, 42));
  EXPECT_EQ(result.trials(), 16u);
  EXPECT_GE(result.successes, 14u);  // w.h.p. broadcast succeeds
  EXPECT_GT(result.success_rate(), 0.85);
  const auto rounds = result.rounds_sample();
  EXPECT_EQ(rounds.size(), result.successes);
  EXPECT_GT(rounds.mean(), 0.0);
  EXPECT_EQ(result.total_tx_sample().size(), 16u);
  for (const auto& o : result.outcomes) {
    EXPECT_EQ(o.nodes, n);
    EXPECT_LE(o.max_tx_node, 1u);  // Algorithm 1 invariant through the harness
  }
}

TEST(MonteCarloTest, DeterministicAcrossRuns) {
  const std::uint32_t n = 256;
  const double p = 16.0 * std::log(n) / n;
  const auto a = run_monte_carlo(alg1_spec(n, p, 8, 7));
  const auto b = run_monte_carlo(alg1_spec(n, p, 8, 7));
  ASSERT_EQ(a.trials(), b.trials());
  for (std::uint32_t t = 0; t < a.trials(); ++t) {
    EXPECT_EQ(a.outcomes[t].rounds, b.outcomes[t].rounds) << t;
    EXPECT_EQ(a.outcomes[t].total_tx, b.outcomes[t].total_tx) << t;
    EXPECT_EQ(a.outcomes[t].completed, b.outcomes[t].completed) << t;
  }
}

TEST(MonteCarloTest, ParallelMatchesSerial) {
  const std::uint32_t n = 256;
  const double p = 16.0 * std::log(n) / n;
  auto spec = alg1_spec(n, p, 12, 99);
  const auto par = run_monte_carlo(spec);
  spec.serial = true;
  const auto ser = run_monte_carlo(spec);
  ASSERT_EQ(par.trials(), ser.trials());
  for (std::uint32_t t = 0; t < par.trials(); ++t) {
    EXPECT_EQ(par.outcomes[t].rounds, ser.outcomes[t].rounds) << t;
    EXPECT_EQ(par.outcomes[t].total_tx, ser.outcomes[t].total_tx) << t;
    EXPECT_EQ(par.outcomes[t].collisions, ser.outcomes[t].collisions) << t;
  }
}

TEST(MonteCarloTest, DifferentSeedsGiveDifferentRuns) {
  const std::uint32_t n = 256;
  const double p = 16.0 * std::log(n) / n;
  const auto a = run_monte_carlo(alg1_spec(n, p, 8, 1));
  const auto b = run_monte_carlo(alg1_spec(n, p, 8, 2));
  bool any_diff = false;
  for (std::uint32_t t = 0; t < 8; ++t)
    any_diff |= (a.outcomes[t].total_tx != b.outcomes[t].total_tx);
  EXPECT_TRUE(any_diff);
}

TEST(MonteCarloTest, SharedGraphFactoryReusesOneGraph) {
  Rng grng(3);
  auto g = graph::gnp_directed(128, 0.1, grng);
  const auto factory = shared_graph(std::move(g));
  Rng dummy(0);
  const auto g1 = factory(0, dummy);
  const auto g2 = factory(5, dummy);
  EXPECT_EQ(g1.get(), g2.get());  // same object, not a copy
}

TEST(MonteCarloTest, RejectsInvalidSpecs) {
  McSpec spec;
  spec.trials = 0;
  EXPECT_THROW(run_monte_carlo(spec), std::invalid_argument);
  spec.trials = 1;
  EXPECT_THROW(run_monte_carlo(spec), std::invalid_argument);  // no factories
}

TEST(MonteCarloTest, FailuresAreCensoredInRoundsSample) {
  // A protocol on a disconnected graph never completes; rounds_sample must
  // be empty while total_tx_sample still has every trial.
  McSpec spec;
  spec.trials = 4;
  spec.seed = 11;
  spec.make_graph = [](std::uint32_t, Rng) {
    return std::make_shared<const graph::Digraph>(64, std::vector<graph::Edge>{});
  };
  spec.make_protocol = [](const graph::Digraph&, std::uint32_t) {
    return std::make_unique<core::BroadcastRandomProtocol>(
        core::BroadcastRandomParams{.p = 0.1});
  };
  spec.run_options.max_rounds = 64;
  const auto result = run_monte_carlo(spec);
  EXPECT_EQ(result.successes, 0u);
  EXPECT_TRUE(result.rounds_sample().empty());
  EXPECT_EQ(result.total_tx_sample().size(), 4u);
}

TEST(MonteCarloTest, RunTrialMatchesMonteCarloOutcomes) {
  // run_trial is the one place a trial is built: for every topology source,
  // and under an adversary re-keyed per trial, trial t at threads = 1 must
  // reproduce outcome t of a trial-parallel run_monte_carlo.
  const std::uint32_t n = 256;
  const double p = 16.0 * std::log(n) / n;
  const auto sourced = [&](const auto& set_source) {
    McSpec spec = alg1_spec(n, p, 6, 21);
    spec.make_graph = nullptr;
    set_source(spec);
    return spec;
  };
  sim::ImplicitDynamicGnp dynamic;
  dynamic.n = n;
  dynamic.p = p;
  dynamic.churn = 0.5;
  const double radius = graph::rgg_threshold_radius(n, 2.0);
  sim::AdversarySpec adversary;
  adversary.jammer_fraction = 0.05;
  adversary.byzantine_fraction = 0.05;
  adversary.budget_mean = 2.0;
  adversary.protected_nodes = {0};
  const std::pair<const char*, McSpec> specs[] = {
      {"make_graph", alg1_spec(n, p, 6, 21)},
      {"make_sequence", sourced([&](McSpec& s) {
         s.make_sequence = [n, p](std::uint32_t, Rng rng) {
           return std::make_unique<graph::ChurnGnp>(n, p, 0.5, rng);
         };
       })},
      {"implicit_gnp", sourced([&](McSpec& s) {
         s.implicit_gnp = sim::ImplicitGnp{n, p, Rng{}};
       })},
      {"implicit_dynamic",
       sourced([&](McSpec& s) { s.implicit_dynamic = dynamic; })},
      {"implicit_rgg", sourced([&](McSpec& s) {
         s.implicit_rgg = sim::ImplicitRgg{n, radius, radius / 8.0, Rng{}};
       })},
      {"adversarial", sourced([&](McSpec& s) {
         s.implicit_gnp = sim::ImplicitGnp{n, p, Rng{}};
         s.run_options.adversary = adversary;
       })},
  };
  for (const auto& [name, spec] : specs) {
    const McResult all = run_monte_carlo(spec);
    for (const std::uint32_t t : {0u, 2u, 5u}) {
      const TrialRun trial = run_trial(spec, t, spec.run_options);
      const sim::RunResult& r = trial.run;
      const TrialOutcome& o = all.outcomes[t];
      SCOPED_TRACE(std::string(name) + " trial " + std::to_string(t));
      EXPECT_EQ(r.completed, o.completed);
      EXPECT_EQ(r.completed ? r.completion_round : r.rounds_executed, o.rounds);
      EXPECT_EQ(r.ledger.total_transmissions, o.total_tx);
      EXPECT_EQ(r.ledger.total_deliveries, o.deliveries);
      EXPECT_EQ(r.ledger.total_collisions, o.collisions);
      EXPECT_EQ(trial.stranded, o.stranded);
      EXPECT_EQ(trial.nodes, o.nodes);
    }
  }

  // The adversarial trial is keyed on (seed, t, 0) for the graph, (seed, t,
  // 1) for the protocol and (seed, t, 2) for the adversary.
  const McSpec& adv = specs[5].second;
  const std::uint32_t t = 2;
  const Rng root(adv.seed);
  sim::RunOptions options = adv.run_options;
  options.adversary.seed = root.split(t, 2).next_u64();
  core::BroadcastRandomProtocol proto(core::BroadcastRandomParams{.p = p});
  const sim::RunResult manual = sim::Engine().run(
      sim::ImplicitGnp{n, p, root.split(t, 0)}, proto, root.split(t, 1),
      options);
  const TrialRun trial = run_trial(adv, t, adv.run_options);
  EXPECT_GT(trial.run.adversary.jammer_count, 0u);
  EXPECT_EQ(trial.run, manual);
}

}  // namespace
}  // namespace radnet::harness
