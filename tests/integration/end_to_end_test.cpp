// End-to-end scenarios chaining generators, protocols, engine and harness —
// miniature versions of the bench experiments, kept small enough for CI.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/broadcast_baselines.hpp"
#include "core/broadcast_general.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "graph/lower_bound_nets.hpp"
#include "graph/metrics.hpp"
#include "harness/monte_carlo.hpp"
#include "support/math.hpp"

namespace radnet {
namespace {

using graph::Digraph;

TEST(EndToEnd, Alg1BeatsEgOnEnergyAtSimilarTime) {
  // The headline comparison of Section 2 (mini E11): same graphs, same
  // seeds; Algorithm 1 must use at most as many max-per-node transmissions
  // and materially fewer total transmissions in the multi-hop regime.
  const std::uint32_t n = 4096;
  const double p = std::pow(static_cast<double>(n), -0.55);  // T >= 2

  harness::McSpec base;
  base.trials = 6;
  base.seed = 1234;
  base.make_graph = [&](std::uint32_t, Rng rng) {
    return std::make_shared<const Digraph>(graph::gnp_directed(n, p, rng));
  };
  core::BroadcastRandomProtocol probe(core::BroadcastRandomParams{.p = p});
  probe.reset(n, Rng(0));
  base.run_options.max_rounds = probe.round_budget() * 4;

  auto alg1_spec = base;
  alg1_spec.make_protocol = [&](const Digraph&, std::uint32_t) {
    return std::make_unique<core::BroadcastRandomProtocol>(
        core::BroadcastRandomParams{.p = p});
  };
  auto eg_spec = base;
  eg_spec.make_protocol = [&](const Digraph&, std::uint32_t) {
    return std::make_unique<core::GeneralBroadcastProtocol>(
        baselines::eg2005_params(n, p));
  };

  const auto alg1 = harness::run_monte_carlo(alg1_spec);
  const auto eg = harness::run_monte_carlo(eg_spec);
  ASSERT_GE(alg1.success_rate(), 0.8);
  ASSERT_GE(eg.success_rate(), 0.8);
  EXPECT_LE(alg1.max_tx_sample().max(), 1.0);
  EXPECT_GT(eg.max_tx_sample().mean(), 1.0);
  EXPECT_LT(alg1.total_tx_sample().mean(), eg.total_tx_sample().mean());
}

TEST(EndToEnd, Alg3EnergyBeatsDecayOnCollisionHeavyNetwork) {
  // Mini E6 on the Obs. 4.3 topology where D = 2 and lambda is large:
  // Algorithm 3 should finish with far fewer transmissions per node than a
  // perpetually-shouting Decay.
  const auto net = graph::obs43_network(64);
  const std::uint64_t n = net.graph.num_nodes();

  harness::McSpec base;
  base.trials = 6;
  base.seed = 99;
  base.make_graph = harness::shared_graph(Digraph(net.graph));
  base.run_options.max_rounds = 40000;
  base.run_options.stop_on_empty_candidates = true;

  auto alg3_spec = base;
  alg3_spec.make_protocol = [&](const Digraph&, std::uint32_t) {
    return std::make_unique<core::GeneralBroadcastProtocol>(
        core::GeneralBroadcastParams{
            .schedule = core::sequence_schedule(
                core::SequenceDistribution::alpha(n, 2)),
            .window = core::general_window(n, 4.0),
            .source = net.source,
            .label = ""});
  };
  auto decay_spec = base;
  decay_spec.make_protocol = [&](const Digraph&, std::uint32_t) {
    return std::make_unique<core::GeneralBroadcastProtocol>(
        baselines::decay_params(n, net.source));
  };

  const auto alg3 = harness::run_monte_carlo(alg3_spec);
  const auto decay = harness::run_monte_carlo(decay_spec);
  ASSERT_GE(alg3.success_rate(), 0.8);
  ASSERT_GE(decay.success_rate(), 0.8);
  EXPECT_LT(alg3.mean_tx_sample().mean(), decay.mean_tx_sample().mean());
}

TEST(EndToEnd, GossipCompletesOnGeometricGraph) {
  // The paper's future-work model (Section 5): Algorithm 2 still works on a
  // random geometric graph if p is set from the measured mean degree.
  Rng grng(7);
  const std::uint32_t n = 256;
  const Digraph g =
      graph::random_geometric(n, graph::rgg_threshold_radius(n, 3.0), grng);
  ASSERT_TRUE(graph::strongly_connected(g));
  const double d = graph::degree_stats(g).mean_out;
  core::GossipRandomProtocol proto(core::GossipRandomParams{.p = d / n});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 1u << 20;
  const auto r = engine.run(g, proto, Rng(8), options);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(proto.pairs_known(), static_cast<std::uint64_t>(n) * n);
}

TEST(EndToEnd, Alg3HandlesThm44NetworkEventually) {
  // The adversarial layered network is hard but not impossible for
  // Algorithm 3 when D is known.
  const auto net = graph::thm44_network(64, 40);
  const std::uint64_t n = net.graph.num_nodes();
  core::GeneralBroadcastProtocol proto(core::GeneralBroadcastParams{
      .schedule = core::sequence_schedule(
          core::SequenceDistribution::alpha(n, net.diameter)),
      .window = core::general_window(n, 8.0),
      .source = net.source,
      .label = ""});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = core::general_round_budget(
      n, net.diameter, lambda_of(n, net.diameter), 256.0);
  options.stop_on_empty_candidates = true;
  const auto r = engine.run(net.graph, proto, Rng(9), options);
  EXPECT_TRUE(r.completed);
}

TEST(EndToEnd, BroadcastTimeTracksDiameterOnPaths) {
  // Theorem 4.1's D-dependence: doubling the path length should roughly
  // double Algorithm 3's completion time (within generous noise bounds).
  const auto time_for = [&](std::uint32_t n, std::uint64_t seed) {
    const Digraph g = graph::path(n);
    core::GeneralBroadcastProtocol proto(core::GeneralBroadcastParams{
        .schedule = core::sequence_schedule(
            core::SequenceDistribution::alpha(n, n - 1)),
        .window = core::general_window(n, 4.0),
        .source = 0,
        .label = ""});
    sim::Engine engine;
    sim::RunOptions options;
    options.max_rounds = core::general_round_budget(n, n - 1, 1.0, 128.0);
    options.stop_on_empty_candidates = true;
    const auto r = engine.run(g, proto, Rng(seed), options);
    EXPECT_TRUE(r.completed) << "n=" << n;
    return static_cast<double>(r.completion_round);
  };
  double t_small = 0.0, t_big = 0.0;
  for (std::uint64_t s = 0; s < 4; ++s) {
    t_small += time_for(64, 10 + s);
    t_big += time_for(256, 20 + s);
  }
  EXPECT_GT(t_big, 1.5 * t_small);
  EXPECT_LT(t_big, 20.0 * t_small);
}

}  // namespace
}  // namespace radnet
