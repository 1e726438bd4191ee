#include <gtest/gtest.h>

#include <cmath>

#include "baselines/broadcast_baselines.hpp"
#include "baselines/gossip_baselines.hpp"
#include "graph/generators.hpp"
#include "graph/lower_bound_nets.hpp"
#include "graph/metrics.hpp"
#include "sim/engine.hpp"

namespace radnet::baselines {
namespace {

using core::GeneralBroadcastProtocol;
using graph::Digraph;

// ---------------------------------------------------------------- flooding

TEST(FloodingTest, WorksOnDirectedOutTree) {
  // On an out-tree each node has exactly one in-neighbour: flooding never
  // collides and completes in depth rounds.
  // Binary out-tree of depth 3: node v has children 2v+1, 2v+2.
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v < 7; ++v) {
    edges.push_back({v, static_cast<graph::NodeId>(2 * v + 1)});
    edges.push_back({v, static_cast<graph::NodeId>(2 * v + 2)});
  }
  const Digraph g(15, edges);
  GeneralBroadcastProtocol proto(flooding_params());
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 100;
  const auto r = engine.run(g, proto, Rng(1), options);
  ASSERT_TRUE(r.completed);
  // Levels are informed one per round: round 1 -> {1,2}, 2 -> {3..6},
  // 3 -> {7..14}.
  EXPECT_EQ(r.completion_round, 3u);
}

TEST(FloodingTest, StallsForeverOnCollisionTopology) {
  // Obs. 4.3 network: after round 1 all 2n intermediates are informed and
  // *all* transmit every round — every destination hears noise forever.
  const auto net = graph::obs43_network(8);
  GeneralBroadcastProtocol proto(flooding_params(net.source));
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 500;
  const auto r = engine.run(net.graph, proto, Rng(2), options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(proto.informed_count(), 1u + 16u);  // source + intermediates only
  EXPECT_GT(r.ledger.total_collisions, 0u);
}

// ------------------------------------------------------------------- decay

TEST(DecayTest, PhaseLengthIsCeilLog2Plus1) {
  EXPECT_EQ(decay_phase_length(1000), 11u);  // ceil(log2 1000) = 10, +1
  EXPECT_EQ(decay_params(1000, 0, 3).window, 33u);
  EXPECT_THROW((void)decay_params(1), std::invalid_argument);
}

TEST(DecayTest, CompletesOnObs43Network) {
  // Decay handles exactly the situation flooding cannot.
  const auto net = graph::obs43_network(16);
  GeneralBroadcastProtocol proto(
      decay_params(net.graph.num_nodes(), net.source));
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 20000;
  const auto r = engine.run(net.graph, proto, Rng(3), options);
  EXPECT_TRUE(r.completed);
}

TEST(DecayTest, CompletesOnGridAndRandom) {
  {
    const Digraph g = graph::grid(10, 10);
    GeneralBroadcastProtocol proto(decay_params(g.num_nodes()));
    sim::Engine engine;
    sim::RunOptions options;
    options.max_rounds = 50000;
    EXPECT_TRUE(engine.run(g, proto, Rng(4), options).completed);
  }
  {
    Rng grng(5);
    const std::uint32_t n = 512;
    const Digraph g = graph::gnp_directed(n, 16.0 * std::log(n) / n, grng);
    GeneralBroadcastProtocol proto(decay_params(n));
    sim::Engine engine;
    sim::RunOptions options;
    options.max_rounds = 50000;
    EXPECT_TRUE(engine.run(g, proto, Rng(6), options).completed);
  }
}

TEST(DecayTest, ActivePhaseWindowSilencesNodes) {
  const Digraph g = graph::path(64);
  GeneralBroadcastProtocol proto(decay_params(64, 0, 1));
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 100000;
  options.stop_on_empty_candidates = true;
  const auto r = engine.run(g, proto, Rng(7), options);
  // One phase (~7 rounds) per node is plenty on a path; whether or not it
  // completes, no node may exceed one phase worth of transmissions.
  const double per_phase =
      static_cast<double>(decay_phase_length(64));  // <= ~2 expected
  EXPECT_LE(r.ledger.max_tx_per_node(), per_phase);
}

// --------------------------------------------------- Elsässer–Gasieniec

TEST(ElsasserGasieniecTest, CompletesOnRandomGraph) {
  Rng grng(8);
  const std::uint32_t n = 1024;
  const double p = 16.0 * std::log(n) / n;
  const Digraph g = graph::gnp_directed(n, p, grng);
  const core::GeneralBroadcastParams params = eg2005_params(n, p);
  GeneralBroadcastProtocol proto(params);
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = params.horizon;  // the round budget
  const auto r = engine.run(g, proto, Rng(9), options);
  EXPECT_TRUE(r.completed);
}

TEST(ElsasserGasieniecTest, UsesMoreTransmissionsPerNodeThanOurAlg) {
  // The point of the comparison: EG nodes transmit every Phase-1 round, so
  // max tx per node exceeds Algorithm 1's hard bound of 1 whenever T >= 2.
  Rng grng(10);
  const std::uint32_t n = 4096;
  const double p = std::pow(static_cast<double>(n), -0.55);  // T >= 2
  const Digraph g = graph::gnp_directed(n, p, grng);
  const core::GeneralBroadcastParams params = eg2005_params(n, p);
  GeneralBroadcastProtocol proto(params);
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = params.horizon;
  const auto r = engine.run(g, proto, Rng(11), options);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.ledger.max_tx_per_node(), 1u);
}

TEST(ElsasserGasieniecTest, ParamsEncodeThePhases) {
  // n = 4096, p = 1/64: d = 64, T = floor(12 / 6) = 2, Phase 2 transmits
  // with n/d^{T+1} = 1/64, Phase 3 with 1/d and lasts ceil(32 * 12) rounds.
  const core::GeneralBroadcastParams params = eg2005_params(4096, 1.0 / 64);
  EXPECT_EQ(params.label, "eg2005");
  EXPECT_EQ(params.activate_through, 2u);
  EXPECT_EQ(params.horizon, 2u + 1u + 384u);
  EXPECT_EQ(params.window, 0u);
  Rng rng(1);
  EXPECT_EQ(params.schedule(0, rng), 1.0);
  EXPECT_EQ(params.schedule(1, rng), 1.0);
  EXPECT_DOUBLE_EQ(params.schedule(2, rng), 1.0 / 64);
  EXPECT_DOUBLE_EQ(params.schedule(3, rng), 1.0 / 64);
  EXPECT_THROW((void)eg2005_params(4096, 1.0 / 8192), std::invalid_argument);
}

// ------------------------------------------------------------- fixed prob

TEST(FixedProbTest, CompletesOnObs43GivenEnoughRounds) {
  const auto net = graph::obs43_network(8);
  GeneralBroadcastProtocol proto(
      fixed_params(net.graph.num_nodes(), 0.5, net.source));
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 5000;
  const auto r = engine.run(net.graph, proto, Rng(12), options);
  EXPECT_TRUE(r.completed);
}

TEST(FixedProbTest, WindowLimitsEnergy) {
  const auto net = graph::obs43_network(8);
  GeneralBroadcastProtocol proto(
      fixed_params(net.graph.num_nodes(), 0.5, net.source, 4));
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 5000;
  options.stop_on_empty_candidates = true;
  const auto r = engine.run(net.graph, proto, Rng(13), options);
  EXPECT_LE(r.ledger.max_tx_per_node(), 4u);
}

TEST(FixedProbTest, NameEncodesQ) {
  GeneralBroadcastProtocol proto(fixed_params(64, 0.25));
  EXPECT_EQ(proto.name(), "fixed(q=0.25)");
}

TEST(FixedProbTest, RejectsBadQ) {
  EXPECT_THROW((void)fixed_params(64, 0.0), std::invalid_argument);
  EXPECT_THROW((void)fixed_params(64, 1.5), std::invalid_argument);
}

// --------------------------------------------------------- Czumaj–Rytter

TEST(CzumajRytterTest, WindowIsLambdaTimesLogSquared) {
  const std::uint64_t n = 1 << 10;
  const std::uint64_t D = 1 << 4;  // lambda = 6
  EXPECT_EQ(czumaj_rytter_window(n, D, 1.0), 600u);  // 6 * 100
}

TEST(CzumajRytterTest, CompletesOnPathWithKnownD) {
  const std::uint32_t n = 128;
  const Digraph g = graph::path(n);
  auto proto = std::make_unique<GeneralBroadcastProtocol>(
      czumaj_rytter_params(n, n - 1, 4.0));
  sim::RunOptions options;
  options.max_rounds = core::general_round_budget(n, n - 1, 1.0, 64.0);
  options.stop_on_empty_candidates = true;
  sim::Engine engine;
  const auto r = engine.run(g, *proto, Rng(14), options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(proto->name(), "czumaj-rytter");
}

// ------------------------------------------------------------ TDMA gossip

TEST(TdmaGossipTest, CompletesCollisionFreeOnPath) {
  const std::uint32_t n = 16;
  const Digraph g = graph::path(n);
  TdmaGossipProtocol proto;
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 10 * n * n;
  const auto r = engine.run(g, proto, Rng(15), options);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.ledger.total_collisions, 0u);
  EXPECT_EQ(proto.pairs_known(), static_cast<std::uint64_t>(n) * n);
}

TEST(DecayGossipTest, CompletesOnGridWithoutDensityKnowledge) {
  // The point of the framework-style baseline: no d to tune, works on any
  // strongly-connected topology.
  const Digraph g = graph::grid(8, 8);
  DecayGossipProtocol proto;
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 60000;
  const auto r = engine.run(g, proto, Rng(21), options);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(proto.pairs_known(), 64ull * 64ull);
}

TEST(DecayGossipTest, CompletesOnRandomGraph) {
  Rng grng(22);
  const std::uint32_t n = 128;
  const Digraph g = graph::gnp_directed(n, 12.0 * std::log(n) / n, grng);
  DecayGossipProtocol proto;
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 60000;
  const auto r = engine.run(g, proto, Rng(23), options);
  ASSERT_TRUE(r.completed);
}

TEST(DecayGossipTest, EnergyScalesWithRoundsOverPhase) {
  // ~2 expected transmissions per node per decay phase.
  const Digraph g = graph::grid(6, 6);
  DecayGossipProtocol proto;
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 60000;
  const auto r = engine.run(g, proto, Rng(24), options);
  ASSERT_TRUE(r.completed);
  const double phases = static_cast<double>(r.completion_round) /
                        static_cast<double>(proto.phase_length());
  EXPECT_LT(r.ledger.mean_tx_per_node(), 4.0 * phases + 4.0);
  EXPECT_GT(r.ledger.mean_tx_per_node(), 0.5 * phases - 4.0);
}

TEST(TdmaGossipTest, SlowerThanRandomisedGossipOnRandomGraph) {
  Rng grng(16);
  const std::uint32_t n = 128;
  const double p = 16.0 * std::log(n) / n;
  const Digraph g = graph::gnp_directed(n, p, grng);
  TdmaGossipProtocol proto;
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 50 * n * 10;
  const auto r = engine.run(g, proto, Rng(17), options);
  ASSERT_TRUE(r.completed);
  // One transmission per slot: rounds == total transmissions.
  EXPECT_EQ(r.ledger.total_transmissions, r.completion_round);
  // Takes at least a couple of full sweeps.
  EXPECT_GT(r.completion_round, n);
}

}  // namespace
}  // namespace radnet::baselines
