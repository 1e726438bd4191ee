#include "core/gossip_random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace radnet::core {
namespace {

using graph::Digraph;

TEST(GossipRandomTest, RoundBudgetMatchesFormula) {
  GossipRandomProtocol proto(GossipRandomParams{.p = 0.05, .round_factor = 128});
  proto.reset(1024, Rng(1));
  const double d = 1024 * 0.05;
  EXPECT_EQ(proto.round_budget(),
            static_cast<sim::Round>(std::ceil(128 * d * std::log2(1024.0))));
  EXPECT_NEAR(proto.degree(), d, 1e-9);
}

TEST(GossipRandomTest, InitialKnowledgeIsOwnRumor) {
  GossipRandomProtocol proto(GossipRandomParams{.p = 0.1});
  proto.reset(64, Rng(1));
  for (graph::NodeId v = 0; v < 64; ++v) EXPECT_EQ(proto.rumors_known(v), 1u);
  EXPECT_EQ(proto.pairs_known(), 64u);
  EXPECT_FALSE(proto.is_complete());
}

TEST(GossipRandomTest, CompletesOnRandomGraphAndEveryoneKnowsEverything) {
  const std::uint32_t n = 256;
  const double p = 16.0 * std::log(n) / n;
  Rng grng(5);
  const Digraph g = graph::gnp_directed(n, p, grng);
  GossipRandomProtocol proto(GossipRandomParams{.p = p});
  sim::Engine engine;
  sim::RunOptions options;
  GossipRandomProtocol probe(GossipRandomParams{.p = p});
  probe.reset(n, Rng(0));
  options.max_rounds = probe.round_budget();
  const auto r = engine.run(g, proto, Rng(6), options);
  ASSERT_TRUE(r.completed);
  for (graph::NodeId v = 0; v < n; ++v)
    ASSERT_EQ(proto.rumors_known(v), n) << "node " << v;
  EXPECT_EQ(proto.pairs_known(), static_cast<std::uint64_t>(n) * n);
}

TEST(GossipRandomTest, TimeScalesWithDLogN) {
  // Theorem 3.2: O(d log n) rounds. Normalised completion time should stay
  // in a constant band across sizes and densities.
  struct Case {
    std::uint32_t n;
    double dmul;
  };
  for (const auto c : {Case{128, 12.0}, Case{256, 12.0}, Case{256, 24.0},
                       Case{512, 12.0}}) {
    const double p = c.dmul * std::log(c.n) / c.n;
    const double d = c.n * p;
    Rng grng(c.n + static_cast<std::uint64_t>(c.dmul));
    const Digraph g = graph::gnp_directed(c.n, p, grng);
    GossipRandomProtocol proto(GossipRandomParams{.p = p});
    sim::Engine engine;
    sim::RunOptions options;
    GossipRandomProtocol probe(GossipRandomParams{.p = p});
    probe.reset(c.n, Rng(0));
    options.max_rounds = probe.round_budget();
    const auto r = engine.run(g, proto, Rng(c.n), options);
    ASSERT_TRUE(r.completed) << "n=" << c.n;
    const double normalised =
        static_cast<double>(r.completion_round) / (d * std::log2(c.n));
    EXPECT_LT(normalised, 8.0) << "n=" << c.n << " d=" << d;
  }
}

TEST(GossipRandomTest, PerNodeTransmissionsAreLogarithmic) {
  // Theorem 3.2: every node performs O(log n) transmissions w.h.p. Because
  // the engine stops at completion (earlier than the 128 d log n budget),
  // the bound translates to max_tx <= c * rounds / d.
  const std::uint32_t n = 256;
  const double p = 16.0 * std::log(n) / n;
  Rng grng(7);
  const Digraph g = graph::gnp_directed(n, p, grng);
  GossipRandomProtocol proto(GossipRandomParams{.p = p});
  sim::Engine engine;
  sim::RunOptions options;
  GossipRandomProtocol probe(GossipRandomParams{.p = p});
  probe.reset(n, Rng(0));
  options.max_rounds = probe.round_budget();
  const auto r = engine.run(g, proto, Rng(8), options);
  ASSERT_TRUE(r.completed);
  const double d = n * p;
  const double expected_per_node =
      static_cast<double>(r.completion_round) / d;
  EXPECT_LT(r.ledger.max_tx_per_node(), 4.0 * expected_per_node + 16.0);
}

TEST(GossipRandomTest, MonotoneKnowledge) {
  // pairs_known never decreases and is bounded by n^2 — checked through a
  // round observer.
  const std::uint32_t n = 128;
  const double p = 16.0 * std::log(n) / n;
  Rng grng(9);
  const Digraph g = graph::gnp_directed(n, p, grng);
  GossipRandomProtocol proto(GossipRandomParams{.p = p});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 100000;
  std::uint64_t last = 0;
  bool monotone = true;
  options.round_observer = [&](sim::Round) {
    const std::uint64_t now = proto.pairs_known();
    if (now < last) monotone = false;
    last = now;
  };
  const auto r = engine.run(g, proto, Rng(10), options);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(last, static_cast<std::uint64_t>(n) * n);
}

TEST(GossipRandomTest, StopsTransmittingAfterBudget) {
  // After round_budget rounds every node refuses to transmit; on a graph
  // that cannot complete (disconnected) the ledger stops growing.
  const Digraph g(8, {});  // no edges
  GossipRandomProtocol proto(GossipRandomParams{.p = 0.3, .round_factor = 1.0});
  sim::Engine engine;
  sim::RunOptions options;
  GossipRandomProtocol probe(GossipRandomParams{.p = 0.3, .round_factor = 1.0});
  probe.reset(8, Rng(0));
  options.max_rounds = probe.round_budget() + 50;
  const auto r = engine.run(g, proto, Rng(11), options);
  EXPECT_FALSE(r.completed);
  // Expected transmissions: budget * n * (1/d) = budget * n / (n p).
  EXPECT_LT(r.ledger.total_transmissions,
            static_cast<std::uint64_t>(probe.round_budget()) * 8);
}

TEST(GossipRumorMarginalTest, SenderRelaysOnlyItsStartOfRoundKnowledge) {
  // Full duplex lets node 1 hear the source and transmit in the same
  // round. What node 1 transmitted was its start-of-round state, so node 2
  // must not learn the rumor from it this round — whatever order the
  // round's deliveries are applied in.
  GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = 0.5});
  proto.reset(3, Rng(1));
  proto.on_delivered(1, 0, 0);
  proto.on_delivered(2, 1, 0);
  proto.end_round(0);
  EXPECT_EQ(proto.knowers(), 2u);
  // Next round node 1 knew the rumor from the start: the relay works.
  proto.on_delivered(2, 1, 1);
  proto.end_round(1);
  EXPECT_EQ(proto.knowers(), 3u);
  EXPECT_TRUE(proto.is_complete());
}

TEST(GossipRumorMarginalTest, FullDuplexSpreadsOneHopPerRound) {
  // Directed path 0 -> 1 -> ... -> n-1 under full duplex: after round r
  // (0-based) at most r + 2 nodes can know the rumor. The engine applies
  // deliveries in ascending listener order, the order that would chain
  // relays along the path if a sender's in-round copy counted.
  const graph::NodeId n = 8;
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  const Digraph g(n, edges);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = 0.2});
    sim::RunOptions options;
    options.half_duplex = false;
    options.max_rounds = 64;
    options.round_observer = [&](sim::Round r) {
      ASSERT_LE(proto.knowers(), std::min<graph::NodeId>(n, r + 2))
          << "seed " << seed << " round " << r;
    };
    sim::Engine engine;
    const sim::RunResult result = engine.run(g, proto, Rng(seed), options);
    EXPECT_TRUE(result.completed) << "seed " << seed;
  }
}

TEST(GossipRandomTest, InvalidParamsThrow) {
  EXPECT_THROW(GossipRandomProtocol(GossipRandomParams{.p = 0.0}),
               std::invalid_argument);
  GossipRandomProtocol proto(GossipRandomParams{.p = 0.001});
  EXPECT_THROW(proto.reset(100, Rng(1)), std::invalid_argument);  // d < 1
  EXPECT_THROW((void)proto.rumors_known(500), std::invalid_argument);
}

}  // namespace
}  // namespace radnet::core
