// Property test: the optimised Engine and the first-principles
// ReferenceEngine must agree event-for-event on identical inputs. Agreement
// over random graphs, random protocols and many seeds is the main evidence
// that Engine implements the paper's reception rule (exactly one
// transmitting in-neighbour) correctly.
#include <cmath>

#include <gtest/gtest.h>

#include "core/broadcast_general.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "test_protocols.hpp"

namespace radnet::sim {
namespace {

using graph::Digraph;
using testing::NoisyProtocol;

struct EquivCase {
  std::uint64_t seed;
  double p_edge;
  double q_tx;
  bool half_duplex;
};

class EngineEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EngineEquivalence, EnginesAgreeOnGnp) {
  const auto c = GetParam();
  Rng graph_rng(c.seed);
  const Digraph g = graph::gnp_directed(200, c.p_edge, graph_rng);

  RunOptions options;
  options.half_duplex = c.half_duplex;

  NoisyProtocol p1(c.q_tx, 40);
  Engine fast;
  const RunResult r1 = fast.run(g, p1, Rng(c.seed + 1), options);

  NoisyProtocol p2(c.q_tx, 40);
  ReferenceEngine slow;
  const RunResult r2 = slow.run(g, p2, Rng(c.seed + 1), options);

  EXPECT_EQ(p1.digest(), p2.digest());
  EXPECT_EQ(r1.ledger.total_transmissions, r2.ledger.total_transmissions);
  EXPECT_EQ(r1.ledger.total_deliveries, r2.ledger.total_deliveries);
  EXPECT_EQ(r1.ledger.total_collisions, r2.ledger.total_collisions);
  EXPECT_EQ(r1.ledger.tx_per_node, r2.ledger.tx_per_node);
  EXPECT_EQ(r1.rounds_executed, r2.rounds_executed);
  EXPECT_EQ(r1.completed, r2.completed);
}

INSTANTIATE_TEST_SUITE_P(
    SeedSweep, EngineEquivalence,
    ::testing::Values(
        EquivCase{11, 0.005, 0.02, true}, EquivCase{12, 0.005, 0.02, false},
        EquivCase{13, 0.02, 0.1, true}, EquivCase{14, 0.02, 0.1, false},
        EquivCase{15, 0.05, 0.5, true}, EquivCase{16, 0.05, 0.5, false},
        EquivCase{17, 0.1, 0.9, true}, EquivCase{18, 0.001, 0.01, true},
        EquivCase{19, 0.2, 0.3, false}, EquivCase{20, 0.5, 0.05, true}));

void expect_same_run(const RunResult& r1, const RunResult& r2) {
  EXPECT_EQ(r1.ledger.total_transmissions, r2.ledger.total_transmissions);
  EXPECT_EQ(r1.ledger.total_deliveries, r2.ledger.total_deliveries);
  EXPECT_EQ(r1.ledger.total_collisions, r2.ledger.total_collisions);
  EXPECT_EQ(r1.ledger.tx_per_node, r2.ledger.tx_per_node);
  EXPECT_EQ(r1.rounds_executed, r2.rounds_executed);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.completion_round, r2.completion_round);
}

// Gossip (Algorithm 2) exercises paths broadcast never does: every node a
// candidate forever, the bulk sample_transmitters hook, rumor-set joins on
// delivery. Both engines must agree bit-for-bit, protocol state included.
TEST(EngineEquivalenceProtocols, GossipAgreesWithReferenceEngine) {
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    Rng graph_rng(seed);
    const std::uint32_t n = 96;
    const double p = 8.0 * std::log(n) / n;
    const Digraph g = graph::gnp_directed(n, p, graph_rng);

    core::GossipRandomProtocol p1(core::GossipRandomParams{.p = p});
    core::GossipRandomProtocol p2(core::GossipRandomParams{.p = p});
    RunOptions options;
    options.max_rounds = 4096;

    Engine fast;
    const RunResult r1 = fast.run(g, p1, Rng(seed + 1), options);
    ReferenceEngine slow;
    const RunResult r2 = slow.run(g, p2, Rng(seed + 1), options);

    expect_same_run(r1, r2);
    EXPECT_EQ(p1.pairs_known(), p2.pairs_known());
    for (graph::NodeId v = 0; v < n; ++v)
      ASSERT_EQ(p1.rumors_known(v), p2.rumors_known(v)) << "node " << v;
  }
}

// General broadcast (Algorithm 3) draws a *shared* per-round coin in
// begin_round and walks nodes through informed/active windows — a third
// randomness-consumption pattern. Cross-check on a cluster chain (the
// known-diameter topology family it is designed for) and a sparse G(n,p).
TEST(EngineEquivalenceProtocols, GeneralBroadcastAgreesWithReferenceEngine) {
  std::vector<std::pair<Digraph, std::uint64_t>> cases;
  cases.emplace_back(graph::cluster_chain(8, 8), 9);
  {
    Rng grng(41);
    cases.emplace_back(graph::gnp_directed(128, 0.06, grng), 4);
  }
  for (std::uint64_t seed = 51; const auto& [g, diameter] : cases) {
    const std::uint64_t n = g.num_nodes();
    const auto make = [&] {
      return core::GeneralBroadcastProtocol(core::GeneralBroadcastParams{
          .schedule = core::sequence_schedule(
              core::SequenceDistribution::alpha(n, diameter)),
          .window = core::general_window(n, 4.0),
          .source = 0,
          .label = ""});
    };
    RunOptions options;
    options.max_rounds = 4096;
    options.stop_on_empty_candidates = true;
    options.run_to_quiescence = true;  // the honest-energy configuration

    auto p1 = make();
    Engine fast;
    const RunResult r1 = fast.run(g, p1, Rng(seed), options);
    auto p2 = make();
    ReferenceEngine slow;
    const RunResult r2 = slow.run(g, p2, Rng(seed), options);

    expect_same_run(r1, r2);
    EXPECT_EQ(p1.informed_count(), p2.informed_count());
    EXPECT_TRUE(r1.completed);
    ++seed;
  }
}

TEST(EngineEquivalenceTraces, TracesIdenticalOnStar) {
  const Digraph g = graph::star(30);
  RunOptions options;
  options.record_trace = true;

  NoisyProtocol p1(0.2, 25);
  Engine fast;
  const RunResult r1 = fast.run(g, p1, Rng(77), options);

  NoisyProtocol p2(0.2, 25);
  ReferenceEngine slow;
  const RunResult r2 = slow.run(g, p2, Rng(77), options);

  ASSERT_EQ(r1.trace.rounds.size(), r2.trace.rounds.size());
  for (std::size_t i = 0; i < r1.trace.rounds.size(); ++i) {
    const auto& a = r1.trace.rounds[i];
    const auto& b = r2.trace.rounds[i];
    EXPECT_EQ(a.transmitters, b.transmitters) << "round " << i;
    EXPECT_EQ(a.deliveries, b.deliveries) << "round " << i;
    EXPECT_EQ(a.collisions, b.collisions) << "round " << i;
  }
}

TEST(EngineEquivalenceTraces, EveryDeliveryHasUniqueTransmittingInNeighbor) {
  // Causality invariant checked straight from the trace against the graph.
  Rng graph_rng(5);
  const Digraph g = graph::gnp_directed(150, 0.03, graph_rng);
  RunOptions options;
  options.record_trace = true;
  NoisyProtocol p(0.1, 30);
  Engine engine;
  const RunResult r = engine.run(g, p, Rng(6), options);
  for (const auto& round : r.trace.rounds) {
    std::vector<char> tx(g.num_nodes(), 0);
    for (const auto v : round.transmitters) tx[v] = 1;
    for (const auto& d : round.deliveries) {
      ASSERT_TRUE(tx[d.sender]);
      ASSERT_TRUE(g.has_edge(d.sender, d.receiver));
      int heard = 0;
      for (const auto u : g.in_neighbors(d.receiver)) heard += tx[u];
      ASSERT_EQ(heard, 1) << "receiver " << d.receiver;
    }
    for (const auto v : round.collisions) {
      int heard = 0;
      for (const auto u : g.in_neighbors(v)) heard += tx[u];
      ASSERT_GE(heard, 2) << "collision at " << v;
    }
  }
}

}  // namespace
}  // namespace radnet::sim
