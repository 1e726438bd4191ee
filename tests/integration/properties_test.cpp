// Parameterised property sweeps: invariants that must hold for *every*
// (n, p, seed) combination, run over a grid (TEST_P as the property-based
// harness).
#include <gtest/gtest.h>

#include <cmath>

#include "core/broadcast_general.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sim/engine.hpp"
#include "support/math.hpp"

namespace radnet {
namespace {

using graph::Digraph;

struct GnpCase {
  std::uint32_t n;
  double degree_mult;  // p = degree_mult * ln n / n
  std::uint64_t seed;
};

void PrintTo(const GnpCase& c, std::ostream* os) {
  *os << "n=" << c.n << " mult=" << c.degree_mult << " seed=" << c.seed;
}

class Alg1Properties : public ::testing::TestWithParam<GnpCase> {};

TEST_P(Alg1Properties, InvariantsOnEverySeed) {
  const auto c = GetParam();
  const double p = c.degree_mult * std::log(c.n) / c.n;
  Rng grng(c.seed);
  const Digraph g = graph::gnp_directed(c.n, p, grng);

  core::BroadcastRandomProtocol proto(core::BroadcastRandomParams{.p = p});
  sim::RunOptions options;
  core::BroadcastRandomProtocol probe(core::BroadcastRandomParams{.p = p});
  probe.reset(c.n, Rng(0));
  options.max_rounds = probe.round_budget();
  options.record_trace = true;
  sim::Engine engine;
  const auto r = engine.run(g, proto, Rng(c.seed * 31 + 7), options);

  // P1: nobody ever transmits twice (Theorem 2.1's energy invariant).
  EXPECT_LE(r.ledger.max_tx_per_node(), 1u);

  // P2: only informed nodes transmit — a node's first transmission can
  // never precede the round after it was informed.
  std::vector<sim::Round> informed_at(c.n, 0);
  std::vector<char> informed(c.n, 0);
  informed[0] = 1;
  for (const auto& round : r.trace.rounds) {
    for (const auto v : round.transmitters)
      EXPECT_TRUE(informed[v]) << "uninformed transmitter " << v;
    for (const auto& d : round.deliveries) {
      if (!informed[d.receiver]) {
        informed[d.receiver] = 1;
        informed_at[d.receiver] = round.round + 1;
      }
    }
  }

  // P3: deliveries equal informed count growth (every informed node except
  // the source heard exactly one clean transmission first).
  const std::size_t informed_total =
      static_cast<std::size_t>(std::count(informed.begin(), informed.end(), 1));
  EXPECT_EQ(informed_total, proto.informed_count());

  // P4: if the graph is reachable from the source and the run completed,
  // every node is informed; if it is not reachable, the run cannot
  // complete.
  const bool reachable = graph::all_reachable_from(g, 0);
  if (r.completed) {
    EXPECT_TRUE(reachable);
    EXPECT_EQ(proto.informed_count(), c.n);
  }
  if (!reachable) {
    EXPECT_FALSE(r.completed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Alg1Properties,
    ::testing::Values(
        GnpCase{256, 8.0, 1}, GnpCase{256, 8.0, 2}, GnpCase{256, 16.0, 3},
        GnpCase{512, 8.0, 4}, GnpCase{512, 16.0, 5}, GnpCase{512, 32.0, 6},
        GnpCase{1024, 8.0, 7}, GnpCase{1024, 16.0, 8}, GnpCase{2048, 8.0, 9},
        GnpCase{2048, 24.0, 10}, GnpCase{333, 9.0, 11}, GnpCase{777, 12.0, 12}));

class GossipProperties : public ::testing::TestWithParam<GnpCase> {};

TEST_P(GossipProperties, KnowledgeOnlyGrowsAndCompletesExactly) {
  const auto c = GetParam();
  const double p = c.degree_mult * std::log(c.n) / c.n;
  Rng grng(c.seed + 1000);
  const Digraph g = graph::gnp_directed(c.n, p, grng);
  if (!graph::strongly_connected(g)) GTEST_SKIP() << "disconnected sample";

  core::GossipRandomProtocol proto(core::GossipRandomParams{.p = p});
  sim::Engine engine;
  sim::RunOptions options;
  core::GossipRandomProtocol probe(core::GossipRandomParams{.p = p});
  probe.reset(c.n, Rng(0));
  options.max_rounds = probe.round_budget();
  const auto r = engine.run(g, proto, Rng(c.seed * 17 + 3), options);
  ASSERT_TRUE(r.completed);

  // Exactly n rumors per node, no more (no phantom rumors).
  for (graph::NodeId v = 0; v < c.n; ++v)
    ASSERT_EQ(proto.rumors_known(v), c.n);
  // Deliveries imply transmissions: can't hear more distinct senders than
  // transmissions happened.
  EXPECT_LE(r.ledger.total_deliveries,
            r.ledger.total_transmissions * static_cast<std::uint64_t>(c.n));
}

INSTANTIATE_TEST_SUITE_P(Grid, GossipProperties,
                         ::testing::Values(GnpCase{96, 10.0, 1},
                                           GnpCase{128, 10.0, 2},
                                           GnpCase{160, 14.0, 3},
                                           GnpCase{192, 10.0, 4},
                                           GnpCase{224, 12.0, 5}));

struct Alg3Case {
  std::uint32_t n;
  std::uint32_t kind;  // 0 path, 1 grid, 2 cluster chain
  std::uint64_t seed;
};

void PrintTo(const Alg3Case& c, std::ostream* os) {
  *os << "n=" << c.n << " kind=" << c.kind << " seed=" << c.seed;
}

class Alg3Properties : public ::testing::TestWithParam<Alg3Case> {};

TEST_P(Alg3Properties, ActiveWindowBoundsPerNodeEnergy) {
  const auto c = GetParam();
  Digraph g;
  switch (c.kind) {
    case 0:
      g = graph::path(c.n);
      break;
    case 1: {
      const auto side = static_cast<graph::NodeId>(std::sqrt(c.n));
      g = graph::grid(side, side);
      break;
    }
    default:
      g = graph::cluster_chain(8, c.n / 8);
  }
  const auto dia = graph::diameter_exact(g);
  ASSERT_TRUE(dia.has_value());
  const std::uint64_t n = g.num_nodes();

  const sim::Round window = core::general_window(n, 2.0);
  core::GeneralBroadcastProtocol proto(core::GeneralBroadcastParams{
      .schedule = core::sequence_schedule(
          core::SequenceDistribution::alpha(n, *dia)),
      .window = window,
      .source = 0,
      .label = ""});
  sim::RunOptions options;
  options.max_rounds =
      core::general_round_budget(n, *dia, lambda_of(n, *dia), 64.0);
  options.stop_on_empty_candidates = true;
  options.record_trace = true;
  sim::Engine engine;
  const auto r = engine.run(g, proto, Rng(c.seed * 13 + 1), options);

  // P1: no node transmits more often than its active window allows.
  EXPECT_LE(r.ledger.max_tx_per_node(), window);

  // P2: a node never transmits outside [informed_time, informed_time+window).
  std::vector<sim::Round> informed_time(n, 0);
  std::vector<char> informed(n, 0);
  informed[0] = 1;
  for (const auto& round : r.trace.rounds) {
    for (const auto v : round.transmitters) {
      ASSERT_TRUE(informed[v]);
      ASSERT_LT(round.round, informed_time[v] + window)
          << "node " << v << " transmitted after its window";
    }
    for (const auto& d : round.deliveries) {
      if (!informed[d.receiver]) {
        informed[d.receiver] = 1;
        informed_time[d.receiver] = round.round + 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, Alg3Properties,
                         ::testing::Values(Alg3Case{64, 0, 1}, Alg3Case{64, 0, 2},
                                           Alg3Case{100, 1, 3},
                                           Alg3Case{144, 1, 4},
                                           Alg3Case{64, 2, 5},
                                           Alg3Case{128, 2, 6}));

}  // namespace
}  // namespace radnet
