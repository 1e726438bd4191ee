// Failure injection: what happens when the world misbehaves — partitioned
// networks, adversarial protocols, dead radios. The library must fail
// loudly (engine invariants) or report honestly (success rates), never hang
// or fabricate completions.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/broadcast_baselines.hpp"
#include "core/broadcast_general.hpp"
#include "core/broadcast_random.hpp"
#include "core/dynamic_gossip.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace radnet {
namespace {

using graph::Digraph;
using graph::NodeId;

/// A protocol that lies about its candidates (out-of-range node id).
class RogueCandidateProtocol final : public sim::Protocol {
 public:
  void reset(NodeId n, Rng) override { bogus_ = {static_cast<NodeId>(n + 7)}; }
  [[nodiscard]] std::span<const NodeId> candidates() const override {
    return {bogus_.data(), bogus_.size()};
  }
  [[nodiscard]] bool wants_transmit(NodeId, sim::Round) override { return true; }
  void on_delivered(NodeId, NodeId, sim::Round) override {}
  [[nodiscard]] bool is_complete() const override { return false; }
  [[nodiscard]] std::string name() const override { return "rogue"; }

 private:
  std::vector<NodeId> bogus_;
};

TEST(FailureInjection, EngineRejectsOutOfRangeCandidates) {
  const Digraph g = graph::path(4);
  RogueCandidateProtocol p;
  sim::Engine engine;
  EXPECT_THROW((void)engine.run(g, p, Rng(1)), std::logic_error);
}

TEST(FailureInjection, PartitionedGraphReportsFailureNotSuccess) {
  // Two disjoint cliques: broadcast from one side can never finish.
  std::vector<graph::Edge> edges;
  for (NodeId u = 0; u < 8; ++u)
    for (NodeId v = 0; v < 8; ++v)
      if (u != v) {
        edges.push_back({u, v});
        edges.push_back({static_cast<NodeId>(u + 8), static_cast<NodeId>(v + 8)});
      }
  const Digraph g(16, edges);
  core::GeneralBroadcastProtocol proto(core::GeneralBroadcastParams{
      .schedule = core::sequence_schedule(
          core::SequenceDistribution::alpha(16, 2)),
      .window = 0,
      .source = 0,
      .label = ""});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 2000;
  const auto r = engine.run(g, proto, Rng(2), options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(proto.informed_count(), 8u);  // exactly the source's side
}

TEST(FailureInjection, OneWayLinksBreakGossipHonestly) {
  // Asymmetric radio failure: one node loses all *outgoing* links (mute,
  // but still able to listen). Its rumor can never leave it, so gossip must
  // report incompletion while everything else still spreads.
  std::vector<graph::Edge> edges;
  const NodeId n = 12;
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.push_back({v, static_cast<NodeId>(v + 1)});
    edges.push_back({static_cast<NodeId>(v + 1), v});
  }
  // Node n-1 keeps its in-link but loses its out-links: remove by rebuilding.
  std::vector<graph::Edge> pruned;
  for (const auto& e : edges)
    if (e.from != n - 1) pruned.push_back(e);
  const Digraph g(n, pruned);

  core::GossipRandomProtocol proto(core::GossipRandomParams{.p = 4.0 / n});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 50000;
  const auto r = engine.run(g, proto, Rng(3), options);
  EXPECT_FALSE(r.completed);
  // Everyone else's rumors still spread; only the mute node's rumor stays
  // put.
  EXPECT_EQ(proto.rumors_known(n - 1), n);  // it can hear everything
  EXPECT_EQ(proto.rumors_known(0), n - 1u); // but nobody hears it
}

TEST(FailureInjection, ChurnBelowConnectivityDegradesCoverageNotCrash) {
  // Dynamic gossip on a sparse, frequently-disconnected churn graph: the
  // service degrades (stale/missing entries) but the run stays sane.
  const NodeId n = 64;
  const double p = 1.5 / n;  // way below the log n / n threshold
  graph::ChurnGnp topo(n, p, 0.2, Rng(4));
  core::DynamicGossipProtocol proto(core::DynamicGossipParams{
      .p = 4.0 / n, .regen_interval = 1, .ttl = 64});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 2000;
  (void)engine.run(topo, proto, Rng(5), options);
  EXPECT_LT(proto.coverage(), 1.0);   // genuinely degraded
  EXPECT_GT(proto.coverage(), 0.0);   // but not dead
  EXPECT_LE(proto.staleness().max, 64u);  // TTL enforced
}

TEST(FailureInjection, ZeroDegreeSourceCannotBroadcast) {
  // The source's radio reaches nobody.
  const Digraph g(5, {{1, 2}, {2, 3}, {3, 4}});
  core::BroadcastRandomProtocol proto(
      core::BroadcastRandomParams{.p = 0.5, .source = 0});
  sim::Engine engine;
  sim::RunOptions options;
  options.max_rounds = 512;
  const auto r = engine.run(g, proto, Rng(6), options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(proto.informed_count(), 1u);
  EXPECT_LE(r.ledger.total_transmissions, 1u);  // the source's single shot
}

TEST(FailureInjection, WeightedEnergyOrderingRobustToRxCost) {
  // The paper argues #transmissions is the right energy proxy. Check the
  // alg1-beats-decay ordering survives adding reception costs (it must:
  // decay also causes more receptions).
  const std::uint32_t n = 1024;
  const double p = 8.0 * std::log(n) / n;
  Rng grng(7);
  const Digraph g = graph::gnp_directed(n, p, grng);

  core::BroadcastRandomProtocol alg1(core::BroadcastRandomParams{.p = p});
  sim::Engine e1;
  sim::RunOptions options;
  options.max_rounds = 4096;
  const auto r1 = e1.run(g, alg1, Rng(8), options);
  ASSERT_TRUE(r1.completed);

  core::GeneralBroadcastProtocol decay(baselines::decay_params(n));
  sim::Engine e2;
  const auto r2 = e2.run(g, decay, Rng(8), options);
  ASSERT_TRUE(r2.completed);

  for (const double rx : {0.0, 0.1, 0.5, 1.0}) {
    const sim::EnergyModel m{.tx_cost = 1.0, .rx_cost = rx, .idle_cost = 0.0};
    EXPECT_LT(r1.ledger.energy(m), r2.ledger.energy(m)) << "rx=" << rx;
  }
}

}  // namespace
}  // namespace radnet
