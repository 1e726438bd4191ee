// Unit semantics of the adversary & fault-injection layer
// (sim/adversary.hpp) on hand-built explicit topologies where every
// consequence is exactly predictable:
//
//   * directed path 0 -> 1 -> ... -> n-1 under flooding: one informed
//     transmitter per round, no collisions — so the first jammer (or first
//     Byzantine relay) on the path determines the stranded suffix exactly;
//   * directed cycle under flooding with budget 1: exactly one delivery
//     per round, pinning the silent-exhaustion reception suppression to a
//     single event;
//   * a crash-all / recover-all schedule freezes and resumes the path
//     wavefront deterministically.
//
// The final test drives AdversaryState::apply directly for many rounds and
// asserts the transmitter buffer never reallocates (the reserve-once
// contract of AdversaryState::reserve_for).
#include <vector>

#include <gtest/gtest.h>

#include "baselines/broadcast_baselines.hpp"
#include "graph/digraph.hpp"
#include "sim/engine.hpp"

namespace radnet::sim {
namespace {

using core::GeneralBroadcastProtocol;
using graph::Digraph;
using graph::Edge;
using graph::NodeId;

Digraph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Digraph(n, std::move(edges));
}

Digraph cycle_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return Digraph(n, std::move(edges));
}

TEST(AdversarySpecTest, ValidatesFractionsAndSchedule) {
  AdversarySpec ok;
  ok.jammer_fraction = 0.1;
  ok.byzantine_fraction = 0.2;
  EXPECT_NO_THROW(ok.validate());

  AdversarySpec jam_all;
  jam_all.jammer_fraction = 1.0;  // everyone jams: nothing left to measure
  EXPECT_THROW(jam_all.validate(), std::invalid_argument);

  AdversarySpec over;
  over.jammer_fraction = 0.6;
  over.byzantine_fraction = 0.6;  // roles are exclusive; fractions cannot sum past 1
  EXPECT_THROW(over.validate(), std::invalid_argument);

  AdversarySpec spread;
  spread.budget_mean = 5.0;
  spread.budget_spread = 1.5;
  EXPECT_THROW(spread.validate(), std::invalid_argument);

  AdversarySpec unsorted;
  unsorted.fault_schedule = {{10, FaultEvent::Kind::kCrash, 0.5},
                             {5, FaultEvent::Kind::kRecover, 0.5}};
  EXPECT_THROW(unsorted.validate(), std::invalid_argument);

  AdversarySpec bad_fraction;
  bad_fraction.fault_schedule = {{3, FaultEvent::Kind::kCrash, 1.5}};
  EXPECT_THROW(bad_fraction.validate(), std::invalid_argument);
}

TEST(AdversaryStateTest, RolesRespectProtectionAndDeterminism) {
  const NodeId n = 2000;
  AdversarySpec adv;
  adv.jammer_fraction = 0.2;
  adv.byzantine_fraction = 0.2;
  adv.protected_nodes = {0, 1, 2};
  adv.seed = 0x90135;

  AdversaryState a;
  AdversaryStats sa;
  a.reset(n, adv, sa);
  EXPECT_GT(sa.jammer_count, 0u);
  EXPECT_GT(sa.byzantine_count, 0u);
  for (const NodeId v : adv.protected_nodes) {
    EXPECT_FALSE(a.is_jammer(v));
    EXPECT_FALSE(a.is_byzantine(v));
  }
  // jammers() is ascending and consistent with is_jammer.
  NodeId count = 0, prev = 0;
  for (const NodeId j : a.jammers()) {
    if (count > 0) {
      EXPECT_LT(prev, j);
    }
    EXPECT_TRUE(a.is_jammer(j));
    prev = j;
    ++count;
  }
  EXPECT_EQ(count, sa.jammer_count);

  // Same spec, fresh state: identical draw (pure function of the seed).
  AdversaryState b;
  AdversaryStats sb;
  b.reset(n, adv, sb);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a.is_jammer(v), b.is_jammer(v));
    EXPECT_EQ(a.is_byzantine(v), b.is_byzantine(v));
  }
}

TEST(AdversaryEngineTest, JammerStrandsExactPathSuffix) {
  const NodeId n = 60;
  AdversarySpec adv;
  adv.jammer_fraction = 0.15;
  adv.protected_nodes = {0};
  adv.seed = 0x1a2b;

  // Recover the drawn roles (reset is a pure function of the spec).
  AdversaryState roles;
  AdversaryStats rstats;
  roles.reset(n, adv, rstats);
  ASSERT_GT(rstats.jammer_count, 0u);
  NodeId first_jammer = n;
  for (NodeId v = 0; v < n && first_jammer == n; ++v)
    if (roles.is_jammer(v)) first_jammer = v;
  ASSERT_LT(first_jammer, n - 1);  // holds for this seed

  const Digraph g = path_graph(n);
  GeneralBroadcastProtocol proto(baselines::flooding_params());
  RunOptions options;
  options.max_rounds = 300;
  options.adversary = adv;
  Engine engine;
  const RunResult r = engine.run(g, proto, Rng(3), options);

  // The first jammer's successor hears noise every round; nothing behind
  // it can ever be validly informed, so the honest informed prefix is
  // exactly {0, ..., first_jammer - 1}.
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.adversary.jammer_count, rstats.jammer_count);
  EXPECT_GT(r.adversary.jammer_tx, 0u);
  EXPECT_GT(r.adversary.jammed_deliveries, 0u);
  ASSERT_TRUE(proto.stranded_count().has_value());
  EXPECT_EQ(*proto.stranded_count(), n - rstats.jammer_count - first_jammer);
}

TEST(AdversaryEngineTest, ByzantineRelayCorruptsExactPathSuffix) {
  const NodeId n = 60;
  AdversarySpec adv;
  adv.byzantine_fraction = 0.1;
  adv.protected_nodes = {0};
  adv.seed = 0x3c4d;

  AdversaryState roles;
  AdversaryStats rstats;
  roles.reset(n, adv, rstats);
  ASSERT_GT(rstats.byzantine_count, 0u);
  NodeId first_byz = n;
  for (NodeId v = 0; v < n && first_byz == n; ++v)
    if (roles.is_byzantine(v)) first_byz = v;
  ASSERT_LT(first_byz, n - 1);  // holds for this seed

  const Digraph g = path_graph(n);
  GeneralBroadcastProtocol proto(baselines::flooding_params());
  RunOptions options;
  options.max_rounds = 200;
  options.adversary = adv;
  Engine engine;
  const RunResult r = engine.run(g, proto, Rng(5), options);

  // Every node still *believes* it is informed (the corruption is
  // undetectable and keeps being relayed), but valid copies stop at the
  // first Byzantine node: nodes {first_byz + 1, ..., n-1} are stranded.
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(proto.informed_count(), n);
  EXPECT_GT(r.adversary.corrupted_deliveries, 0u);
  ASSERT_TRUE(proto.stranded_count().has_value());
  EXPECT_EQ(*proto.stranded_count(), n - 1 - first_byz);
}

TEST(AdversaryEngineTest, BudgetListenOnlyStillCompletesWithinCap) {
  const NodeId n = 40;
  AdversarySpec adv;
  adv.budget_mean = 3.0;  // spread 0: every node gets exactly 3 transmissions

  const Digraph g = path_graph(n);
  GeneralBroadcastProtocol proto(baselines::flooding_params());
  RunOptions options;
  options.max_rounds = 300;
  options.adversary = adv;
  Engine engine;
  const RunResult r = engine.run(g, proto, Rng(7), options);

  // The wavefront only needs each node's first transmission, so the
  // broadcast completes on schedule — but no node ever exceeds its budget,
  // and exhausted nodes keep *attempting* (flooding never stops wanting
  // to transmit), which is what blocked_tx counts.
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.completion_round, n - 1);
  EXPECT_LE(r.ledger.max_tx_per_node(), 3u);
  EXPECT_GT(r.adversary.exhausted_count, 0u);
  EXPECT_GT(r.adversary.blocked_tx, 0u);
  EXPECT_EQ(r.adversary.suppressed_receptions, 0u);  // listen-only mode
}

TEST(AdversaryEngineTest, SilentExhaustionSuppressesExactlyOneReception) {
  // Cycle with budget 1: node k transmits exactly once, in round k, so
  // every round has exactly one delivery. The only delivery aimed at an
  // exhausted radio is n-1 -> 0 in round n-1; silent mode drops it,
  // listen-only mode lets it through (a harmless repeat).
  const NodeId n = 30;
  const Digraph g = cycle_graph(n);
  const auto run_with = [&](AdversarySpec::ExhaustMode mode) {
    AdversarySpec adv;
    adv.budget_mean = 1.0;
    adv.exhaust_mode = mode;
    GeneralBroadcastProtocol proto(baselines::flooding_params());
    RunOptions options;
    options.max_rounds = n + 5;
    options.run_to_quiescence = true;
    options.adversary = adv;
    Engine engine;
    return engine.run(g, proto, Rng(11), options);
  };

  const RunResult silent = run_with(AdversarySpec::ExhaustMode::kSilent);
  const RunResult listen = run_with(AdversarySpec::ExhaustMode::kListenOnly);
  EXPECT_TRUE(silent.completed);
  EXPECT_TRUE(listen.completed);
  EXPECT_EQ(silent.completion_round, listen.completion_round);
  EXPECT_EQ(silent.adversary.suppressed_receptions, 1u);
  EXPECT_EQ(listen.adversary.suppressed_receptions, 0u);
  EXPECT_LE(silent.ledger.max_tx_per_node(), 1u);
}

TEST(AdversaryEngineTest, CrashFreezesAndRecoverResumesTheWavefront) {
  const NodeId n = 30;
  AdversarySpec adv;
  adv.protected_nodes = {0};
  adv.fault_schedule = {{5, FaultEvent::Kind::kCrash, 1.0},
                        {12, FaultEvent::Kind::kRecover, 1.0}};

  const Digraph g = path_graph(n);
  GeneralBroadcastProtocol proto(baselines::flooding_params());
  RunOptions options;
  options.max_rounds = 200;
  options.adversary = adv;
  Engine engine;
  const RunResult r = engine.run(g, proto, Rng(13), options);

  // Rounds 5..11 are frozen: every informed node but the protected source
  // is down, its transmissions blocked (and unpaid — crash is power loss)
  // and the source's deliveries to node 1 suppressed. After the blanket
  // recovery the wavefront resumes and completion lands late by exactly
  // the crash window.
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.completion_round, (n - 1) + 7);
  EXPECT_EQ(r.adversary.crashed_count, 0u);  // everyone recovered
  EXPECT_GT(r.adversary.blocked_tx, 0u);
  EXPECT_GT(r.adversary.suppressed_receptions, 0u);
}

TEST(AdversaryStateTest, ApplyNeverReallocatesTheTransmitterBuffer) {
  const NodeId n = 10'000;
  AdversarySpec adv;
  adv.jammer_fraction = 0.02;
  adv.budget_mean = 50.0;
  adv.budget_spread = 0.5;
  adv.fault_schedule = {{40, FaultEvent::Kind::kCrash, 0.1},
                        {120, FaultEvent::Kind::kRecover, 0.8}};
  adv.seed = 0xa110c;

  AdversaryState state;
  AdversaryStats stats;
  state.reset(n, adv, stats);

  EnergyLedger ledger;
  ledger.reset(n);
  std::vector<NodeId> transmitters;
  state.reserve_for(transmitters);
  std::vector<char> is_tx(n, 0);
  const NodeId* data = transmitters.data();
  const std::size_t capacity = transmitters.capacity();
  ASSERT_GE(capacity, static_cast<std::size_t>(n));

  for (Round r = 0; r < 200; ++r) {
    transmitters.clear();
    for (NodeId v = r % 7; v < n; v += 7) transmitters.push_back(v);
    state.begin_round(r, stats);
    state.apply(transmitters, is_tx, ledger, stats);
    for (const NodeId u : transmitters) is_tx[u] = 0;
    // The reserve-once contract (dynamics.cpp pattern): jammer injection
    // and compaction stay within the buffer reserved before round 0.
    ASSERT_EQ(transmitters.capacity(), capacity);
    ASSERT_EQ(transmitters.data(), data);
  }
  EXPECT_GT(stats.jammer_tx, 0u);
  EXPECT_GT(stats.blocked_tx, 0u);
  EXPECT_GT(stats.exhausted_count, 0u);
}

}  // namespace
}  // namespace radnet::sim
