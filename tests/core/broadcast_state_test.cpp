#include "core/broadcast_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace radnet::core {
namespace {

std::vector<NodeId> active_vec(const BroadcastState& s) {
  const auto span = s.active();
  return {span.begin(), span.end()};
}

TEST(BroadcastStateTest, InitialState) {
  BroadcastState s;
  s.reset(5, 2);
  EXPECT_EQ(s.informed_count(), 1u);
  EXPECT_TRUE(s.informed(2));
  EXPECT_FALSE(s.informed(0));
  EXPECT_EQ(s.informed_time(2), 0u);
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{2}));
  EXPECT_FALSE(s.all_informed());
}

TEST(BroadcastStateTest, DeliverActivatesNextRoundOnly) {
  BroadcastState s;
  s.reset(4, 0);
  EXPECT_TRUE(s.deliver(1, 0));
  // Not yet active — activation is deferred to commit().
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{0}));
  EXPECT_TRUE(s.informed(1));
  EXPECT_EQ(s.informed_time(1), 1u);
  s.commit();
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{0, 1}));
}

TEST(BroadcastStateTest, RedeliveryIgnored) {
  BroadcastState s;
  s.reset(3, 0);
  EXPECT_TRUE(s.deliver(1, 0));
  EXPECT_FALSE(s.deliver(1, 5));  // already informed
  EXPECT_EQ(s.informed_time(1), 1u);  // first time sticks
  s.commit();
  EXPECT_EQ(s.informed_count(), 2u);  // counts settle at commit()
  EXPECT_EQ(s.active().size(), 2u);  // only added once
}

TEST(BroadcastStateTest, DeactivationRemovesAtCommit) {
  BroadcastState s;
  s.reset(3, 0);
  s.deliver(1, 0);
  s.deliver(2, 0);
  s.commit();
  ASSERT_EQ(s.active().size(), 3u);
  s.deactivate(0);
  s.deactivate(2);
  EXPECT_EQ(s.active().size(), 3u);  // still visible this round
  s.commit();
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{1}));
}

TEST(BroadcastStateTest, DeactivateAtRemovesByPosition) {
  BroadcastState s;
  s.reset(6, 0);
  for (NodeId v = 1; v < 6; ++v) s.deliver(v, 0);
  s.commit();
  ASSERT_EQ(active_vec(s), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  s.deactivate_at(0);
  s.deactivate_at(2);
  s.deactivate_at(3);
  s.deactivate_at(5);
  EXPECT_EQ(s.active().size(), 6u);  // still visible this round
  s.commit();
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{1, 4}));
  s.deactivate_all();
  s.commit();
  EXPECT_TRUE(s.active().empty());
}

TEST(BroadcastStateTest, DeliverAndDeactivateSameRound) {
  // A node delivered and deactivated in the same round never activates
  // (matters for protocols whose window is 0 rounds).
  BroadcastState s;
  s.reset(3, 0);
  s.deliver(1, 0);
  s.deactivate(1);
  s.commit();
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{0}));
  EXPECT_TRUE(s.informed(1));
}

TEST(BroadcastStateTest, DeliverWithoutActivation) {
  // Phase-3 semantics: informed counts toward completion but the node never
  // joins the candidate list.
  BroadcastState s;
  s.reset(3, 0);
  EXPECT_TRUE(s.deliver(1, 4, /*activate=*/false));
  s.commit();
  EXPECT_TRUE(s.informed(1));
  EXPECT_EQ(s.informed_time(1), 5u);
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{0}));
  // Redelivery with activation still doesn't resurrect it.
  EXPECT_FALSE(s.deliver(1, 6, /*activate=*/true));
  s.commit();
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{0}));
}

TEST(BroadcastStateTest, AllInformed) {
  BroadcastState s;
  s.reset(3, 0);
  s.deliver(1, 0);
  s.commit();
  EXPECT_FALSE(s.all_informed());
  s.deliver(2, 1);
  EXPECT_FALSE(s.all_informed());  // counts settle at commit()
  s.commit();
  EXPECT_TRUE(s.all_informed());
  EXPECT_EQ(s.informed_count(), 3u);
}

TEST(BroadcastStateTest, InformedTimesTrackRounds) {
  BroadcastState s;
  s.reset(4, 0);
  s.deliver(1, 0);
  s.commit();
  s.deliver(2, 7);
  s.commit();
  EXPECT_EQ(s.informed_time(0), 0u);
  EXPECT_EQ(s.informed_time(1), 1u);
  EXPECT_EQ(s.informed_time(2), 8u);
}

TEST(BroadcastStateTest, ResetClearsEverything) {
  BroadcastState s;
  s.reset(3, 0);
  s.deliver(1, 0);
  s.deactivate(0);
  s.commit();
  s.reset(3, 1);
  EXPECT_EQ(s.informed_count(), 1u);
  EXPECT_TRUE(s.informed(1));
  EXPECT_FALSE(s.informed(0));
  EXPECT_EQ(active_vec(s), (std::vector<NodeId>{1}));
}

// Reference model: std::set for the uninformed set, a vector for the
// active list (positional drops erased by index, then flagged nodes),
// activations appended in ascending order at commit().
struct ModelState {
  std::set<NodeId> uninformed;
  std::vector<NodeId> active;
  std::vector<bool> informed, valid, excluded, deactivated, activate;
  std::vector<Round> time;
  std::vector<NodeId> drops;  // this round's positions in `active`
  bool drop_all = false;
  NodeId informed_count = 1, valid_count = 1, excluded_count = 0;

  ModelState(NodeId n, NodeId source)
      : informed(n), valid(n), excluded(n), deactivated(n), activate(n),
        time(n, BroadcastState::kNotInformed) {
    for (NodeId v = 0; v < n; ++v)
      if (v != source) uninformed.insert(v);
    active.push_back(source);
    informed[source] = valid[source] = true;
    time[source] = 0;
  }
  bool deliver(NodeId v, Round r, bool act, bool copy_valid) {
    if (informed[v]) return false;
    informed[v] = true;
    valid[v] = copy_valid;
    activate[v] = act;
    time[v] = r + 1;
    return true;
  }
  void commit() {
    if (drop_all) active.clear();
    for (auto it = drops.rbegin(); !drop_all && it != drops.rend(); ++it)
      active.erase(active.begin() + *it);
    drops.clear();
    drop_all = false;
    std::erase_if(active, [&](NodeId v) { return deactivated[v]; });
    for (auto it = uninformed.begin(); it != uninformed.end();) {
      const NodeId v = *it;
      if (!informed[v]) {
        ++it;
        continue;
      }
      ++informed_count;
      if (valid[v] && !excluded[v]) ++valid_count;
      if (activate[v] && !deactivated[v]) active.push_back(v);
      it = uninformed.erase(it);
    }
  }
};

// Ascending positions in [0, size) for one round's deactivate_at calls,
// covering the edge shapes of commit()'s run-wise slide: none, the first
// position, the last, one consecutive stretch, every position, and a
// random subset.
std::vector<NodeId> pick_positions(Rng& rng, NodeId size) {
  std::vector<NodeId> out;
  if (size == 0) return out;
  switch (rng.uniform_below(6)) {
    case 0:
      break;
    case 1:
      out.push_back(0);
      break;
    case 2:
      out.push_back(size - 1);
      break;
    case 3: {
      const auto lo = static_cast<NodeId>(rng.uniform_below(size));
      const auto len = 1 + static_cast<NodeId>(rng.uniform_below(size - lo));
      const NodeId hi = lo + len;
      for (NodeId i = lo; i < hi; ++i) out.push_back(i);
      break;
    }
    case 4:
      for (NodeId i = 0; i < size; ++i) out.push_back(i);
      break;
    default:
      for (NodeId i = 0; i < size; ++i)
        if (rng.bernoulli(0.3)) out.push_back(i);
  }
  return out;
}

// How a round's deactivations arrive: per node only (wants_transmit),
// by position only (sample_transmitters), both, or all at once.
enum class Drops { kPerNode, kPositional, kMixed, kAll };

TEST(BroadcastStateTest, MatchesReferenceModelUnderRandomRounds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const NodeId n = 2 + static_cast<NodeId>(rng.uniform_below(300));
    const NodeId source = static_cast<NodeId>(rng.uniform_below(n));
    BroadcastState s;
    s.reset(n, source);
    ModelState m(n, source);
    // Goal exclusions happen before round 0, as the engine issues them.
    std::vector<NodeId> excluded;
    for (NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(0.05)) excluded.push_back(v);
    s.exclude_from_goal(excluded);
    for (const NodeId v : excluded) {
      m.excluded[v] = true;
      ++m.excluded_count;
      if (m.valid[v]) --m.valid_count;
    }
    for (Round r = 0; r < 40 && !m.uninformed.empty(); ++r) {
      const auto mode = static_cast<Drops>(rng.uniform_below(4));
      const bool per_node = mode == Drops::kPerNode || mode == Drops::kMixed;
      if (mode == Drops::kPositional || mode == Drops::kMixed) {
        // Drop by position (as sample_transmitters would).
        m.drops = pick_positions(rng, s.active_count());
        for (const NodeId i : m.drops) s.deactivate_at(i);
      } else if (mode == Drops::kAll) {
        s.deactivate_all();
        m.drop_all = true;
      }
      if (per_node) {
        // Deactivate some active nodes (as wants_transmit would), some of
        // them also dropped by position in a mixed round.
        for (const NodeId v : s.active()) {
          if (rng.bernoulli(0.3)) {
            s.deactivate(v);
            m.deactivated[v] = true;
          }
        }
      }
      // Deliver to random nodes, informed or not, repeats included.
      const auto deliveries = rng.uniform_below(n / 4 + 2);
      for (std::uint64_t i = 0; i < deliveries; ++i) {
        const auto v = static_cast<NodeId>(rng.uniform_below(n));
        const bool act = rng.bernoulli(0.7);
        const bool copy_valid = rng.bernoulli(0.9);
        ASSERT_EQ(s.deliver(v, r, act, copy_valid),
                  m.deliver(v, r, act, copy_valid));
        // A node delivered and deactivated in the same round never
        // activates.
        if (per_node && rng.bernoulli(0.05)) {
          s.deactivate(v);
          m.deactivated[v] = true;
        }
      }
      s.commit();
      m.commit();
      ASSERT_TRUE(std::is_sorted(s.uninformed().begin(), s.uninformed().end()));
      ASSERT_EQ(std::vector<NodeId>(s.uninformed().begin(), s.uninformed().end()),
                std::vector<NodeId>(m.uninformed.begin(), m.uninformed.end()))
          << "seed " << seed << " round " << r;
      ASSERT_EQ(active_vec(s), m.active) << "seed " << seed << " round " << r;
      ASSERT_EQ(s.informed_count(), m.informed_count);
      ASSERT_EQ(s.valid_count(), m.valid_count);
      ASSERT_EQ(s.stranded_count(), n - m.excluded_count - m.valid_count);
      ASSERT_EQ(s.goal_reached(), m.valid_count == n - m.excluded_count);
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(s.informed(v), m.informed[v]);
        ASSERT_EQ(s.copy_is_valid(v), m.informed[v] && m.valid[v]);
        ASSERT_EQ(s.informed_time(v), m.time[v]);
      }
    }
  }
}

TEST(BroadcastStateTest, ConcurrentDisjointReceiverDeliveries) {
  // The in-block delivery path: four threads deliver to interleaved
  // (adjacent-byte) receiver stripes while reading other nodes' informed
  // times, as a receiver-local on_delivered does for its sender. Run under
  // ThreadSanitizer in CI; the result must equal a serial application.
  constexpr NodeId n = 1 << 14;
  constexpr unsigned kThreads = 4;
  constexpr Round kRound = 3;
  BroadcastState s;
  s.reset(n, 0);
  std::atomic<std::uint64_t> fresh_senders{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t fresh = 0;
      for (NodeId v = t; v < n; v += kThreads) {
        if (v == 0) continue;
        // The "sender" is a neighbour another thread may be delivering to
        // right now: its informed time is never <= kRound mid-round.
        const NodeId sender = v + 1 < n ? v + 1 : v - 1;
        fresh += s.informed_time(sender) > kRound;
        s.deliver(v, kRound, /*activate=*/v % 3 != 0,
                  /*copy_valid=*/s.copy_is_valid(0));
      }
      fresh_senders.fetch_add(fresh, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(fresh_senders.load(), n - 1u);
  s.commit();
  EXPECT_TRUE(s.all_informed());
  EXPECT_TRUE(s.goal_reached());
  EXPECT_TRUE(s.uninformed().empty());
  std::vector<NodeId> expected_active{0};
  for (NodeId v = 1; v < n; ++v)
    if (v % 3 != 0) expected_active.push_back(v);
  EXPECT_EQ(active_vec(s), expected_active);
  for (NodeId v = 1; v < n; ++v) ASSERT_EQ(s.informed_time(v), kRound + 1);
}

TEST(BroadcastStateTest, RejectsBadArguments) {
  BroadcastState s;
  EXPECT_THROW(s.reset(0, 0), std::invalid_argument);
  EXPECT_THROW(s.reset(3, 3), std::invalid_argument);
  s.reset(3, 0);
  EXPECT_THROW(s.deliver(9, 0), std::invalid_argument);
  EXPECT_THROW(s.deactivate(9), std::invalid_argument);
  // Only one node is active.
  EXPECT_THROW(s.deactivate_at(1), std::invalid_argument);
  s.deliver(1, 0);
  s.deliver(2, 0);
  s.commit();
  s.deactivate_at(1);
  EXPECT_THROW(s.deactivate_at(1), std::invalid_argument);  // not ascending
  EXPECT_THROW(s.deactivate_at(0), std::invalid_argument);
  EXPECT_THROW(s.deactivate_at(3), std::invalid_argument);
}

}  // namespace
}  // namespace radnet::core
