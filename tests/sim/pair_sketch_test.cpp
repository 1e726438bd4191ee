// Model test for detail::PairSketch, the bounded per-sender store of
// resolved present pairs behind the implicit dynamic G(n,p) backend.
//
// Random sequences of rounds run against a std::map<sender, chain>
// reference, where a chain lists (listener, round) most recent first. A
// round's inserts are staged and handed to append_round() in one batch, as
// the backend does at the end of deliver(); the model inserts the first
// room() of them one by one. Visits (gather-like batches of distinct
// senders) and stale sweeps run between rounds. After every operation
// size() must match; after every stale sweep, after every compaction and
// at the end every chain must match in contents and order. Chains are
// read back through visit() with a keep-all visitor, which also refreshes
// the per-sender oldest-round bounds — so contents are compared right
// after a sweep, whose choice of runs to walk rests on bounds kept up by
// the preceding appends and visits alone.
//
// The small-capacity runs compact every few rounds; the larger runs add a
// round that overflows room() mid-round, a round whose senders own most
// of the live entries (the largest move the arena must fit), a sweep that
// empties most runs, and a reset() that reuses the arena.
#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/backends/implicit_dynamic.hpp"
#include "support/rng.hpp"

namespace radnet::sim {
namespace {

using Chain = std::vector<std::pair<NodeId, std::uint32_t>>;
using Model = std::map<NodeId, Chain>;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// What a visit does with one entry: a pure function of the visit, the
/// sender, the entry's position in its chain and its contents, so the
/// sketch and the model take the same decisions whenever their chains
/// agree.
enum class Fate { kDrop, kKeep, kRefresh };

Fate fate(std::uint64_t visit, NodeId sender, std::size_t pos,
          NodeId listener, std::uint32_t round) {
  const std::uint64_t h =
      mix(visit ^ mix((std::uint64_t{sender} << 32) | pos) ^
          mix((std::uint64_t{listener} << 32) | round));
  return static_cast<Fate>(h % 3);
}

Chain read_chain(detail::PairSketch& sketch, NodeId sender) {
  Chain out;
  const std::size_t dropped =
      sketch.visit(sender, [&](NodeId listener, std::uint32_t& round) {
        out.emplace_back(listener, round);
        return true;
      });
  EXPECT_EQ(dropped, 0u);
  return out;
}

/// A PairSketch and its reference model, driven in lockstep.
class Harness {
 public:
  Harness(NodeId senders, std::size_t capacity) : senders_(senders) {
    reset(capacity);
  }

  void reset(std::size_t capacity) {
    staged_.clear();
    sketch_.reset(senders_, capacity);
    model_.clear();
    size_ = 0;
    capacity_ = capacity;
  }

  /// Stages one resolved pair of `round`; a new round first appends the
  /// staged ones.
  void stage(NodeId sender, NodeId listener, std::uint32_t round) {
    if (!staged_.empty() && round != staged_round_) end_round();
    staged_round_ = round;
    staged_.emplace_back(sender, listener);
  }

  /// Appends the staged round in one batch.
  void end_round() {
    const std::uint64_t compactions = sketch_.compactions();
    sketch_.append_round(staged_, staged_round_);
    for (const auto& [sender, listener] : staged_) {
      if (size_ < capacity_) {
        Chain& chain = model_[sender];
        chain.insert(chain.begin(), {listener, staged_round_});
        ++size_;
      } else {
        ++full_drops_;
      }
    }
    staged_.clear();
    ASSERT_EQ(sketch_.size(), size_);
    if (sketch_.compactions() != compactions) {
      ++compactions_seen_;
      expect_chains_match(-1);
    }
  }

  /// A gather-like batch over distinct senders; decide(sender, pos,
  /// listener, round) gives each entry's fate, and a refresh moves the
  /// entry's round to `round`. The drop counts are released once, after
  /// every visit, as the sharded gather does.
  template <class Decide>
  void visit(const std::vector<NodeId>& batch, std::uint32_t round,
             Decide&& decide) {
    if (!staged_.empty()) end_round();
    std::size_t dropped = 0;
    for (const NodeId s : batch) {
      std::size_t pos = 0;
      dropped += sketch_.visit(
          s, [&](NodeId listener, std::uint32_t& entry_round) {
            const Fate f = decide(s, pos++, listener, entry_round);
            if (f == Fate::kRefresh) entry_round = round;
            return f != Fate::kDrop;
          });
      auto it = model_.find(s);
      if (it == model_.end()) continue;
      Chain kept;
      for (std::size_t p = 0; p < it->second.size(); ++p) {
        auto [listener, entry_round] = it->second[p];
        const Fate f = decide(s, p, listener, entry_round);
        if (f == Fate::kRefresh) entry_round = round;
        if (f != Fate::kDrop) kept.emplace_back(listener, entry_round);
      }
      size_ -= it->second.size() - kept.size();
      if (kept.empty())
        model_.erase(it);
      else
        it->second = std::move(kept);
    }
    sketch_.release(dropped);
  }

  void sweep(std::uint32_t round, std::uint64_t horizon) {
    if (!staged_.empty()) end_round();
    sketch_.drop_stale(round, horizon);
    for (auto it = model_.begin(); it != model_.end();) {
      const std::size_t dropped = std::erase_if(it->second, [&](const auto& e) {
        return round - e.second > horizon;
      });
      swept_ += dropped;
      size_ -= dropped;
      it = it->second.empty() ? model_.erase(it) : std::next(it);
    }
  }

  /// A random batch of 1 .. max_size distinct senders.
  std::vector<NodeId> random_batch(Rng& rng, NodeId max_size) const {
    std::vector<NodeId> batch(senders_);
    std::iota(batch.begin(), batch.end(), NodeId{0});
    for (NodeId i = senders_; i > 1; --i)
      std::swap(batch[i - 1], batch[rng.uniform_below(i)]);
    batch.resize(1 + rng.uniform_below(max_size));
    return batch;
  }

  void expect_chains_match(int step) {
    for (NodeId s = 0; s < senders_; ++s) {
      const auto it = model_.find(s);
      const Chain want = it == model_.end() ? Chain{} : it->second;
      EXPECT_EQ(read_chain(sketch_, s), want)
          << "sender " << s << " after step " << step;
    }
  }

  [[nodiscard]] std::size_t sketch_size() const { return sketch_.size(); }
  [[nodiscard]] std::size_t model_size() const { return size_; }
  [[nodiscard]] std::size_t chain_length(NodeId s) const {
    const auto it = model_.find(s);
    return it == model_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] std::size_t swept() const { return swept_; }
  [[nodiscard]] std::size_t full_drops() const { return full_drops_; }
  [[nodiscard]] std::size_t compactions_seen() const {
    return compactions_seen_;
  }

 private:
  NodeId senders_;
  detail::PairSketch sketch_;
  Model model_;
  std::vector<detail::PairRecord> staged_;
  std::uint32_t staged_round_ = 0;
  std::size_t size_ = 0;      ///< entries in the model
  std::size_t capacity_ = 0;
  std::size_t swept_ = 0;     ///< entries the model's stale sweeps removed
  std::size_t full_drops_ = 0;
  std::size_t compactions_seen_ = 0;
};

void run_model(std::uint64_t seed, NodeId senders, std::size_t capacity,
               std::uint64_t horizon, int steps) {
  Harness h(senders, capacity);
  Rng rng(seed);
  std::uint32_t round = 0;
  for (int step = 0; step < steps; ++step) {
    round += static_cast<std::uint32_t>(rng.uniform_below(2));
    const std::uint64_t op = rng.uniform_below(10);
    if (op < 7) {  // stage an insert of this round
      const auto sender = static_cast<NodeId>(rng.uniform_below(senders));
      const auto listener = static_cast<NodeId>(rng.uniform_below(64));
      h.stage(sender, listener, round);
    } else if (op < 9) {  // a gather-like batch of distinct senders
      const auto visit = static_cast<std::uint64_t>(step);
      h.visit(h.random_batch(rng, senders / 2), round,
              [&](NodeId s, std::size_t pos, NodeId listener,
                  std::uint32_t entry_round) {
                return fate(visit, s, pos, listener, entry_round);
              });
      ASSERT_EQ(h.sketch_size(), h.model_size()) << "after step " << step;
    } else {  // stale sweep
      h.sweep(round, horizon);
      ASSERT_EQ(h.sketch_size(), h.model_size()) << "after step " << step;
      h.expect_chains_match(step);
    }
  }
  h.end_round();
  h.expect_chains_match(steps);
  EXPECT_GT(h.swept(), 0u) << "no sweep found a stale entry";
  EXPECT_GT(h.full_drops(), 0u) << "capacity never reached";
  EXPECT_GT(h.compactions_seen(), 4u) << "the arena rarely compacted";
}

TEST(PairSketchModel, MatchesReferenceChains) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_model(seed, /*senders=*/24, /*capacity=*/24, /*horizon=*/12,
              /*steps=*/4000);
}

TEST(PairSketchModel, ZeroCapacityStaysEmpty) {
  detail::PairSketch sketch;
  sketch.reset(8, 0);
  const std::vector<detail::PairRecord> round{{3, 5}, {4, 6}};
  sketch.append_round(round, 0);
  sketch.drop_stale(100, 1);
  EXPECT_EQ(sketch.size(), 0u);
  EXPECT_TRUE(read_chain(sketch, 3).empty());
}

TEST(PairSketchModel, OverflowingRoundKeepsItsFirstRecords) {
  detail::PairSketch sketch;
  sketch.reset(16, 10);
  sketch.append_round(std::vector<detail::PairRecord>{{1, 7}, {2, 8}, {1, 9}},
                      4);
  ASSERT_EQ(sketch.room(), 7u);
  // Nine records for room 7: the last two, one for each sender, are lost.
  sketch.append_round(std::vector<detail::PairRecord>{{2, 1},
                                                       {1, 2},
                                                       {3, 3},
                                                       {1, 4},
                                                       {2, 5},
                                                       {3, 6},
                                                       {1, 7},
                                                       {2, 11},
                                                       {3, 12}},
                      5);
  EXPECT_EQ(sketch.size(), 10u);
  EXPECT_EQ(sketch.room(), 0u);
  EXPECT_EQ(read_chain(sketch, 1),
            (Chain{{7, 5}, {4, 5}, {2, 5}, {9, 4}, {7, 4}}));
  EXPECT_EQ(read_chain(sketch, 2), (Chain{{5, 5}, {1, 5}, {8, 4}}));
  EXPECT_EQ(read_chain(sketch, 3), (Chain{{6, 5}, {3, 5}}));
}

TEST(PairSketchModel, MatchesReferenceAtScale) {
  constexpr NodeId kSenders = 256;
  constexpr std::uint64_t kHorizon = 40;
  constexpr std::size_t kCapacity = 12000;
  constexpr std::size_t kResetCapacity = 17000;

  Harness h(kSenders, kCapacity);
  Rng rng(0x9A6E5);
  std::uint32_t round = 0;
  int step = 0;
  // Rounds of up to 255 records from a few senders each, each followed by
  // a visit that drops and refreshes entries; fill to capacity, then go on
  // for `extra` more full rounds, which overflow room() mid-round.
  const auto churn_until_full = [&](std::size_t capacity, int extra) {
    for (;;) {
      ++round;
      const auto senders = 1 + rng.uniform_below(8);
      const auto records = 1 + rng.uniform_below(255);
      const auto first = rng.uniform_below(kSenders);
      for (std::uint64_t i = 0; i < records; ++i) {
        const auto s = (first + rng.uniform_below(senders)) % kSenders;
        h.stage(static_cast<NodeId>(s),
                static_cast<NodeId>(rng.uniform_below(1u << 20)), round);
      }
      h.end_round();
      if (h.model_size() == capacity && extra-- <= 0) break;
      const auto visit = static_cast<std::uint64_t>(step);
      h.visit(h.random_batch(rng, 8), round,
              [&](NodeId s, std::size_t pos, NodeId listener,
                  std::uint32_t entry_round) {
                return fate(visit, s, pos, listener, entry_round);
              });
      ASSERT_EQ(h.sketch_size(), h.model_size()) << "after step " << step;
      ++step;
    }
    h.expect_chains_match(step);
  };

  churn_until_full(kCapacity, 200);
  ASSERT_EQ(h.sketch_size(), kCapacity);
  EXPECT_GT(h.full_drops(), 0u);
  EXPECT_GT(h.compactions_seen(), 4u);

  // Refresh a few senders' chains, let everything else go stale, and
  // sweep: most runs empty.
  round += static_cast<std::uint32_t>(kHorizon / 2);
  std::vector<NodeId> keep(16);
  std::iota(keep.begin(), keep.end(), NodeId{0});
  h.visit(keep, round, [](NodeId, std::size_t, NodeId, std::uint32_t) {
    return Fate::kRefresh;
  });
  round += static_cast<std::uint32_t>(kHorizon);
  h.sweep(round, kHorizon);
  ASSERT_EQ(h.sketch_size(), h.model_size());
  EXPECT_LT(h.sketch_size(), kCapacity / 8) << "the sweep freed too little";
  EXPECT_GT(h.sketch_size(), 0u) << "the refreshed chains did not survive";
  h.expect_chains_match(step);

  // Refill so that senders 0-3 own most of the sketch, then one round adds
  // to exactly those four: its moves copy most live entries at once.
  ++round;
  for (NodeId s = 0; s < 4; ++s)
    for (std::size_t i = 0; i < kCapacity * 3 / 16; ++i)
      h.stage(s, static_cast<NodeId>(rng.uniform_below(1u << 20)), round);
  h.end_round();
  std::size_t owned = 0;
  for (NodeId s = 0; s < 4; ++s) owned += h.chain_length(s);
  EXPECT_GT(owned, kCapacity / 2);
  ++round;
  for (NodeId s = 0; s < 4; ++s)
    for (int i = 0; i < 16; ++i)
      h.stage(s, static_cast<NodeId>(rng.uniform_below(1u << 20)), round);
  h.end_round();
  ASSERT_EQ(h.sketch_size(), h.model_size());
  h.expect_chains_match(step);

  churn_until_full(kCapacity, 200);

  // reset() keeps the arena when it is large enough, and grows it when
  // not: both runs meet the reference.
  h.reset(kCapacity / 2);
  ASSERT_EQ(h.sketch_size(), 0u);
  h.expect_chains_match(step);
  churn_until_full(kCapacity / 2, 100);
  ASSERT_EQ(h.sketch_size(), kCapacity / 2);
  h.reset(kResetCapacity);
  churn_until_full(kResetCapacity, 100);
  ASSERT_EQ(h.sketch_size(), kResetCapacity);
}

}  // namespace
}  // namespace radnet::sim
