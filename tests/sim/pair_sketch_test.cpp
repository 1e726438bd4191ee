// Model test for detail::PairSketch, the bounded per-sender store of
// resolved present pairs behind the implicit dynamic G(n,p) backend.
//
// Random sequences of insert / visit_deferred + commit_deferred /
// drop_stale run against a std::map<sender, chain> reference, where a
// chain lists (listener, round) most recent first. After every operation
// size() must match; after every stale sweep and at the end every chain
// must match in contents and order. Chains are read back through
// visit_deferred with a keep-all visitor, which also refreshes the
// per-sender oldest-round bounds — so contents are compared right after a
// sweep, whose choice of chains to walk rests on bounds kept up by the
// preceding inserts and visits alone.
//
// The small-capacity runs stay inside the first pool page; the paged run
// spans several pages with a capacity off the page boundary, so slot
// reuse from the free-slot stack, fresh slots past a page boundary, a
// sweep that frees most of the pool and a reset() that keeps the pages
// all meet the same reference.
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
  std::vector<std::uint32_t> freed;
  sketch.visit_deferred(
      sender,
      [&](NodeId listener, std::uint32_t& round) {
        out.emplace_back(listener, round);
        return true;
      },
      freed);
  EXPECT_TRUE(freed.empty());
  return out;
}

/// A PairSketch and its reference model, driven in lockstep.
class Harness {
 public:
  Harness(NodeId senders, std::size_t capacity) : senders_(senders) {
    reset(capacity);
  }

  void reset(std::size_t capacity) {
    sketch_.reset(senders_, capacity);
    model_.clear();
    size_ = 0;
    capacity_ = capacity;
  }

  void insert(NodeId sender, NodeId listener, std::uint32_t round) {
    sketch_.insert(sender, listener, round);
    if (size_ < capacity_) {
      Chain& chain = model_[sender];
      chain.insert(chain.begin(), {listener, round});
      ++size_;
    } else {
      ++full_drops_;
    }
  }

  /// A gather-like batch over distinct senders: chunks of three senders,
  /// each with its own deferred frees, committed in chunk order as the
  /// sharded gather does. decide(sender, pos, listener, round) gives each
  /// entry's fate; a refresh moves the entry's round to `round`.
  template <class Decide>
  void visit(const std::vector<NodeId>& batch, std::uint32_t round,
             Decide&& decide) {
    std::vector<std::vector<std::uint32_t>> freed((batch.size() + 2) / 3);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const NodeId s = batch[i];
      std::size_t pos = 0;
      sketch_.visit_deferred(
          s,
          [&](NodeId listener, std::uint32_t& entry_round) {
            const Fate f = decide(s, pos++, listener, entry_round);
            if (f == Fate::kRefresh) entry_round = round;
            return f != Fate::kDrop;
          },
          freed[i / 3]);
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
    for (const auto& chunk : freed) sketch_.commit_deferred(chunk);
  }

  void sweep(std::uint32_t round, std::uint64_t horizon) {
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
  [[nodiscard]] std::size_t swept() const { return swept_; }
  [[nodiscard]] std::size_t full_drops() const { return full_drops_; }

 private:
  NodeId senders_;
  detail::PairSketch sketch_;
  Model model_;
  std::size_t size_ = 0;      ///< entries in the model
  std::size_t capacity_ = 0;
  std::size_t swept_ = 0;     ///< entries the model's stale sweeps removed
  std::size_t full_drops_ = 0;
};

void run_model(std::uint64_t seed, NodeId senders, std::size_t capacity,
               std::uint64_t horizon, int steps) {
  Harness h(senders, capacity);
  Rng rng(seed);
  std::uint32_t round = 0;
  for (int step = 0; step < steps; ++step) {
    round += static_cast<std::uint32_t>(rng.uniform_below(2));
    const std::uint64_t op = rng.uniform_below(10);
    if (op < 7) {  // insert
      const auto sender = static_cast<NodeId>(rng.uniform_below(senders));
      const auto listener = static_cast<NodeId>(rng.uniform_below(64));
      h.insert(sender, listener, round);
    } else if (op < 9) {  // a gather-like batch of distinct senders
      const auto visit = static_cast<std::uint64_t>(step);
      h.visit(h.random_batch(rng, senders / 2), round,
              [&](NodeId s, std::size_t pos, NodeId listener,
                  std::uint32_t entry_round) {
                return fate(visit, s, pos, listener, entry_round);
              });
    } else {  // stale sweep
      h.sweep(round, horizon);
    }
    ASSERT_EQ(h.sketch_size(), h.model_size()) << "after step " << step;
    if (op == 9) h.expect_chains_match(step);
  }
  h.expect_chains_match(steps);
  EXPECT_GT(h.swept(), 0u) << "no sweep found a stale entry";
  EXPECT_GT(h.full_drops(), 0u) << "capacity never reached";
}

TEST(PairSketchModel, MatchesReferenceChains) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    run_model(seed, /*senders=*/24, /*capacity=*/24, /*horizon=*/12,
              /*steps=*/4000);
}

TEST(PairSketchModel, ZeroCapacityStaysEmpty) {
  detail::PairSketch sketch;
  sketch.reset(8, 0);
  sketch.insert(3, 5, 0);
  sketch.drop_stale(100, 1);
  EXPECT_EQ(sketch.size(), 0u);
  EXPECT_TRUE(read_chain(sketch, 3).empty());
}

TEST(PairSketchModel, MatchesReferenceAcrossPages) {
  constexpr std::size_t kPage = detail::PairSketch::kPageSize;
  constexpr NodeId kSenders = 256;
  constexpr std::uint64_t kHorizon = 40;
  // 3 full pages and part of a fourth; the reset capacity needs a fifth.
  constexpr std::size_t kCapacity = 3 * kPage + 1000;
  constexpr std::size_t kResetCapacity = 4 * kPage + 555;
  static_assert(kCapacity % kPage != 0 && kResetCapacity % kPage != 0);

  Harness h(kSenders, kCapacity);
  Rng rng(0x9A6E5);
  std::uint32_t round = 0;
  int step = 0;
  // Fill to capacity with visits freeing slots all along, so inserts
  // alternate between reused slots and fresh slots past page boundaries;
  // then keep going at capacity for `extra` more steps.
  const auto churn_until_full = [&](std::size_t capacity, int extra) {
    int left = extra;
    while (h.model_size() < capacity || left-- > 0) {
      round += static_cast<std::uint32_t>(rng.uniform_below(8) == 0);
      if (rng.uniform_below(256) != 0) {
        h.insert(static_cast<NodeId>(rng.uniform_below(kSenders)),
                 static_cast<NodeId>(rng.uniform_below(1u << 20)), round);
      } else {
        const auto visit = static_cast<std::uint64_t>(step);
        h.visit(h.random_batch(rng, 8), round,
                [&](NodeId s, std::size_t pos, NodeId listener,
                    std::uint32_t entry_round) {
                  return fate(visit, s, pos, listener, entry_round);
                });
      }
      ASSERT_EQ(h.sketch_size(), h.model_size()) << "after step " << step;
      if (++step % 4096 == 0) h.expect_chains_match(step);
    }
    h.expect_chains_match(step);
  };

  churn_until_full(kCapacity, 2000);
  ASSERT_EQ(h.sketch_size(), kCapacity);
  EXPECT_GT(h.full_drops(), 0u);

  // Refresh a few senders' chains, let everything else go stale, and sweep:
  // most of the pool returns to the free-slot stack.
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

  // Refill: every slot comes off the stack again.
  churn_until_full(kCapacity, 2000);

  // reset() keeps the pages: the refill reuses them and grows past them.
  h.reset(kResetCapacity);
  ASSERT_EQ(h.sketch_size(), 0u);
  h.expect_chains_match(step);
  churn_until_full(kResetCapacity, 2000);
  ASSERT_EQ(h.sketch_size(), kResetCapacity);
}

}  // namespace
}  // namespace radnet::sim
