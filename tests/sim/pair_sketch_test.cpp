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
#include <algorithm>
#include <cstdint>
#include <map>
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

std::size_t model_size(const Model& model) {
  std::size_t size = 0;
  for (const auto& [sender, chain] : model) size += chain.size();
  return size;
}

void expect_chains_match(detail::PairSketch& sketch, const Model& model,
                         NodeId senders, int step) {
  for (NodeId s = 0; s < senders; ++s) {
    const auto it = model.find(s);
    const Chain want = it == model.end() ? Chain{} : it->second;
    EXPECT_EQ(read_chain(sketch, s), want)
        << "sender " << s << " after step " << step;
  }
}

void run_model(std::uint64_t seed, NodeId senders, std::size_t capacity,
               std::uint64_t horizon, int steps) {
  detail::PairSketch sketch;
  sketch.reset(senders, capacity);
  Model model;
  Rng rng(seed);
  std::uint32_t round = 0;
  std::size_t swept = 0;  // entries the model's stale sweeps removed
  std::size_t full_drops = 0;
  for (int step = 0; step < steps; ++step) {
    round += static_cast<std::uint32_t>(rng.uniform_below(2));
    const std::uint64_t op = rng.uniform_below(10);
    if (op < 7) {  // insert
      const auto sender = static_cast<NodeId>(rng.uniform_below(senders));
      const auto listener = static_cast<NodeId>(rng.uniform_below(64));
      sketch.insert(sender, listener, round);
      if (model_size(model) < capacity) {
        Chain& chain = model[sender];
        chain.insert(chain.begin(), {listener, round});
      } else {
        ++full_drops;
      }
    } else if (op < 9) {  // a gather-like batch of distinct senders
      std::vector<NodeId> batch(senders);
      for (NodeId s = 0; s < senders; ++s) batch[s] = s;
      for (NodeId i = senders; i > 1; --i)
        std::swap(batch[i - 1], batch[rng.uniform_below(i)]);
      batch.resize(1 + rng.uniform_below(senders / 2));
      const auto visit = static_cast<std::uint64_t>(step);
      // Chunks of three senders, each with its own deferred frees,
      // committed in chunk order as the sharded gather does.
      std::vector<std::vector<std::uint32_t>> freed((batch.size() + 2) / 3);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const NodeId s = batch[i];
        std::size_t pos = 0;
        sketch.visit_deferred(
            s,
            [&](NodeId listener, std::uint32_t& entry_round) {
              const Fate f = fate(visit, s, pos++, listener, entry_round);
              if (f == Fate::kRefresh) entry_round = round;
              return f != Fate::kDrop;
            },
            freed[i / 3]);
        auto it = model.find(s);
        if (it == model.end()) continue;
        Chain kept;
        for (std::size_t p = 0; p < it->second.size(); ++p) {
          auto [listener, entry_round] = it->second[p];
          const Fate f = fate(visit, s, p, listener, entry_round);
          if (f == Fate::kRefresh) entry_round = round;
          if (f != Fate::kDrop) kept.emplace_back(listener, entry_round);
        }
        if (kept.empty())
          model.erase(it);
        else
          it->second = std::move(kept);
      }
      for (const auto& chunk : freed) sketch.commit_deferred(chunk);
    } else {  // stale sweep
      sketch.drop_stale(round, horizon);
      for (auto it = model.begin(); it != model.end();) {
        swept += std::erase_if(it->second, [&](const auto& entry) {
          return round - entry.second > horizon;
        });
        it = it->second.empty() ? model.erase(it) : std::next(it);
      }
    }
    ASSERT_EQ(sketch.size(), model_size(model)) << "after step " << step;
    if (op == 9) expect_chains_match(sketch, model, senders, step);
  }
  expect_chains_match(sketch, model, senders, steps);
  EXPECT_GT(swept, 0u) << "no sweep found a stale entry";
  EXPECT_GT(full_drops, 0u) << "capacity never reached";
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

}  // namespace
}  // namespace radnet::sim
