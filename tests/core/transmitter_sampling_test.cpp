// Bulk-vs-per-node transmitter sampling parity.
//
// BroadcastRandomProtocol and GossipRandomProtocol override
// Protocol::sample_transmitters (geometric skip-sampling, O(transmitters)),
// which both engines take in preference to per-candidate wants_transmit —
// so nothing else would catch the two paths drifting apart. These tests
// force the per-node path through a suppressing wrapper and assert the two
// samplers produce the same execution distribution (KS on completion
// rounds and transmission totals over paired Monte-Carlo populations); the
// per-candidate wants_transmit remains the reference semantics.
//
// Algorithm 1's sampler is also checked exactly, round by round, against a
// reference that skip-samples a plain vector with an identically seeded
// Rng and erases its picks: the active list's order fixes every draw, so
// the law check alone would miss a reordering.
#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "harness/monte_carlo.hpp"
#include "support/stats.hpp"

namespace radnet::core {
namespace {

/// Forwards everything to the wrapped protocol but suppresses the bulk
/// sampler, forcing the engine down the per-candidate wants_transmit path.
class PerNodeOnly final : public sim::Protocol {
 public:
  explicit PerNodeOnly(std::unique_ptr<sim::Protocol> inner)
      : inner_(std::move(inner)) {}

  void reset(NodeId n, Rng rng) override { inner_->reset(n, std::move(rng)); }
  void begin_round(sim::Round r) override { inner_->begin_round(r); }
  [[nodiscard]] std::span<const NodeId> candidates() const override {
    return inner_->candidates();
  }
  [[nodiscard]] bool wants_transmit(NodeId v, sim::Round r) override {
    return inner_->wants_transmit(v, r);
  }
  [[nodiscard]] bool sample_transmitters(sim::Round,
                                         std::vector<NodeId>&) override {
    return false;  // the point of the wrapper
  }
  [[nodiscard]] std::optional<std::span<const NodeId>> attentive_listeners()
      const override {
    return inner_->attentive_listeners();
  }
  void on_delivered(NodeId r, NodeId s, sim::Round round) override {
    inner_->on_delivered(r, s, round);
  }
  void on_collision(NodeId r, sim::Round round) override {
    inner_->on_collision(r, round);
  }
  void end_round(sim::Round r) override { inner_->end_round(r); }
  [[nodiscard]] bool is_complete() const override {
    return inner_->is_complete();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::Protocol> inner_;
};

/// Forwards to an Algorithm 1 instance and replays its bulk sampler on a
/// reference model: the active list as a std::vector, skip-sampled with a
/// copy of the protocol's Rng, picks erased by position and activations
/// appended in ascending order at end_round. Reports the first divergence
/// through gtest and counts the rounds it checked.
class Alg1Replay final : public sim::Protocol {
 public:
  struct Tally {
    std::uint64_t sampled_rounds = 0;  // rounds with 0 < picks < active
    std::uint64_t exhausted_rounds = 0;
    bool diverged = false;
  };

  Alg1Replay(BroadcastRandomParams params, Tally& tally)
      : params_(params), inner_(params), tally_(tally) {}

  void reset(NodeId n, Rng rng) override {
    inner_.reset(n, rng);
    rng_ = rng;
    active_ = {params_.source};
    informed_.assign(n, false);
    informed_[params_.source] = true;
    activated_.clear();
    picks_.clear();
    drop_all_ = false;
    const double d = inner_.degree();
    const double dT = std::pow(d, static_cast<double>(inner_.phase1_end()));
    phase2_prob_ = std::min(1.0, 1.0 / (dT * params_.p));
    phase3_prob_ = inner_.has_phase2() ? 1.0 / d
                                       : std::min(1.0, 1.0 / (d * params_.p));
  }
  [[nodiscard]] std::span<const NodeId> candidates() const override {
    return inner_.candidates();
  }
  [[nodiscard]] bool wants_transmit(NodeId v, sim::Round r) override {
    return inner_.wants_transmit(v, r);
  }
  [[nodiscard]] bool sample_transmitters(sim::Round r,
                                         std::vector<NodeId>& out) override {
    const auto cands = inner_.candidates();
    check(std::equal(cands.begin(), cands.end(), active_.begin(),
                     active_.end()),
          r, "active list");
    const bool sampled = inner_.sample_transmitters(r, out);
    std::vector<NodeId> expected;
    double prob = phase3_prob_;
    if (r < inner_.phase1_end()) {
      prob = 1.0;
    } else if (inner_.has_phase2() && r == inner_.phase1_end()) {
      prob = phase2_prob_;
    } else if (r >= inner_.round_budget()) {
      prob = 0.0;
      drop_all_ = true;
      ++tally_.exhausted_rounds;
    }
    if (prob >= 1.0) {
      expected = active_;
      drop_all_ = true;
    } else if (prob > 0.0) {
      const double inv_log1m = 1.0 / std::log1p(-prob);
      for (std::uint64_t i = rng_.geometric_inv(inv_log1m) - 1;
           i < active_.size(); i += rng_.geometric_inv(inv_log1m)) {
        picks_.push_back(static_cast<std::size_t>(i));
        expected.push_back(active_[static_cast<std::size_t>(i)]);
      }
      if (!picks_.empty() && picks_.size() < active_.size())
        ++tally_.sampled_rounds;
    }
    check(sampled && out == expected, r, "transmitters");
    return sampled;
  }
  [[nodiscard]] std::optional<std::span<const NodeId>> attentive_listeners()
      const override {
    return inner_.attentive_listeners();
  }
  [[nodiscard]] bool collisions_inert() const override { return true; }
  void on_delivered(NodeId receiver, NodeId sender, sim::Round r) override {
    inner_.on_delivered(receiver, sender, r);
    if (informed_[receiver]) return;
    informed_[receiver] = true;
    if (r < inner_.phase3_begin()) activated_.push_back(receiver);
  }
  void end_round(sim::Round r) override {
    inner_.end_round(r);
    if (drop_all_) active_.clear();
    for (auto it = picks_.rbegin(); !drop_all_ && it != picks_.rend(); ++it)
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(*it));
    std::sort(activated_.begin(), activated_.end());
    active_.insert(active_.end(), activated_.begin(), activated_.end());
    activated_.clear();
    picks_.clear();
    drop_all_ = false;
  }
  [[nodiscard]] bool is_complete() const override {
    return inner_.is_complete();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  void check(bool ok, sim::Round r, const char* what) {
    if (ok || tally_.diverged) return;
    tally_.diverged = true;
    ADD_FAILURE() << what << " diverged from the reference in round " << r;
  }

  BroadcastRandomParams params_;
  BroadcastRandomProtocol inner_;
  Tally& tally_;
  Rng rng_;
  std::vector<NodeId> active_;
  std::vector<bool> informed_;
  std::vector<NodeId> activated_;  // this round, unsorted
  std::vector<std::size_t> picks_;  // this round's positions in active_
  bool drop_all_ = false;
  double phase2_prob_ = 0.0;
  double phase3_prob_ = 0.0;
};

using ProtocolFactory = std::function<std::unique_ptr<sim::Protocol>()>;

harness::McResult run_population(std::uint32_t n, double p,
                                 std::uint32_t trials, sim::Round max_rounds,
                                 const ProtocolFactory& make,
                                 bool per_node_only) {
  harness::McSpec spec;
  spec.trials = trials;
  spec.seed = 0x5a3317ull;
  spec.make_graph = [n, p](std::uint32_t, Rng rng) {
    return std::make_shared<const graph::Digraph>(
        graph::gnp_directed(n, p, rng));
  };
  spec.make_protocol = [&make, per_node_only](const graph::Digraph&,
                                              std::uint32_t)
      -> std::unique_ptr<sim::Protocol> {
    if (per_node_only) return std::make_unique<PerNodeOnly>(make());
    return make();
  };
  spec.run_options.max_rounds = max_rounds;
  return harness::run_monte_carlo(spec);
}

// Two-sample KS critical value at alpha ~ 0.001 for 96 vs 96 is ~0.28.
constexpr std::uint32_t kTrials = 96;
constexpr double kKsBound = 0.28;

TEST(TransmitterSamplingTest, BroadcastBulkMatchesPerNode) {
  const std::uint32_t n = 2048;
  const double p = 8.0 * std::log(n) / n;
  BroadcastRandomProtocol probe(BroadcastRandomParams{.p = p});
  probe.reset(n, Rng(0));
  const auto budget = probe.round_budget();
  const ProtocolFactory make = [p] {
    return std::make_unique<BroadcastRandomProtocol>(
        BroadcastRandomParams{.p = p});
  };
  const auto bulk = run_population(n, p, kTrials, budget, make, false);
  const auto per_node = run_population(n, p, kTrials, budget, make, true);

  EXPECT_NEAR(bulk.success_rate(), per_node.success_rate(), 0.1);
  EXPECT_LT(ks_statistic(bulk.rounds_sample().values(),
                         per_node.rounds_sample().values()),
            kKsBound);
  EXPECT_LT(ks_statistic(bulk.total_tx_sample().values(),
                         per_node.total_tx_sample().values()),
            kKsBound);
  // The paper's per-node invariant must hold on both samplers.
  EXPECT_LE(bulk.max_tx_sample().max(), 1.0);
  EXPECT_LE(per_node.max_tx_sample().max(), 1.0);
}

TEST(TransmitterSamplingTest, BroadcastBulkReplaysReferenceExactly) {
  // Sparse (Phase 2 runs) and dense regimes, on a materialised graph and on
  // the implicit backend. phase3_factor 2 lets some trials run out of
  // budget, so the "everyone goes passive" round is replayed too.
  std::uint64_t exhausted_rounds = 0;
  for (const bool implicit : {false, true}) {
    for (const double delta : {6.0, 40.0}) {
      const std::uint32_t n = 768;
      const double p = delta * std::log(n) / n;
      const BroadcastRandomParams params{.p = p, .phase3_factor = 2.0};
      BroadcastRandomProtocol probe(params);
      probe.reset(n, Rng(0));
      Alg1Replay::Tally tally;
      harness::McSpec spec;
      spec.trials = 12;
      spec.seed = 0x71ull + static_cast<std::uint64_t>(delta);
      if (implicit) {
        spec.implicit_gnp = sim::ImplicitGnp{.n = n, .p = p};
      } else {
        spec.make_graph = [n, p](std::uint32_t, Rng rng) {
          return std::make_shared<const graph::Digraph>(
              graph::gnp_directed(n, p, rng));
        };
      }
      spec.make_protocol = [&](const graph::Digraph&, std::uint32_t)
          -> std::unique_ptr<sim::Protocol> {
        return std::make_unique<Alg1Replay>(params, tally);
      };
      spec.run_options.max_rounds = probe.round_budget() + 2;
      (void)harness::run_monte_carlo(spec);
      SCOPED_TRACE(::testing::Message()
                   << (implicit ? "ignp" : "csr") << " delta=" << delta);
      EXPECT_FALSE(tally.diverged);
      EXPECT_GT(tally.sampled_rounds, 12u);
      exhausted_rounds += tally.exhausted_rounds;
    }
  }
  EXPECT_GT(exhausted_rounds, 0u);
}

TEST(TransmitterSamplingTest, GossipBulkMatchesPerNode) {
  const std::uint32_t n = 192;
  const double p = 8.0 * std::log(n) / n;
  GossipRandomProtocol probe(GossipRandomParams{.p = p});
  probe.reset(n, Rng(0));
  const auto budget = probe.round_budget();
  const ProtocolFactory make = [p] {
    return std::make_unique<GossipRandomProtocol>(GossipRandomParams{.p = p});
  };
  const std::uint32_t trials = 48;
  const auto bulk = run_population(n, p, trials, budget, make, false);
  const auto per_node = run_population(n, p, trials, budget, make, true);

  ASSERT_EQ(bulk.success_rate(), 1.0);
  ASSERT_EQ(per_node.success_rate(), 1.0);
  // 48 vs 48 KS critical value at alpha ~ 0.001 is ~0.40.
  EXPECT_LT(ks_statistic(bulk.rounds_sample().values(),
                         per_node.rounds_sample().values()),
            0.4);
  EXPECT_LT(ks_statistic(bulk.total_tx_sample().values(),
                         per_node.total_tx_sample().values()),
            0.4);
}

}  // namespace
}  // namespace radnet::core
