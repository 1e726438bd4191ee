// Jammed implicit-G(n,p) vs the explicit churn-1 oracle.
//
// A jammer transmits every round, so on the implicit static backend its
// ordered pairs are re-examined — and freshly resampled — round after
// round: the backend's reading of a jammed network is the *memoryless*
// (churn = 1) one. That reading has an exact explicit oracle: a
// DynamicCsrTopology over graph::ChurnGnp(churn = 1) with the same
// AdversarySpec, where the jam travels materialised edges. For honest
// traffic the two backends are equivalent exactly as in
// topology_equivalence_test.cpp (Algorithm 1 honest nodes transmit at most
// once; the gossip marginal is already the churn-1 model on the implicit
// backend, see core/gossip_random.hpp).
//
// Both specs share one root seed, and the Monte-Carlo harness re-keys the
// adversary per trial from (seed, trial, 2) — so paired trials face
// *identical* jammer sets, and the completion/stranded/energy laws must
// coincide. Jammers deafen every out-neighbour permanently (any clean
// honest transmission collides with the jam), so at these densities runs
// end stranded, not complete: the compared quantities are the stranded
// count, total transmissions and delivery counts over a fixed horizon,
// KS/chi-squared at alpha = 0.001. Trial counts honour RADNET_STAT_TRIALS
// (ctest label: tier1_stat).
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "harness/monte_carlo.hpp"
#include "statistical_oracle.hpp"
#include "support/stats.hpp"

namespace radnet::sim {
namespace {

using core::BroadcastRandomParams;
using core::BroadcastRandomProtocol;
using core::GossipRumorMarginalParams;
using core::GossipRumorMarginalProtocol;
using harness::McResult;
using harness::McSpec;
using testing::ks_two_sample;
using testing::stat_trials;

constexpr double kAlpha = 0.001;

using ProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

AdversarySpec jammer_spec() {
  AdversarySpec adv;
  adv.jammer_fraction = 0.02;
  adv.protected_nodes = {0};  // node 0 is the (rumor) source in both protocols
  return adv;
}

McSpec base_spec(std::uint64_t seed, std::uint32_t trials,
                 const ProtocolFactory& factory, Round max_rounds) {
  McSpec spec;
  spec.trials = trials;
  spec.seed = seed;
  spec.make_protocol = [factory](const graph::Digraph&, std::uint32_t) {
    return factory();
  };
  spec.run_options.max_rounds = max_rounds;
  spec.run_options.stop_on_empty_candidates = true;
  spec.run_options.adversary = jammer_spec();
  return spec;
}

struct PairedRuns {
  McResult implicit_gnp;
  McResult explicit_churn;
};

PairedRuns run_paired(graph::NodeId n, double p, std::uint64_t seed,
                      std::uint32_t trials, const ProtocolFactory& factory,
                      Round max_rounds) {
  McSpec imp = base_spec(seed, trials, factory, max_rounds);
  imp.implicit_gnp = sim::ImplicitGnp{n, p, Rng{}};

  McSpec exp = base_spec(seed, trials, factory, max_rounds);
  exp.make_sequence = [n, p](std::uint32_t, Rng rng) {
    return std::make_unique<graph::ChurnGnp>(n, p, /*churn=*/1.0, rng);
  };

  return {harness::run_monte_carlo(imp), harness::run_monte_carlo(exp)};
}

std::vector<double> stranded_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    EXPECT_TRUE(o.stranded.has_value());
    v.push_back(static_cast<double>(o.stranded.value_or(0)));
  }
  return v;
}

std::vector<double> deliveries_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes)
    v.push_back(static_cast<double>(o.deliveries));
  return v;
}

void expect_equivalent(const PairedRuns& runs, const std::string& what) {
  const auto& imp = runs.implicit_gnp;
  const auto& exp = runs.explicit_churn;
  EXPECT_NEAR(imp.success_rate(), exp.success_rate(), 0.25) << what;

  // Jammers must actually bite — an accidentally inert adversary would
  // make this whole test vacuous.
  EXPECT_GT(imp.stranded_sample().mean(), 0.0) << what;
  EXPECT_GT(exp.stranded_sample().mean(), 0.0) << what;

  const auto ks_stranded =
      ks_two_sample(stranded_of(imp), stranded_of(exp), kAlpha);
  EXPECT_TRUE(ks_stranded.pass())
      << ks_stranded.describe(what + ": stranded-count distributions");

  const auto ks_tx = ks_two_sample(imp.total_tx_sample().values(),
                                   exp.total_tx_sample().values(), kAlpha);
  EXPECT_TRUE(ks_tx.pass())
      << ks_tx.describe(what + ": total-transmission distributions");

  const auto ks_del = ks_two_sample(deliveries_of(imp), deliveries_of(exp),
                                    kAlpha);
  EXPECT_TRUE(ks_del.pass())
      << ks_del.describe(what + ": delivery-count distributions");
}

TEST(AdversaryTopologyEquivalence, JammedAlg1MatchesChurnOracle) {
  const graph::NodeId n = 192;
  const double p = 8.0 * std::log(n) / n;
  const std::uint32_t trials = stat_trials(32);
  const ProtocolFactory factory = [p] {
    return std::make_unique<BroadcastRandomProtocol>(
        BroadcastRandomParams{.p = p});
  };

  for (const std::uint64_t seed : {0xAD1ull, 0xAD2ull, 0xAD3ull}) {
    const auto runs = run_paired(n, p, seed, trials, factory,
                                 /*max_rounds=*/96);
    expect_equivalent(runs, "alg1 seed " + std::to_string(seed));
    // Jam transmissions are adversary bookkeeping, not protocol energy:
    // Theorem 2.1's per-node bound must survive on both backends.
    EXPECT_LE(runs.implicit_gnp.max_tx_sample().max(), 1.0);
    EXPECT_LE(runs.explicit_churn.max_tx_sample().max(), 1.0);
  }
}

TEST(AdversaryTopologyEquivalence, JammedGossipMarginalMatchesChurnOracle) {
  const graph::NodeId n = 192;
  const double p = 8.0 * std::log(n) / n;
  const std::uint32_t trials = stat_trials(24);
  const ProtocolFactory factory = [p] {
    return std::make_unique<GossipRumorMarginalProtocol>(
        GossipRumorMarginalParams{.p = p});
  };

  for (const std::uint64_t seed : {0xAD1ull, 0xAD2ull, 0xAD3ull}) {
    const auto runs = run_paired(n, p, seed, trials, factory,
                                 /*max_rounds=*/64);
    expect_equivalent(runs, "gossip marginal seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace radnet::sim
