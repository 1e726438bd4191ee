// Implicit-vs-CSR topology equivalence.
//
// For a protocol in which every node transmits at most once (Algorithm 1),
// the implicit G(n,p) backend never examines an ordered pair twice, so its
// executions are draws from *exactly* the same distribution as runs on a
// materialised G(n,p) graph (see sim/topology.hpp). These tests run >= 64
// paired Monte-Carlo trials of BroadcastRandomProtocol through both
// backends at the same root seed and compare the completion-round and
// total-transmission distributions with a two-sample KS statistic, plus the
// paper's per-node invariant (max one transmission per node) on both paths.
// Trial counts honour RADNET_STAT_TRIALS (ctest label: tier1_stat).
#include <cmath>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "graph/generators.hpp"
#include "harness/monte_carlo.hpp"
#include "statistical_oracle.hpp"
#include "support/stats.hpp"

namespace radnet::sim {
namespace {

using core::BroadcastRandomParams;
using core::BroadcastRandomProtocol;
using harness::McResult;
using harness::McSpec;

McSpec base_spec(std::uint32_t n, double p, std::uint32_t trials) {
  McSpec spec;
  spec.trials = trials;
  spec.seed = 0x70b0107ull;
  spec.make_protocol = [p](const graph::Digraph&, std::uint32_t) {
    return std::make_unique<BroadcastRandomProtocol>(
        BroadcastRandomParams{.p = p});
  };
  BroadcastRandomProtocol probe(BroadcastRandomParams{.p = p});
  probe.reset(n, Rng(0));
  spec.run_options.max_rounds = probe.round_budget();
  return spec;
}

struct PairedRuns {
  McResult csr;
  McResult implicit_gnp;
};

PairedRuns run_paired(std::uint32_t n, double p, std::uint32_t trials) {
  McSpec csr_spec = base_spec(n, p, trials);
  csr_spec.make_graph = [n, p](std::uint32_t, Rng rng) {
    return std::make_shared<const graph::Digraph>(
        graph::gnp_directed(n, p, rng));
  };

  McSpec implicit_spec = base_spec(n, p, trials);
  implicit_spec.implicit_gnp =
      sim::ImplicitGnp{static_cast<graph::NodeId>(n), p, Rng{}};

  return {harness::run_monte_carlo(csr_spec),
          harness::run_monte_carlo(implicit_spec)};
}

// KS at alpha = 0.001 (discreteness of the round counts only makes the
// statistic smaller, so the threshold is conservative).
constexpr double kKsAlpha = 0.001;

void expect_distributionally_equal(const PairedRuns& runs,
                                   double min_success = 0.9) {
  // Success probability is itself a distributional quantity: the backends
  // must agree on it even at operating points where the protocol is not
  // reliable at finite size.
  EXPECT_GE(runs.csr.success_rate(), min_success);
  EXPECT_GE(runs.implicit_gnp.success_rate(), min_success);
  EXPECT_NEAR(runs.csr.success_rate(), runs.implicit_gnp.success_rate(), 0.15);

  const auto ks_rounds = testing::ks_two_sample(
      runs.csr.rounds_sample().values(),
      runs.implicit_gnp.rounds_sample().values(), kKsAlpha);
  EXPECT_TRUE(ks_rounds.pass())
      << ks_rounds.describe("completion-round distributions diverge");

  const auto ks_tx = testing::ks_two_sample(
      runs.csr.total_tx_sample().values(),
      runs.implicit_gnp.total_tx_sample().values(), kKsAlpha);
  EXPECT_TRUE(ks_tx.pass())
      << ks_tx.describe("total-transmission distributions diverge");

  const double csr_tx = runs.csr.total_tx_sample().mean();
  const double imp_tx = runs.implicit_gnp.total_tx_sample().mean();
  EXPECT_NEAR(imp_tx / csr_tx, 1.0, 0.15);

  // Theorem 2.1's per-node energy bound must hold on both backends.
  EXPECT_LE(runs.csr.max_tx_sample().max(), 1.0);
  EXPECT_LE(runs.implicit_gnp.max_tx_sample().max(), 1.0);
}

TEST(TopologyEquivalenceTest, SparseRegime) {
  const std::uint32_t n = 4096;
  const double p = 8.0 * std::log(n) / n;  // d ~ 66, Phase-2 regime
  expect_distributionally_equal(run_paired(n, p, testing::stat_trials(96)));
}

TEST(TopologyEquivalenceTest, SparserLongerPhase1) {
  // Smaller d and more Phase-1 rounds; at this finite size the protocol only
  // completes roughly 60% of trials — the backends must agree on that too.
  // Success sits mid-distribution here, so the rate is high-variance: use a
  // larger trial count to keep the comparison sharp.
  const std::uint32_t n = 8192;
  const double p = 3.0 * std::log(n) / n;
  expect_distributionally_equal(run_paired(n, p, testing::stat_trials(256)),
                                /*min_success=*/0.4);
}

TEST(TopologyEquivalenceTest, ImplicitRunsAreReproducible) {
  const std::uint32_t n = 2048;
  const double p = 8.0 * std::log(n) / n;
  const ImplicitGnp spec{n, p, Rng(42)};
  BroadcastRandomProtocol a(BroadcastRandomParams{.p = p});
  BroadcastRandomProtocol b(BroadcastRandomParams{.p = p});
  Engine engine;
  RunOptions options;
  options.record_trace = true;
  const RunResult ra = engine.run(spec, a, Rng(7), options);
  const RunResult rb = engine.run(spec, b, Rng(7), options);
  EXPECT_EQ(ra.ledger, rb.ledger);
  EXPECT_EQ(ra.trace, rb.trace);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.completion_round, rb.completion_round);
}

}  // namespace
}  // namespace radnet::sim
