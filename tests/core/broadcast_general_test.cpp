#include "core/broadcast_general.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sim/engine.hpp"
#include "support/math.hpp"

namespace radnet::core {
namespace {

using graph::Digraph;

GeneralBroadcastParams make_params(std::uint64_t n, std::uint64_t D,
                                   double beta = 2.0) {
  return GeneralBroadcastParams{
      .schedule = sequence_schedule(SequenceDistribution::alpha(n, D)),
      .window = general_window(n, beta),
      .source = 0,
      .label = ""};
}

sim::RunResult run_alg3(const Digraph& g, std::uint64_t D, std::uint64_t seed,
                        double beta = 2.0) {
  GeneralBroadcastProtocol proto(make_params(g.num_nodes(), D, beta));
  sim::RunOptions options;
  options.max_rounds =
      general_round_budget(g.num_nodes(), D, lambda_of(g.num_nodes(), D), 64.0);
  options.stop_on_empty_candidates = true;
  sim::Engine engine;
  return engine.run(g, proto, Rng(seed), options);
}

TEST(GeneralBroadcastTest, WindowFormula) {
  EXPECT_EQ(general_window(1024, 1.0), 100u);      // (log2 1024)^2
  EXPECT_EQ(general_window(1024, 2.5), 250u);
  EXPECT_THROW((void)general_window(1, 1.0), std::invalid_argument);
  EXPECT_THROW((void)general_window(16, 0.0), std::invalid_argument);
}

TEST(GeneralBroadcastTest, CompletesOnPath) {
  const Digraph g = graph::path(64);
  const auto r = run_alg3(g, 63, 1);
  EXPECT_TRUE(r.completed);
}

TEST(GeneralBroadcastTest, CompletesOnGrid) {
  const Digraph g = graph::grid(12, 12);
  const auto r = run_alg3(g, 22, 2);
  EXPECT_TRUE(r.completed);
}

TEST(GeneralBroadcastTest, CompletesOnClusterChain) {
  const Digraph g = graph::cluster_chain(16, 8);
  const auto dia = graph::diameter_exact(g);
  ASSERT_TRUE(dia.has_value());
  const auto r = run_alg3(g, *dia, 3);
  EXPECT_TRUE(r.completed);
}

TEST(GeneralBroadcastTest, CompletesOnRandomGraph) {
  Rng grng(4);
  const std::uint32_t n = 1024;
  const double p = 12.0 * std::log(n) / n;
  const Digraph g = graph::gnp_directed(n, p, grng);
  const auto dia = graph::diameter_sampled(g, 4, 5);
  ASSERT_TRUE(dia.has_value());
  const auto r = run_alg3(g, *dia, 5);
  EXPECT_TRUE(r.completed);
}

TEST(GeneralBroadcastTest, TimeWithinTheoremBound) {
  // O(D log(n/D) + log^2 n) with modest constants on a path.
  const std::uint32_t n = 256;
  const Digraph g = graph::path(n);
  const double lambda = lambda_of(n, n - 1);
  const double bound =
      static_cast<double>(n - 1) * lambda + std::pow(std::log2(n), 2.0);
  double worst = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto r = run_alg3(g, n - 1, seed + 10);
    ASSERT_TRUE(r.completed) << seed;
    worst = std::max(worst, static_cast<double>(r.completion_round));
  }
  EXPECT_LT(worst, 40.0 * bound);
}

TEST(GeneralBroadcastTest, EnergyPerNodeWithinTheoremBound) {
  // O(log^2 n / lambda) expected transmissions per node.
  Rng grng(6);
  const std::uint32_t n = 2048;
  const double p = 12.0 * std::log(n) / n;
  const Digraph g = graph::gnp_directed(n, p, grng);
  const auto dia = graph::diameter_sampled(g, 4, 7);
  ASSERT_TRUE(dia.has_value());
  const double lambda = lambda_of(n, *dia);
  const auto r = run_alg3(g, *dia, 8);
  ASSERT_TRUE(r.completed);
  const double per_node = r.ledger.mean_tx_per_node();
  const double bound = std::pow(std::log2(n), 2.0) / lambda;
  EXPECT_LT(per_node, 2.0 * bound);
}

TEST(GeneralBroadcastTest, NodesGoPassiveAfterWindow) {
  // With a tiny window on a long path the broadcast stalls: informed nodes
  // expire before reaching the far end, candidates empty out, and the
  // engine stops early instead of spinning to max_rounds.
  const Digraph g = graph::path(128);
  GeneralBroadcastParams params{
      .schedule = sequence_schedule(SequenceDistribution::alpha(128, 127)),
      .window = 3,
      .source = 0,
      .label = "tiny-window"};
  GeneralBroadcastProtocol proto(params);
  sim::RunOptions options;
  options.max_rounds = 1u << 20;
  options.stop_on_empty_candidates = true;
  sim::Engine engine;
  const auto r = engine.run(g, proto, Rng(9), options);
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.rounds_executed, 10000u);  // stalled and stopped, not capped
}

TEST(GeneralBroadcastTest, UnlimitedWindowNeverStalls) {
  const Digraph g = graph::path(64);
  GeneralBroadcastParams params{
      .schedule = sequence_schedule(SequenceDistribution::alpha(64, 63)),
      .window = 0,  // unlimited
      .source = 0,
      .label = ""};
  GeneralBroadcastProtocol proto(params);
  sim::RunOptions options;
  options.max_rounds = 1u << 20;
  options.stop_on_empty_candidates = true;
  sim::Engine engine;
  const auto r = engine.run(g, proto, Rng(10), options);
  EXPECT_TRUE(r.completed);
}

TEST(GeneralBroadcastTest, ScheduleIsEvaluatedOncePerRound) {
  // The round probability is one value for the whole network: begin_round
  // evaluates the schedule exactly once per round, whatever the number of
  // candidates.
  std::vector<sim::Round> rounds;
  GeneralBroadcastParams params{
      .schedule = [&](sim::Round r, Rng&) {
        rounds.push_back(r);
        return 0.5;
      }};
  GeneralBroadcastProtocol proto(params);
  sim::RunOptions options;
  options.max_rounds = 6;
  sim::Engine engine;
  (void)engine.run(graph::path(16), proto, Rng(12), options);
  EXPECT_EQ(rounds, (std::vector<sim::Round>{0, 1, 2, 3, 4, 5}));
}

TEST(GeneralBroadcastTest, HorizonSilencesEveryNode) {
  // Flooding on a path with horizon 2: rounds 0 and 1 move the wavefront
  // one hop each (1 + 2 transmissions), then every node goes passive.
  GeneralBroadcastProtocol proto(GeneralBroadcastParams{
      .schedule = [](sim::Round, Rng&) { return 1.0; }, .horizon = 2});
  sim::RunOptions options;
  options.max_rounds = 64;
  options.stop_on_empty_candidates = true;
  sim::Engine engine;
  const auto r = engine.run(graph::path(16), proto, Rng(13), options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(proto.informed_count(), 3u);
  EXPECT_EQ(r.ledger.total_transmissions, 3u);
  EXPECT_EQ(proto.active_count(), 0u);
}

TEST(GeneralBroadcastTest, LateInformeesStaySilentAfterActivateThrough) {
  // Flooding on a path activating only receivers reached in rounds <= 1:
  // node 3, informed in round 2, never relays, so the wave stops there.
  GeneralBroadcastProtocol proto(GeneralBroadcastParams{
      .schedule = [](sim::Round, Rng&) { return 1.0; },
      .activate_through = 1});
  sim::RunOptions options;
  options.max_rounds = 64;
  sim::Engine engine;
  const auto r = engine.run(graph::path(16), proto, Rng(14), options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(proto.informed_count(), 4u);
  EXPECT_EQ(proto.active_count(), 3u);
}

TEST(GeneralBroadcastTest, TradeoffLambdaReducesEnergyIncreasesTime) {
  // Theorem 4.2 on a path: sweeping lambda up should (statistically) cut
  // per-node transmissions and stretch completion time.
  const std::uint32_t n = 128;
  const Digraph g = graph::path(n);
  const auto measure = [&](double lambda, std::uint64_t seed) {
    GeneralBroadcastParams params{
        .schedule = sequence_schedule(
            SequenceDistribution::alpha_with_lambda(n, lambda)),
        .window = general_window(n, 4.0),
        .source = 0,
        .label = ""};
    GeneralBroadcastProtocol proto(params);
    sim::RunOptions options;
    options.max_rounds = general_round_budget(n, n - 1, lambda, 64.0);
    options.stop_on_empty_candidates = true;
    sim::Engine engine;
    return engine.run(g, proto, Rng(seed), options);
  };
  double tx_low = 0.0, tx_high = 0.0, time_low = 0.0, time_high = 0.0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    const auto lo = measure(1.0, 100 + t);
    const auto hi = measure(7.0, 200 + t);
    ASSERT_TRUE(lo.completed);
    ASSERT_TRUE(hi.completed);
    tx_low += lo.ledger.mean_tx_per_node();
    tx_high += hi.ledger.mean_tx_per_node();
    time_low += static_cast<double>(lo.completion_round);
    time_high += static_cast<double>(hi.completion_round);
  }
  EXPECT_LT(tx_high, tx_low);     // higher lambda, fewer transmissions
  EXPECT_GT(time_high, time_low); // but longer broadcast
}

TEST(GeneralBroadcastTest, InvalidSetupThrows) {
  GeneralBroadcastParams params{
      .schedule = sequence_schedule(SequenceDistribution::alpha(64, 8)),
      .window = 10,
      .source = 70,  // out of range for n = 64
      .label = ""};
  GeneralBroadcastProtocol proto(params);
  EXPECT_THROW(proto.reset(64, Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace radnet::core
