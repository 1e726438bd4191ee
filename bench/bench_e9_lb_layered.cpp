// E9 + F2 — Theorem 4.4 on the Fig. 2 layered network.
//
// The network: a chain of stars S_1..S_L (S_i has 2^i leaves; crossing S_i
// needs exactly one of its 2^i leaves to transmit alone) followed by a path
// of length D - 2L. Any oblivious *time-invariant* schedule that finishes in
// cD log(n/D) rounds w.h.p. must spend >= log^2 n / (max{4c,8} log(n/D))
// transmissions per node: some star has per-round crossing probability
// <= 1/ln n (so nodes must stay busy ~ln^2 n rounds), and the path forces a
// per-round transmit probability >= ~1/(2c log(n/D)).
//
// The bench runs time-invariant alpha(lambda-hat) schedules with unlimited
// windows under the cD log(n/D) deadline and reports success vs measured
// transmissions per *star-leaf* node, against the theorem's bound.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "core/broadcast_general.hpp"
#include "graph/lower_bound_nets.hpp"
#include "harness/experiment.hpp"
#include "harness/monte_carlo.hpp"
#include "support/math.hpp"
#include "support/table.hpp"

namespace {

using radnet::Rng;
using radnet::Table;
using radnet::graph::Digraph;

}  // namespace

int main() {
  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E9 (Theorem 4.4 / Figure 2)",
      "Time-invariant schedules on the layered star+path network: finishing "
      "inside the cD log(n/D) deadline costs >= log^2 n / (max{4c,8} "
      "log(n/D)) transmissions per node.");

  const std::uint32_t trials = env.trials(24);
  const auto n_param = static_cast<radnet::graph::NodeId>(64);  // L = 6 stars
  const std::uint64_t D = env.scaled(64, 2ull * 6 + 2);
  const auto net = radnet::graph::thm44_network(n_param, D);
  const std::uint64_t n = net.graph.num_nodes();
  const double log2n = std::log2(static_cast<double>(n_param));
  // The theorem's lambda uses the construction's node count ("a network
  // with O(n) nodes"), i.e. the actual graph size here.
  const double lambda_nd = radnet::lambda_of(n, D);
  const double c = 8.0;  // deadline constant: generous enough that dense
                         // schedules CAN pass, so the pass/fail contrast shows
  const auto deadline = static_cast<radnet::sim::Round>(
      std::ceil(c * static_cast<double>(D) * lambda_nd));
  const double bound = log2n * log2n / (std::max(4.0 * c, 8.0) * lambda_nd);

  Table t({"lambda-hat", "E[2^-I]", "success@deadline", "rounds", "tx/node",
           "bound", "tx/bound"});
  t.set_caption(
      "E9: n_param=" + std::to_string(n_param) + " (L=6 stars), D=" +
      std::to_string(D) + ", graph nodes=" + std::to_string(n) +
      ", deadline=" + std::to_string(deadline) + " rounds, " +
      std::to_string(trials) + " trials/row");

  for (const double lambda_hat : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    const auto dist =
        radnet::core::SequenceDistribution::alpha_with_lambda(n, lambda_hat);

    radnet::harness::McSpec spec;
    spec.trials = trials;
    spec.seed = env.seed + 10;
    spec.make_graph = radnet::harness::shared_graph(Digraph(net.graph));
    spec.make_protocol = [&](const Digraph&, std::uint32_t) {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::core::GeneralBroadcastParams{
              .schedule = radnet::core::sequence_schedule(dist),
              .window = 0,  // time-invariant: active forever
              .source = net.source,
              .label = ""});
    };
    spec.run_options.max_rounds = deadline;
    const auto result = radnet::harness::run_monte_carlo(spec);
    const auto rounds = result.rounds_sample();

    t.row()
        .add(lambda_hat, 1)
        .add(dist.expected_tx_prob(), 4)
        .add(result.success_rate(), 3)
        .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
                rounds.empty() ? 0.0 : rounds.stddev(), 0)
        .add_pm(result.mean_tx_sample().mean(),
                result.mean_tx_sample().stddev(), 2)
        .add(bound, 2)
        .add(result.mean_tx_sample().mean() / bound, 2);
  }

  radnet::harness::emit_table(env, "e9", "theorem44", t);

  std::cout
      << "Shape check: every configuration that meets the deadline w.h.p.\n"
         "pays tx/bound >= ~1; energy-lean configurations (large lambda-hat,\n"
         "low E[2^-I]) either miss the deadline on the path segment or stall\n"
         "on a star. The bound is not beaten.\n";
  return 0;
}
