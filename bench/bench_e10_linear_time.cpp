// E10 — Corollary 4.5: setting D = Theta(n) in the Theorem 4.4 network,
// any oblivious schedule finishing in cn rounds w.h.p. needs Omega(log^2 n)
// transmissions per node. We run time-invariant alpha(lambda-hat) schedules
// under a c*D deadline on a long-path instance and report the energy of the
// configurations that succeed.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "core/broadcast_general.hpp"
#include "graph/lower_bound_nets.hpp"
#include "harness/experiment.hpp"
#include "harness/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

using radnet::Rng;
using radnet::Table;
using radnet::graph::Digraph;

}  // namespace

int main() {
  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E10 (Corollary 4.5)",
      "Linear-time broadcast (D = Theta(n)) requires Omega(log^2 n) "
      "transmissions per node for any oblivious schedule.");

  const std::uint32_t trials = env.trials(16);
  const auto n_param = static_cast<radnet::graph::NodeId>(64);  // L = 6
  const std::uint64_t D = env.scaled(256, 16);                  // D >> 2L
  const auto net = radnet::graph::thm44_network(n_param, D);
  const std::uint64_t n = net.graph.num_nodes();
  const double log2n = std::log2(static_cast<double>(n_param));
  const auto deadline =
      static_cast<radnet::sim::Round>(8.0 * static_cast<double>(D));

  Table t({"lambda-hat", "success@8D", "rounds", "tx/node", "tx/log2n^2"});
  t.set_caption("E10: D=" + std::to_string(D) + " (~linear), deadline=" +
                std::to_string(deadline) + " rounds, " +
                std::to_string(trials) + " trials/row");

  for (const double lambda_hat : {1.0, 2.0, 4.0, 6.0}) {
    const auto dist =
        radnet::core::SequenceDistribution::alpha_with_lambda(n, lambda_hat);
    radnet::harness::McSpec spec;
    spec.trials = trials;
    spec.seed = env.seed + 11;
    spec.make_graph = radnet::harness::shared_graph(Digraph(net.graph));
    spec.make_protocol = [&](const Digraph&, std::uint32_t) {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::core::GeneralBroadcastParams{
              .schedule = radnet::core::sequence_schedule(dist),
              .window = 0,
              .source = net.source,
              .label = ""});
    };
    spec.run_options.max_rounds = deadline;
    const auto result = radnet::harness::run_monte_carlo(spec);
    const auto rounds = result.rounds_sample();

    t.row()
        .add(lambda_hat, 1)
        .add(result.success_rate(), 3)
        .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
                rounds.empty() ? 0.0 : rounds.stddev(), 0)
        .add_pm(result.mean_tx_sample().mean(),
                result.mean_tx_sample().stddev(), 2)
        .add(result.mean_tx_sample().mean() / (log2n * log2n), 3);
  }

  radnet::harness::emit_table(env, "e10", "corollary45", t);

  std::cout << "Shape check: successful configurations all have\n"
               "tx/log2n^2 bounded below by a constant — the Omega(log^2 n)\n"
               "per-node cost of linear-time broadcast.\n";
  return 0;
}
