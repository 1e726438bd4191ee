// E8 — Observation 4.3: the n log n / 2 transmission lower bound.
//
// On the 3n+1-node double-cover star network, destination d_i is informed
// in a round iff exactly one of its two intermediates transmits — per-round
// probability 2q(1-q) <= 1/2 for any fixed send probability q. To reach
// success probability 1 - 1/n every destination needs ~log2(n^2)
// Bernoulli(<=1/2) rounds, i.e. the 2n intermediates must spend a total of
// >= n log2(n) / 2 expected transmissions. The bench sweeps q and the round
// budget, reports measured success and total transmissions, and shows the
// cheapest successful configuration still pays the bound.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "baselines/broadcast_baselines.hpp"
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
      "E8 (Observation 4.3)",
      "Oblivious fixed-probability schedules on the double-cover star need "
      ">= n log2(n)/2 total transmissions for success probability 1 - 1/n.");

  const std::uint32_t trials = env.trials(64);

  Table t({"n", "q", "round budget", "success", "target 1-1/n", "total_tx",
           "bound n*log2n/2", "tx/bound"});
  t.set_caption("E8: fixed-q schedules on the Observation 4.3 network — " +
                std::to_string(trials) + " trials/row");

  for (const std::uint64_t base : {64ull, 128ull, 256ull}) {
    const auto n_dest = static_cast<radnet::graph::NodeId>(env.scaled(base));
    const auto net = radnet::graph::obs43_network(n_dest);
    const double bound = net.transmission_lower_bound();
    const double target = 1.0 - 1.0 / static_cast<double>(n_dest);
    const double log2n = std::log2(static_cast<double>(n_dest));

    for (const double q : {0.5, 0.25, 0.1}) {
      // Rounds for per-destination failure (1 - 2q(1-q))^w <= 1/n^2.
      const double per_round = 2.0 * q * (1.0 - q);
      const std::vector<double> budgets = {
          0.5 * 2.0 * log2n / -std::log2(1.0 - per_round),
          1.0 * 2.0 * log2n / -std::log2(1.0 - per_round),
          2.0 * 2.0 * log2n / -std::log2(1.0 - per_round)};
      for (const double b : budgets) {
        const auto budget = static_cast<radnet::sim::Round>(std::ceil(b)) + 1;
        radnet::harness::McSpec spec;
        spec.trials = trials;
        spec.seed = env.seed + 9;
        spec.make_graph =
            radnet::harness::shared_graph(Digraph(net.graph));
        spec.make_protocol = [&](const Digraph&, std::uint32_t) {
          return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
              radnet::baselines::fixed_params(net.graph.num_nodes(), q,
                                              net.source));
        };
        spec.run_options.max_rounds = budget;
        const auto result = radnet::harness::run_monte_carlo(spec);
        const auto total = result.total_tx_sample();

        t.row()
            .add(static_cast<std::uint64_t>(n_dest))
            .add(q, 2)
            .add(static_cast<std::uint64_t>(budget))
            .add(result.success_rate(), 3)
            .add(target, 3)
            .add_pm(total.mean(), total.stddev(), 0)
            .add(bound, 0)
            .add(total.mean() / bound, 2);
      }
    }
  }

  radnet::harness::emit_table(env, "e8", "observation43", t);

  std::cout
      << "Shape check: rows whose success rate reaches the 1-1/n target all\n"
         "have tx/bound >= ~1; configurations below the bound (short budgets\n"
         "or wasteful q) fail to reach the target. No schedule beats the\n"
         "n*log2(n)/2 wall.\n";
  return 0;
}
