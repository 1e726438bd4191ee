// Energy trade-off planner: pick lambda for a deployment deadline.
//
// Theorem 4.2 gives a dial: with distribution alpha(lambda), broadcast
// takes O(D*lambda + log^2 n) rounds and costs O(log^2 n / lambda)
// transmissions per node. Given a topology and a round deadline, this
// example sweeps the dial, measures both sides of the trade on the real
// simulator, and recommends the most energy-frugal lambda that still meets
// the deadline with the required confidence.
//
//   $ ./energy_tradeoff [deadline_rounds] [seed]
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/broadcast_general.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "harness/monte_carlo.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace radnet;

  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 5;

  // The deployment: a chain of 12 dense clusters of 16 radios — rooms along
  // a corridor, say. Both regimes of Theorem 4.1's analysis are present:
  // dense collision domains and long hop distances.
  const graph::Digraph net = graph::cluster_chain(16, 12);
  const graph::NodeId n = net.num_nodes();
  const auto D = *graph::diameter_exact(net);
  const double log2n = std::log2(static_cast<double>(n));

  const sim::Round deadline =
      argc > 1 ? static_cast<sim::Round>(std::atoi(argv[1]))
               : static_cast<sim::Round>(8 * D + 4 * log2n * log2n);

  std::cout << "topology: " << n << " radios in 12 clusters, hop diameter "
            << D << "\ndeadline: " << deadline << " rounds\n\n";

  Table t({"lambda", "meets deadline", "rounds p50", "rounds p95",
           "tx/node mean", "verdict"});
  t.set_caption("Trade-off sweep (24 trials per lambda):");

  double best_energy = 1e300;
  std::uint32_t best_lambda = 0;
  const auto max_lambda = static_cast<std::uint32_t>(log2n);
  for (std::uint32_t l = 1; l <= max_lambda; ++l) {
    const auto dist = core::SequenceDistribution::alpha_with_lambda(n, l);
    harness::McSpec spec;
    spec.trials = 24;
    spec.seed = seed;
    spec.make_graph = harness::shared_graph(graph::Digraph(net));
    spec.make_protocol = [&](const graph::Digraph&, std::uint32_t) {
      return std::make_unique<core::GeneralBroadcastProtocol>(
          core::GeneralBroadcastParams{
              .schedule = core::sequence_schedule(dist),
              .window = core::general_window(n, 6.0),
              .source = 0,
              .label = ""});
    };
    spec.run_options.max_rounds = deadline;
    spec.run_options.stop_on_empty_candidates = true;
    // Nodes can't detect completion: count the energy they spend until
    // their activity windows expire, not until an omniscient stop.
    spec.run_options.run_to_quiescence = true;
    const auto result = harness::run_monte_carlo(spec);

    const bool meets = result.success_rate() >= 0.95;
    const auto rounds = result.rounds_sample();
    const double energy = result.mean_tx_sample().mean();
    if (meets && energy < best_energy) {
      best_energy = energy;
      best_lambda = l;
    }
    t.row()
        .add(static_cast<std::uint64_t>(l))
        .add(meets ? "yes" : "no")
        .add(rounds.empty() ? 0.0 : rounds.median(), 0)
        .add(rounds.empty() ? 0.0 : rounds.quantile(0.95), 0)
        .add(energy, 2)
        .add(meets ? (energy <= best_energy ? "candidate" : "ok")
                   : "misses deadline");
  }

  t.print(std::cout);
  if (best_lambda != 0) {
    std::cout << "\nrecommendation: lambda = " << best_lambda << " — about "
              << best_energy
              << " transmissions per node, the cheapest setting that meets\n"
                 "the deadline in >= 95% of trials. Larger lambda saves no\n"
                 "further energy once the 1/(2 log n) floor dominates\n"
                 "(the paper's Omega(log n) per-node lower bound).\n";
  } else {
    std::cout << "\nno lambda meets this deadline — relax it or accept\n"
                 "Czumaj-Rytter-level energy.\n";
  }
  return 0;
}
