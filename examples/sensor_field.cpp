// Sensor field: pushing a firmware update through a geometric deployment.
//
// The scenario from the paper's introduction — battery-powered devices with
// fixed transmit power, unknown neighbourhood — on the random geometric
// layout the conclusion recommends (§5). A gateway in the field broadcasts
// an update with Algorithm 3 (it knows the field's hop diameter from a site
// survey); we compare against the classic Decay protocol under a realistic
// weighted energy model and report per-node battery impact.
//
//   $ ./sensor_field [n] [seed]
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "baselines/broadcast_baselines.hpp"
#include "core/broadcast_general.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sim/engine.hpp"
#include "support/math.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace radnet;

  const graph::NodeId n =
      argc > 1 ? static_cast<graph::NodeId>(std::atoi(argv[1])) : 1024;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 7;

  // Deploy n sensors uniformly in a unit square; radio range a bit above
  // the connectivity threshold (a realistic, barely-connected field).
  const double radius = graph::rgg_threshold_radius(n, 3.0);
  Rng rng(seed);
  std::vector<graph::Point> layout;
  const graph::Digraph field = graph::random_geometric(n, radius, rng, &layout);

  if (!graph::strongly_connected(field)) {
    std::cerr << "field disconnected at this seed; re-run with another seed\n";
    return 1;
  }
  const auto diameter = graph::diameter_sampled(field, 4, seed + 1);
  const auto deg = graph::degree_stats(field);
  std::cout << "sensor field: n=" << n << "  radio range=" << radius
            << "  mean neighbours=" << deg.mean_out
            << "  hop diameter=" << *diameter << "\n\n";

  // Site-survey knowledge: the gateway knows n and the hop diameter D.
  const std::uint64_t D = *diameter;
  const sim::EnergyModel battery{.tx_cost = 1.0, .rx_cost = 0.08,
                                 .idle_cost = 0.002};

  Table t({"protocol", "completed", "rounds", "total tx", "max tx/node",
           "battery units", "battery/node"});
  t.set_caption("Firmware broadcast from sensor 0:");

  const auto report = [&](const std::string& name, const sim::RunResult& r) {
    t.row()
        .add(name)
        .add(r.completed ? "yes" : "NO")
        .add(static_cast<std::uint64_t>(r.completed ? r.completion_round
                                                    : r.rounds_executed))
        .add(r.ledger.total_transmissions)
        .add(static_cast<std::uint64_t>(r.ledger.max_tx_per_node()))
        .add(r.ledger.energy(battery), 0)
        .add(r.ledger.energy(battery) / n, 2);
  };

  {
    core::GeneralBroadcastProtocol alg3(core::GeneralBroadcastParams{
        .schedule = core::sequence_schedule(
            core::SequenceDistribution::alpha(n, D)),
        .window = core::general_window(n, 4.0),
        .source = 0,
        .label = "alg3"});
    sim::Engine engine;
    sim::RunOptions options;
    options.max_rounds =
        core::general_round_budget(n, D, lambda_of(n, D), 96.0);
    options.stop_on_empty_candidates = true;
    report("alg3 (this paper)", engine.run(field, alg3, Rng(seed + 2), options));
  }
  {
    core::GeneralBroadcastProtocol decay(baselines::decay_params(n));
    sim::Engine engine;
    sim::RunOptions options;
    options.max_rounds =
        core::general_round_budget(n, D, lambda_of(n, D), 96.0);
    report("decay (BGI'92)", engine.run(field, decay, Rng(seed + 2), options));
  }

  t.print(std::cout);
  std::cout << "\nWith fixed transmit power, every transmission costs the\n"
               "same battery charge — the paper's energy metric. alg3 keeps\n"
               "each sensor's radio almost always silent (expected\n"
               "O(log^2 n / log(n/D)) transmissions), which is what extends\n"
               "field lifetime; decay keeps every informed sensor shouting\n"
               "in every phase until the broadcast ends.\n";
  return 0;
}
