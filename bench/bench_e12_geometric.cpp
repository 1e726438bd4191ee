// E12 — §5 future work: random geometric graphs.
//
// The paper's conclusion names RGGs as the realistic model to try next. We
// run (a) Algorithm 3 with the measured diameter — the theorem applies to
// *arbitrary* networks, so it must work; (b) Algorithm 2 gossip with p set
// from the measured mean degree; and (c) Algorithm 1 *as-is*, which is
// tuned for G(n,p)'s log-diameter and therefore degrades on an RGG whose
// diameter is Theta(1/r) — reported honestly as the motivation for the
// future work.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "core/broadcast_general.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
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
      "E12 (§5 future work)",
      "The paper's algorithms on random geometric graphs: Algorithm 3 "
      "carries over (arbitrary networks); Algorithm 1's G(n,p) tuning "
      "degrades on the Theta(1/r) diameter.");

  const std::uint32_t trials = env.trials(8);

  Table t({"n", "radius/threshold", "D (measured)", "protocol", "success",
           "rounds", "mean_tx/node", "max_tx/node"});
  t.set_caption("E12 — " + std::to_string(trials) + " trials/cell");

  for (const std::uint64_t base : {512ull, 1024ull}) {
    const auto n = static_cast<radnet::graph::NodeId>(env.scaled(base));
    for (const double mult : {2.0, 4.0}) {
      const double radius =
          radnet::graph::rgg_threshold_radius(n, mult);
      // Build one representative instance for the measured columns.
      Rng grng(env.seed + 13);
      const auto g0 = radnet::graph::random_geometric(n, radius, grng);
      if (!radnet::graph::strongly_connected(g0)) continue;
      const auto dia = radnet::graph::diameter_sampled(g0, 4, 17);
      const double dbar = radnet::graph::degree_stats(g0).mean_out;

      const auto run_one =
          [&](const std::string& name,
              const std::function<std::unique_ptr<radnet::sim::Protocol>()>& make,
              radnet::sim::Round max_rounds) {
            radnet::harness::McSpec spec;
            spec.trials = trials;
            spec.seed = env.seed + 14;
            spec.make_graph = [n, radius](std::uint32_t, Rng rng) {
              return std::make_shared<const Digraph>(
                  radnet::graph::random_geometric(n, radius, rng));
            };
            spec.make_protocol = [&make](const Digraph&, std::uint32_t) {
              return make();
            };
            spec.run_options.max_rounds = max_rounds;
            spec.run_options.stop_on_empty_candidates = true;
            const auto result = radnet::harness::run_monte_carlo(spec);
            const auto rounds = result.rounds_sample();
            t.row()
                .add(static_cast<std::uint64_t>(n))
                .add(mult, 1)
                .add(dia ? static_cast<std::uint64_t>(*dia) : 0)
                .add(name)
                .add(result.success_rate(), 2)
                .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
                        rounds.empty() ? 0.0 : rounds.stddev(), 0)
                .add(result.mean_tx_sample().mean(), 3)
                .add(result.max_tx_sample().mean(), 1);
          };

      const std::uint64_t D = dia ? *dia : n;
      run_one("alg3(alpha,D)", [&] {
        return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
            radnet::core::GeneralBroadcastParams{
                .schedule = radnet::core::sequence_schedule(
                    radnet::core::SequenceDistribution::alpha(n, D)),
                .window = radnet::core::general_window(n, 4.0),
                .source = 0,
                .label = ""});
      }, radnet::core::general_round_budget(n, D, radnet::lambda_of(n, D), 96.0));

      run_one("alg2(gossip,p=dbar/n)", [&] {
        return std::make_unique<radnet::core::GossipRandomProtocol>(
            radnet::core::GossipRandomParams{.p = dbar / n});
      }, 1u << 22);

      run_one("alg1(as-is)", [&] {
        return std::make_unique<radnet::core::BroadcastRandomProtocol>(
            radnet::core::BroadcastRandomParams{.p = dbar / n});
      }, 1u << 14);
    }
  }

  radnet::harness::emit_table(env, "e12", "geometric", t);

  std::cout
      << "Shape check: alg3 succeeds on every RGG (Theorem 4.1 is\n"
         "topology-free given D); gossip succeeds with p from the measured\n"
         "degree; alg1's success collapses because its phase structure\n"
         "assumes a logarithmic diameter — exactly why the paper lists RGGs\n"
         "as future work.\n";
  return 0;
}
