// E11 — §1.1/§2 comparison: Algorithm 1 vs Elsässer–Gasieniec vs Decay vs
// flooding on the same G(n,p) instances.
//
// Expected ordering (the paper's motivation):
//   * flooding: fails outright in the collision model (success ~ 0);
//   * decay: succeeds, O((D + log n) log n) time, unbounded energy growth;
//   * EG 2005: O(log n) time, up to D-1 transmissions per node in Phase 1;
//   * Algorithm 1: same O(log n) time, at most ONE transmission per node
//     and the smallest total energy.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "baselines/broadcast_baselines.hpp"
#include "core/broadcast_random.hpp"
#include "graph/generators.hpp"
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
      "E11 (baseline comparison, §1.1/§2)",
      "Algorithm 1 vs Elsässer-Gasieniec vs Decay vs flooding on identical "
      "G(n,p) instances.");

  const std::uint32_t trials = env.trials(12);

  Table t({"n", "p", "protocol", "success", "rounds", "total_tx",
           "mean_tx/node", "max_tx/node"});
  t.set_caption("E11 — " + std::to_string(trials) +
                " trials/cell (same graphs & seeds per column block)");

  struct Case {
    std::uint64_t n;
    double exponent;  // p = n^exponent (multi-hop regime: T >= 2)
  };
  for (const auto c : {Case{4096, -0.55}, Case{8192, -0.60}}) {
    const auto n = static_cast<std::uint32_t>(env.scaled(c.n));
    const double p = std::pow(static_cast<double>(n), c.exponent);

    const auto run_one =
        [&](const std::string& name,
            const std::function<std::unique_ptr<radnet::sim::Protocol>()>& make,
            radnet::sim::Round max_rounds) {
          radnet::harness::McSpec spec;
          spec.trials = trials;
          spec.seed = env.seed + 12;  // same seed => same graphs per protocol
          spec.make_graph = [n, p](std::uint32_t, Rng rng) {
            return std::make_shared<const Digraph>(
                radnet::graph::gnp_directed(n, p, rng));
          };
          spec.make_protocol = [&make](const Digraph&, std::uint32_t) {
            return make();
          };
          spec.run_options.max_rounds = max_rounds;
          const auto result = radnet::harness::run_monte_carlo(spec);
          const auto rounds = result.rounds_sample();
          t.row()
              .add(static_cast<std::uint64_t>(n))
              .add(p, 5)
              .add(name)
              .add(result.success_rate(), 2)
              .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
                      rounds.empty() ? 0.0 : rounds.stddev(), 1)
              .add_pm(result.total_tx_sample().mean(),
                      result.total_tx_sample().stddev(), 0)
              .add(result.mean_tx_sample().mean(), 3)
              .add(result.max_tx_sample().mean(), 1);
        };

    radnet::core::BroadcastRandomProtocol probe(
        radnet::core::BroadcastRandomParams{.p = p});
    probe.reset(n, Rng(0));
    const auto budget = probe.round_budget();

    run_one("alg1", [&] {
      return std::make_unique<radnet::core::BroadcastRandomProtocol>(
          radnet::core::BroadcastRandomParams{.p = p});
    }, budget);
    run_one("eg2005", [&] {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::baselines::eg2005_params(n, p));
    }, budget);
    run_one("decay", [&] {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::baselines::decay_params(n));
    }, budget * 4);
    run_one("flooding", [&] {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::baselines::flooding_params());
    }, budget);
  }

  radnet::harness::emit_table(env, "e11", "comparison", t);

  std::cout << "Shape check: flooding success ~ 0; decay succeeds but with\n"
               "the largest per-node energy; eg2005 matches alg1's time with\n"
               "max_tx/node > 1; alg1 keeps max_tx/node == 1 and the lowest\n"
               "total energy.\n";
  return 0;
}
