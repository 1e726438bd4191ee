// E6 — Theorem 4.1: Algorithm 3 on general networks with known diameter,
// against the Czumaj–Rytter (alpha', longer window) transformation and the
// BGI Decay baseline.
//
// Claims validated: all three finish in comparable time envelopes, but the
// expected transmissions per node separate as
//   alg3 ~ log^2 n / lambda   <   CR ~ log^2 n   <~  Decay (unbounded)
// with lambda = log2(n/D). Columns normalise energy by log^2 n / lambda so
// alg3's column is flat ~constant while CR's grows like lambda.
//
// --topology=csr (default) materialises every network. --topology=implicit
// swaps the gnp row onto the graph-free implicit dynamic backend at
// churn = 1 (these protocols retransmit, so the implicit family models the
// per-round-resampled G(n,p) — exact at churn = 1; the structured
// topologies have no implicit counterpart and stay explicit).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>

#include "baselines/czumaj_rytter.hpp"
#include "baselines/decay.hpp"
#include "core/broadcast_general.hpp"
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

struct Topology {
  std::string name;
  Digraph graph;
  std::uint64_t diameter;
  /// Run this row graph-free on the implicit dynamic backend (gnp only).
  bool implicit = false;
  radnet::graph::NodeId n = 0;
  double p = 0.0;

  /// Node count regardless of backend (the implicit rows carry an empty
  /// placeholder Digraph whose num_nodes() is 0).
  [[nodiscard]] radnet::graph::NodeId nodes() const {
    return implicit ? n : graph.num_nodes();
  }
};

void run_protocol_row(Table& t, const radnet::harness::BenchEnv& env,
                      const Topology& topo, const std::string& proto_name,
                      std::uint32_t trials,
                      const std::function<std::unique_ptr<radnet::sim::Protocol>()>& factory,
                      radnet::sim::Round max_rounds) {
  radnet::harness::McSpec spec;
  spec.trials = trials;
  spec.seed = env.seed + 6;
  if (topo.implicit) {
    radnet::sim::ImplicitDynamicGnp params;
    params.n = topo.n;
    params.p = topo.p;
    params.churn = 1.0;
    spec.implicit_dynamic = std::move(params);
  } else {
    spec.make_graph = radnet::harness::shared_graph(Digraph(topo.graph));
  }
  spec.make_protocol = [&factory](const Digraph&, std::uint32_t) {
    return factory();
  };
  spec.run_options.max_rounds = max_rounds;
  spec.run_options.stop_on_empty_candidates = true;
  // Honest energy accounting: nodes cannot detect global completion, so the
  // simulation runs until every node's own activity window has expired.
  spec.run_options.run_to_quiescence = true;

  const auto result = radnet::harness::run_monte_carlo(spec);
  const auto rounds = result.rounds_sample();
  const double n = topo.nodes();
  const double lambda = radnet::lambda_of(topo.nodes(), topo.diameter);
  const double log2n = std::log2(n);
  const double energy_unit = log2n * log2n / lambda;
  const double time_unit =
      static_cast<double>(topo.diameter) * lambda + log2n * log2n;

  t.row()
      .add(topo.name)
      .add(topo.diameter)
      .add(proto_name)
      .add(result.success_rate(), 2)
      .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
              rounds.empty() ? 0.0 : rounds.stddev(), 0)
      .add(rounds.empty() ? 0.0 : rounds.mean() / time_unit, 2)
      .add_pm(result.mean_tx_sample().mean(), result.mean_tx_sample().stddev(),
              2)
      .add(result.mean_tx_sample().mean() / energy_unit, 3);
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology;
  const bool implicit =
      radnet::harness::parse_topology_flag(argc, argv, &topology, "csr");

  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E6 (Theorem 4.1)",
      "Algorithm 3 vs Czumaj-Rytter(alpha') vs Decay on general networks "
      "with known diameter D: same time envelope, alg3 saves a "
      "Theta(log(n/D)) factor of energy. [topology=" + topology + "]");

  const std::uint32_t trials = env.trials(10);

  std::vector<Topology> topologies;
  topologies.push_back({"path", radnet::graph::path(
                                    static_cast<radnet::graph::NodeId>(
                                        env.scaled(256))),
                        env.scaled(256) - 1});
  {
    const auto side =
        static_cast<radnet::graph::NodeId>(env.scaled(16, 4));
    topologies.push_back(
        {"grid", radnet::graph::grid(side, side), 2ull * (side - 1)});
  }
  {
    auto g = radnet::graph::cluster_chain(
        16, static_cast<radnet::graph::NodeId>(env.scaled(16, 4)));
    const auto dia = radnet::graph::diameter_exact(g);
    topologies.push_back({"cluster-chain", std::move(g), *dia});
  }
  {
    const auto n = static_cast<radnet::graph::NodeId>(env.scaled(1024));
    const double p = 10.0 * std::log(n) / n;
    if (implicit) {
      // Graph-free row: D from the Lemma 3.1 prediction (the protocol only
      // needs an upper bound on the diameter).
      const auto D = static_cast<std::uint64_t>(std::ceil(
                         std::log(static_cast<double>(n)) / std::log(n * p))) +
                     1;
      Topology topo{"gnp(implicit)", Digraph(), D};
      topo.implicit = true;
      topo.n = n;
      topo.p = p;
      topologies.push_back(std::move(topo));
    } else {
      Rng grng(env.seed + 5);
      auto g = radnet::graph::gnp_directed(n, p, grng);
      const auto dia = radnet::graph::diameter_sampled(g, 4, 11);
      topologies.push_back({"gnp", std::move(g), dia ? *dia : 3});
    }
  }
  {
    const auto n = static_cast<radnet::graph::NodeId>(env.scaled(512));
    Rng grng(env.seed + 7);
    auto g = radnet::graph::random_geometric(
        n, radnet::graph::rgg_threshold_radius(n, 3.0), grng);
    const auto dia = radnet::graph::diameter_sampled(g, 4, 13);
    if (dia) topologies.push_back({"rgg", std::move(g), *dia});
  }

  Table t({"topology", "D", "protocol", "success", "rounds", "rounds/bound",
           "tx/node", "tx/node/(log2n^2/lambda)"});
  t.set_caption("E6: known-diameter broadcast comparison — " +
                std::to_string(trials) + " trials/cell");

  for (const auto& topo : topologies) {
    const std::uint64_t n = topo.nodes();
    const double lambda = radnet::lambda_of(n, topo.diameter);
    const auto budget =
        radnet::core::general_round_budget(n, topo.diameter, lambda, 96.0);

    run_protocol_row(t, env, topo, "alg3(alpha)", trials, [&] {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::core::GeneralBroadcastParams{
              .distribution = radnet::core::SequenceDistribution::alpha(
                  n, topo.diameter),
              .window = radnet::core::general_window(n, 4.0),
              .source = 0,
              .label = "alg3"});
    }, budget);

    run_protocol_row(t, env, topo, "czumaj-rytter(alpha')", trials, [&] {
      return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
          radnet::baselines::czumaj_rytter_params(n, topo.diameter, 4.0));
    }, budget);

    // Decay gets the window its w.h.p. guarantee needs: O(log n) phases per
    // node (each phase delivers to a fixed neighbour with constant
    // probability), comparable in rounds to alg3's beta * log^2 n.
    const auto decay_phases = static_cast<std::uint32_t>(
        std::ceil(4.0 * std::log2(static_cast<double>(n))));
    run_protocol_row(t, env, topo, "decay", trials, [&] {
      return std::make_unique<radnet::baselines::DecayProtocol>(
          radnet::baselines::DecayParams{.active_phases = decay_phases});
    }, budget);
  }

  radnet::harness::emit_table(env, "e6", "theorem41", t);

  std::cout
      << "Shape check: all protocols succeed; alg3's normalised energy\n"
         "column is ~constant across topologies while czumaj-rytter's grows\n"
         "with lambda = log2(n/D) and decay's is larger still on\n"
         "low-diameter networks.\n";
  return 0;
}
