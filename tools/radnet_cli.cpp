// radnet_cli — run any protocol on any topology from the command line.
//
//   radnet_cli --protocol alg1 --topology gnp --n 4096 --delta 8 --trials 16
//   radnet_cli --protocol alg2m --topology idgnp --n 1000000 --delta 16
//              --churn 0.5 --fail-prob 0.00001  (one command line)
//   radnet_cli --protocol fixed --q 0.5 --topology thm44 --n 64 --diameter 40
//
// The flags lower through a batch spec (harness/batch.hpp): every flag but
// --topology, --cluster-size, --threads and --quiescence is the spec key of
// the same name, parsed, range-checked and defaulted by BatchSpec::set and
// validate, with errors naming the flag. Only two defaults differ from a
// spec line's: --trials 8, and --churn 0.1 on --topology churn. --p-amp
// (with --p-period) applies to idgnp only. Protocols come from the
// protocol table (harness/protocols.hpp).
//
// Topologies ignp, idgnp and irgg are the graph-free batch families of the
// same name. The materialised generators (gnp ugnp rgg path cycle grid star
// complete cluster obs43 thm44) are probed once on the seed for the node
// count, link probability, diameter and source the spec receives; trials
// share the sample graph, except that gnp, ugnp and rgg draw a fresh one
// per trial. churn is the explicit ChurnGnp link-churn sequence.
#include <cmath>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>

#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "graph/lower_bound_nets.hpp"
#include "graph/metrics.hpp"
#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"
#include "support/cli_args.hpp"
#include "support/math.hpp"
#include "support/table.hpp"

namespace {

using namespace radnet;

/// Flags that are batch spec keys, each applied through BatchSpec::set.
constexpr const char* kSpecFlags[] = {
    "protocol",   "n",           "p",        "delta",     "q",
    "churn",      "fail-prob",   "p-amp",    "p-period",  "radius-mult",
    "step",       "trials",      "seed",     "max-rounds", "source",
    "diameter",   "lambda",      "jammers",  "byzantine", "energy-budget",
    "fault-schedule"};

/// One materialised generator, by --topology name. Sets `source` for the
/// networks that fix their own (obs43, thm44).
struct Generator {
  std::string topology;
  graph::NodeId n = 0;
  double p = 0.0;
  double radius_mult = 0.0;
  std::uint64_t diameter = 0;  ///< thm44's D; 0 = 2 log2 n + 8
  graph::NodeId cluster_size = 0;

  graph::Digraph build(Rng& rng, graph::NodeId& source) const {
    const std::string& t = topology;
    if (t == "gnp") return graph::gnp_directed(n, p, rng);
    if (t == "ugnp") return graph::gnp_undirected(n, p, rng);
    if (t == "rgg")
      return graph::random_geometric(
          n, graph::rgg_threshold_radius(n, radius_mult), rng);
    if (t == "path") return graph::path(n);
    if (t == "cycle") return graph::cycle(n);
    if (t == "grid") {
      const auto side = static_cast<graph::NodeId>(std::lround(std::sqrt(n)));
      return graph::grid(side, side);
    }
    if (t == "star") return graph::star(n);
    if (t == "complete") return graph::complete(n);
    if (t == "cluster")
      return graph::cluster_chain(cluster_size,
                                  std::max<graph::NodeId>(1, n / cluster_size));
    if (t == "obs43") {
      auto net = graph::obs43_network(n);
      source = net.source;
      return std::move(net.graph);
    }
    if (t == "thm44") {
      auto net = graph::thm44_network(
          n, diameter > 0 ? diameter : 2ull * ilog2_floor(n) + 8);
      source = net.source;
      return std::move(net.graph);
    }
    throw std::invalid_argument("unknown topology: " + t);
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> flags(std::begin(kSpecFlags),
                                   std::end(kSpecFlags));
    flags.insert(flags.end(), {"topology", "cluster-size", "threads",
                               "quiescence", "help"});
    const CliArgs args(argc, argv, flags);
    if (args.get_bool("help", false) || argc == 1) {
      std::cout << "usage: radnet_cli --protocol <alg1|alg2|alg2m|alg3|cr|"
                   "decay|eg2005|flooding|fixed|tdma>\n"
                   "                  --topology <gnp|ugnp|rgg|path|cycle|grid|"
                   "star|complete|cluster|obs43|thm44|churn|ignp|idgnp|irgg>\n"
                   "spec keys: [--n N] [--p P | --delta D] [--q Q] [--trials T]"
                   " [--seed S] [--max-rounds R]\n"
                   "  [--source V] [--diameter D] [--lambda L] [--churn C]"
                   " [--fail-prob F]\n"
                   "  [--p-amp A --p-period R] (idgnp only) [--radius-mult M]"
                   " [--step S]\n"
                   "  [--jammers F] [--byzantine F] [--energy-budget "
                   "MEAN[:SPREAD[:silent|listen]]]\n"
                   "  [--fault-schedule crash@R[:F],recover@R[:F],...]\n"
                   "run options: [--cluster-size K] [--quiescence]"
                   " [--threads K] (unset or 1: the\n"
                   "  harness picks trial- or round-parallelism; 0: trials"
                   " run on the shared pool,\n"
                   "  a lone trial serially; K > 1: each trial's sweeps on"
                   " K threads; results are\n"
                   "  identical at any thread count)\n";
      return 0;
    }

    const std::string topo = args.get_string("topology", "gnp");
    harness::BatchSpec spec;
    spec.trials = 8;
    if (topo == "churn") spec.churn = 0.1;
    for (const char* key : kSpecFlags)
      if (args.has(key))
        spec.set(key, args.get_string(key, ""), std::string("--") + key);
    RADNET_REQUIRE(spec.n >= 2, "--n must be >= 2");

    const graph::NodeId n = spec.n;
    const double p = spec.effective_p();
    graph::Digraph sample;
    Generator gen;
    if (topo == "irgg") {
      spec.family = harness::BatchFamily::kImplicitRgg;
      const double r = spec.rgg_radius();
      std::cout << "topology irgg: " << n
                << " nodes, implicit mobility RGG with radius=" << r
                << ", step/round=" << r * spec.step << " (never materialised)\n"
                << "mean degree ~ " << 3.141592653589793 * r * r * n
                << "; exact for every protocol (delivery is deterministic "
                   "geometry)\n";
    } else if (topo == "ignp" || topo == "idgnp") {
      spec.family = topo == "ignp" ? harness::BatchFamily::kImplicitGnp
                                   : harness::BatchFamily::kImplicitDynamic;
      std::cout << "topology " << topo << ": " << n
                << " nodes, implicit G(n,p) with p=" << p
                << " (never materialised)\n";
      if (topo == "idgnp")
        std::cout << "dynamics: churn=" << spec.churn
                  << " fail-prob=" << spec.fail_prob
                  << (spec.p_amp > 0.0 ? " sinusoidal p(t) schedule" : "")
                  << "\n";
      else
        std::cout << "note: exact for single-shot protocols (alg1); "
                     "protocols that transmit repeatedly\nsee "
                     "per-round-resampled links (the churn=1 mobility "
                     "model), not one fixed graph\n";
    } else if (topo == "churn") {
      spec.family = harness::BatchFamily::kCsr;
      std::cout << "topology churn: " << n
                << " nodes, explicit ChurnGnp with p=" << p
                << ", churn=" << spec.churn << " per round\n";
    } else {
      // One representative instance for the measured (nodes, p, D).
      spec.family = harness::BatchFamily::kCsr;
      const std::uint64_t cluster_size = args.get_u64("cluster-size", 16);
      RADNET_REQUIRE(
          cluster_size >= 1 &&
              cluster_size <= std::numeric_limits<graph::NodeId>::max(),
          "--cluster-size is out of range");
      gen = Generator{topo, n, p, spec.radius_mult, spec.diameter,
                      static_cast<graph::NodeId>(cluster_size)};
      Rng probe_rng(spec.seed);
      sample = gen.build(probe_rng, spec.source);
      const auto deg = graph::degree_stats(sample);
      const auto measured_d = graph::diameter_sampled(sample, 4, spec.seed + 1);
      if (spec.diameter == 0)
        spec.diameter = measured_d ? *measured_d : sample.num_nodes();
      spec.n = sample.num_nodes();
      spec.p = deg.mean_out / sample.num_nodes();
      std::cout << "topology " << topo << ": " << sample.num_nodes()
                << " nodes, " << sample.num_edges() << " edges, mean degree "
                << deg.mean_out << ", diameter "
                << (measured_d ? std::to_string(*measured_d) : "unreachable")
                << "\n";
    }
    spec.validate("--");

    harness::McSpec mc = spec.to_mc_spec();
    if (topo == "churn") {
      mc.make_graph = nullptr;
      mc.make_sequence = [n, p, churn = spec.churn](std::uint32_t, Rng rng) {
        return std::make_unique<graph::ChurnGnp>(n, p, churn, rng);
      };
    } else if (topo == "gnp" || topo == "ugnp" || topo == "rgg") {
      mc.make_graph = [gen](std::uint32_t, Rng rng) {
        graph::NodeId src = 0;
        return std::make_shared<const graph::Digraph>(gen.build(rng, src));
      };
    } else if (spec.family == harness::BatchFamily::kCsr) {
      mc.make_graph = harness::shared_graph(std::move(sample));
    }
    // Purely a schedule knob: the sharded sweeps are bit-identical at any
    // thread count. Unset (= 1) lets the harness pick trial- vs
    // round-parallelism from the trial count; RADNET_THREADS sizes the
    // shared pool either way.
    const std::uint64_t threads = args.get_u64("threads", 1);
    RADNET_REQUIRE(threads <= 4096, "--threads must be <= 4096");
    mc.run_options.threads = static_cast<unsigned>(threads);
    mc.run_options.run_to_quiescence = args.get_bool("quiescence", false);
    const bool adversarial = spec.adversary.active();
    if (adversarial) {
      const auto& adv = spec.adversary;
      std::cout << "adversary: jammers=" << adv.jammer_fraction
                << " byzantine=" << adv.byzantine_fraction
                << " budget=" << adv.budget_mean << "+-"
                << adv.budget_spread * adv.budget_mean
                << (adv.exhaust_mode == sim::AdversarySpec::ExhaustMode::kSilent
                        ? " (silent)"
                        : " (listen-only)")
                << " fault-events=" << adv.fault_schedule.size()
                << "; source " << spec.source << " protected\n";
    }

    const auto result = harness::run_monte_carlo(mc);
    const auto rounds = result.rounds_sample();

    Table t({"protocol", "trials", "success", "rounds", "total_tx",
             "mean_tx/node", "max_tx/node", "collisions"});
    t.row()
        .add(spec.protocol)
        .add(static_cast<std::uint64_t>(spec.trials))
        .add(result.success_rate(), 3)
        .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
                rounds.empty() ? 0.0 : rounds.stddev(), 1)
        .add_pm(result.total_tx_sample().mean(),
                result.total_tx_sample().stddev(), 0)
        .add(result.mean_tx_sample().mean(), 3)
        .add(result.max_tx_sample().max(), 0);
    {
      double coll = 0;
      for (const auto& o : result.outcomes) coll += static_cast<double>(o.collisions);
      t.add(coll / spec.trials, 0);
    }
    t.print(std::cout);
    if (adversarial) {
      // Completion under attack means "every honest node holds a *valid*
      // copy"; the stranded fraction is the complementary headline number.
      double frac_sum = 0.0;
      std::uint32_t reported = 0;
      for (const auto& o : result.outcomes)
        if (o.stranded.has_value() && o.nodes > 0) {
          frac_sum += static_cast<double>(*o.stranded) / o.nodes;
          ++reported;
        }
      if (reported > 0)
        std::cout << "stranded (honest nodes without a valid copy): mean "
                  << frac_sum / reported << " of n over " << reported
                  << " trials\n";
      else
        std::cout << "stranded: protocol does not track provenance\n";
    }
    return result.success_rate() > 0.0 ? 0 : 2;
  } catch (const std::exception& e) {
    std::cerr << "radnet_cli: " << e.what() << "\n";
    return 1;
  }
}
