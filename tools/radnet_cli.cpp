// radnet_cli — run any protocol on any topology from the command line.
//
//   radnet_cli --protocol alg1 --topology gnp --n 4096 --delta 8 --trials 16
//   radnet_cli --protocol alg1 --topology ignp --n 10000000 --p 0.0000016
//   radnet_cli --protocol alg2m --topology idgnp --n 1000000 --delta 16
//              --churn 0.5 --fail-prob 0.00001  (one command line)
//   radnet_cli --protocol alg3 --topology grid --n 256 --trials 8
//   radnet_cli --protocol decay --topology obs43 --n 64
//   radnet_cli --protocol alg2 --topology rgg --n 512 --radius-mult 3
//   radnet_cli --protocol fixed --q 0.5 --topology thm44 --n 64 --diameter 40
//
// Protocols: alg1 alg2 alg2m alg3 cr decay eg2005 flooding fixed tdma
//            (alg2m = single-rumor marginal of Algorithm 2: O(n) state,
//            the gossip that scales to n ~ 10^7)
// Topologies: gnp ugnp rgg path cycle grid star complete cluster obs43 thm44
//             churn (explicit ChurnGnp link-churn sequence; --churn)
//             ignp (implicit G(n,p): never materialised, O(n) memory)
//             idgnp (implicit *dynamic* G(n,p): --churn link churn,
//             --fail-prob permanent radio failures, --p-amp/--p-period
//             sinusoidal density schedule — the graph-free dynamic family;
//             see sim/topology.hpp for exact-vs-modelled regimes)
//             irgg (implicit mobility RGG: random-walk mobility over a
//             geometric graph, graph-free and exact for every protocol;
//             --radius-mult sizes the radio range, --step the per-round
//             movement as a fraction of the radius)
//
// Common flags: --n --trials --seed --max-rounds --source --quiescence
// Topology flags: --p | --delta (p = min(1, delta ln n / n)), --radius-mult,
//                 --cluster-size, --diameter (thm44; also overrides the
//                 measured D used by alg3/cr), --q (fixed), --lambda (alg3),
//                 --churn, --fail-prob, --p-amp, --p-period (idgnp/churn),
//                 --step (irgg: per-round movement / radius, default 0.125)
// Adversary flags (sim/adversary.hpp; the source is auto-protected):
//   --jammers F          fraction of nodes jamming every round
//   --byzantine F        fraction of nodes relaying corrupted copies
//   --energy-budget MEAN[:SPREAD[:silent|listen]]
//                        per-node transmission budgets (uniform MEAN +-
//                        SPREAD*MEAN); exhausted radios go silent or
//                        listen-only (default listen)
//   --fault-schedule "crash@R[:F],recover@R[:F],..."
//                        crash/recover each eligible node w.p. F (default 1)
//                        at round R; rounds must be non-decreasing
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "baselines/czumaj_rytter.hpp"
#include "baselines/decay.hpp"
#include "baselines/elsasser_gasieniec.hpp"
#include "baselines/fixed_prob.hpp"
#include "baselines/flooding.hpp"
#include "baselines/gossip_baselines.hpp"
#include "core/broadcast_general.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "graph/lower_bound_nets.hpp"
#include "graph/metrics.hpp"
#include "harness/monte_carlo.hpp"
#include "support/cli_args.hpp"
#include "support/math.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

namespace {

using namespace radnet;

graph::Digraph build_topology(const CliArgs& args, graph::NodeId n, double p,
                              Rng& rng, graph::NodeId* source_out) {
  const std::string topo = args.get_string("topology", "gnp");
  *source_out = static_cast<graph::NodeId>(args.get_u64("source", 0));
  if (topo == "gnp") return graph::gnp_directed(n, p, rng);
  if (topo == "ugnp") return graph::gnp_undirected(n, p, rng);
  if (topo == "rgg") {
    const double mult = args.get_double("radius-mult", 2.0);
    return graph::random_geometric(n, graph::rgg_threshold_radius(n, mult), rng);
  }
  if (topo == "path") return graph::path(n);
  if (topo == "cycle") return graph::cycle(n);
  if (topo == "grid") {
    const auto side = static_cast<graph::NodeId>(std::lround(std::sqrt(n)));
    return graph::grid(side, side);
  }
  if (topo == "star") return graph::star(n);
  if (topo == "complete") return graph::complete(n);
  if (topo == "cluster") {
    const auto cs = static_cast<graph::NodeId>(args.get_u64("cluster-size", 16));
    return graph::cluster_chain(cs, std::max<graph::NodeId>(1, n / cs));
  }
  if (topo == "obs43") {
    auto net = graph::obs43_network(n);
    *source_out = net.source;
    return std::move(net.graph);
  }
  if (topo == "thm44") {
    const std::uint64_t D = args.get_u64(
        "diameter", 2ull * ilog2_floor(n) + 8);
    auto net = graph::thm44_network(n, D);
    *source_out = net.source;
    return std::move(net.graph);
  }
  throw std::invalid_argument("unknown topology: " + topo);
}

/// --jammers / --byzantine / --energy-budget / --fault-schedule into an
/// AdversarySpec; the (rumor) source is always protected so the attacked
/// quantity is the spread of the message, not its existence. The textual
/// forms go through the strict shared parsers (sim/adversary.hpp): a
/// malformed value — "--jammers=abc", a truncated "recover@", trailing
/// garbage after a round number — fails the run with a message naming the
/// flag instead of silently configuring a different experiment.
sim::AdversarySpec parse_adversary(const CliArgs& args, graph::NodeId source) {
  sim::AdversarySpec adv;
  if (args.has("jammers"))
    adv.jammer_fraction = parse_double_in(
        args.get_string("jammers", ""), "--jammers", 0.0, 1.0);
  if (args.has("byzantine"))
    adv.byzantine_fraction = parse_double_in(
        args.get_string("byzantine", ""), "--byzantine", 0.0, 1.0);

  const std::string budget = args.get_string("energy-budget", "");
  if (!budget.empty())
    sim::parse_energy_budget(budget, "--energy-budget", adv);

  const std::string schedule = args.get_string("fault-schedule", "");
  if (!schedule.empty())
    adv.fault_schedule = sim::parse_fault_schedule(schedule, "--fault-schedule");

  if (adv.active()) adv.protected_nodes = {source};
  adv.validate();
  return adv;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv,
                       {"protocol", "topology", "n", "p", "delta", "trials",
                        "seed", "max-rounds", "threads", "source", "radius-mult",
                        "cluster-size", "diameter", "q", "lambda", "churn",
                        "fail-prob", "p-amp", "p-period", "step", "quiescence",
                        "jammers", "byzantine", "energy-budget",
                        "fault-schedule", "help"});
    if (args.get_bool("help", false) || argc == 1) {
      std::cout << "usage: radnet_cli --protocol <alg1|alg2|alg2m|alg3|cr|"
                   "decay|eg2005|flooding|fixed|tdma>\n"
                   "                  --topology <gnp|ugnp|rgg|path|cycle|grid|"
                   "star|complete|cluster|obs43|thm44|churn|ignp|idgnp|irgg>\n"
                   "                  [--n N] [--p P | --delta D] [--trials T]"
                   " [--seed S]\n"
                   "                  [--diameter D] [--q Q] [--lambda L]"
                   " [--max-rounds R] [--quiescence]\n"
                   "                  [--churn C] [--fail-prob F] [--p-amp A"
                   " --p-period R]\n"
                   "                  [--radius-mult M --step S]   irgg radio"
                   " range and mobility\n"
                   "                  [--threads K]   within-trial round-sweep"
                   " threads: 1 serial\n"
                   "                  (default), 0 every core; results are"
                   " identical either way\n"
                   "                  [--jammers F] [--byzantine F]   adversary"
                   " node fractions\n"
                   "                  [--energy-budget MEAN[:SPREAD[:silent|"
                   "listen]]]\n"
                   "                  [--fault-schedule crash@R[:F],"
                   "recover@R[:F],...]\n";
      return 0;
    }

    const auto n = static_cast<graph::NodeId>(args.get_u64("n", 1024));
    RADNET_REQUIRE(n >= 2, "--n must be >= 2");
    const double p = args.has("p")
                         ? args.get_double("p", 0.0)
                         : delta_link_probability(
                               n, args.get_double("delta", 8.0));
    const std::uint32_t trials =
        static_cast<std::uint32_t>(args.get_u64("trials", 8));
    const std::uint64_t seed = args.get_u64("seed", 0x5eed);
    const std::string proto_name = args.get_string("protocol", "alg1");
    const std::string topo_name = args.get_string("topology", "gnp");
    const bool implicit = topo_name == "ignp";
    const bool implicit_dynamic = topo_name == "idgnp";
    const bool implicit_rgg = topo_name == "irgg";
    const bool churn_topo = topo_name == "churn";
    const double churn = args.get_double("churn", implicit_dynamic ? 1.0 : 0.1);
    RADNET_REQUIRE(churn > 0.0 && churn <= 1.0,
                   "--churn must be in (0, 1]");
    const double fail_prob = args.get_double("fail-prob", 0.0);
    RADNET_REQUIRE(fail_prob >= 0.0 && fail_prob < 1.0,
                   "--fail-prob must be in [0, 1)");
    const double p_amp = args.get_double("p-amp", 0.0);
    const auto p_period = args.get_u64("p-period", 64);
    RADNET_REQUIRE(p_amp == 0.0 || p_period >= 1,
                   "--p-period must be >= 1 when --p-amp is set");

    graph::NodeId source = 0;
    std::uint64_t nn = n;
    double eff_p = p;
    std::uint64_t diameter = 0;
    graph::Digraph sample;
    double rgg_radius = 0.0, rgg_step = 0.0;
    if (implicit_rgg) {
      // Radio range from the connectivity-threshold multiple, per-round
      // movement as a fraction of that range.
      rgg_radius =
          graph::rgg_threshold_radius(n, args.get_double("radius-mult", 2.0));
      rgg_step = rgg_radius * args.get_double("step", 0.125);
      // No graph to probe: the topology exists only as (n, radius, step).
      source = static_cast<graph::NodeId>(args.get_u64("source", 0));
      const double mean_degree =
          3.141592653589793 * rgg_radius * rgg_radius * n;
      eff_p = mean_degree / n;  // tunes the protocols' transmit rates
      // Hop diameter of the unit square at this range, for round budgets.
      diameter = args.get_u64(
          "diameter",
          std::max<std::uint64_t>(
              2, static_cast<std::uint64_t>(std::ceil(1.4143 / rgg_radius))));
      std::cout << "topology irgg: " << n
                << " nodes, implicit mobility RGG with radius=" << rgg_radius
                << ", step/round=" << rgg_step << " (never materialised)\n"
                << "mean degree ~ " << mean_degree
                << "; exact for every protocol (delivery is deterministic "
                   "geometry)\n";
    } else if (implicit || implicit_dynamic) {
      // No graph to probe: the topology exists only as (n, p, dynamics).
      source = static_cast<graph::NodeId>(args.get_u64("source", 0));
      diameter = args.get_u64("diameter", 2ull * ilog2_floor(n) + 8);
      std::cout << "topology " << topo_name << ": " << n
                << " nodes, implicit G(n,p) with p=" << p
                << " (never materialised)\n";
      if (implicit_dynamic)
        std::cout << "dynamics: churn=" << churn << " fail-prob=" << fail_prob
                  << (p_amp > 0.0 ? " sinusoidal p(t) schedule" : "") << "\n";
      else
        std::cout << "note: exact for single-shot protocols (alg1); "
                     "protocols that transmit repeatedly\nsee "
                     "per-round-resampled links (the churn=1 mobility "
                     "model), not one fixed graph\n";
    } else if (churn_topo) {
      source = static_cast<graph::NodeId>(args.get_u64("source", 0));
      diameter = args.get_u64("diameter", 2ull * ilog2_floor(n) + 8);
      std::cout << "topology churn: " << n
                << " nodes, explicit ChurnGnp with p=" << p
                << ", churn=" << churn << " per round\n";
    } else {
      // One representative instance for the measured columns (degree, D).
      Rng probe_rng(seed);
      sample = build_topology(args, n, p, probe_rng, &source);
      const auto deg = graph::degree_stats(sample);
      const auto measured_d = graph::diameter_sampled(sample, 4, seed + 1);
      diameter = args.get_u64("diameter",
                              measured_d ? *measured_d : sample.num_nodes());
      eff_p = deg.mean_out / sample.num_nodes();
      nn = sample.num_nodes();

      std::cout << "topology " << topo_name << ": " << sample.num_nodes()
                << " nodes, " << sample.num_edges() << " edges, mean degree "
                << deg.mean_out << ", diameter "
                << (measured_d ? std::to_string(*measured_d) : "unreachable")
                << "\n";
    }
    const auto make_protocol =
        [&]() -> std::unique_ptr<sim::Protocol> {
      if (proto_name == "alg1")
        return std::make_unique<core::BroadcastRandomProtocol>(
            core::BroadcastRandomParams{.p = eff_p, .source = source});
      if (proto_name == "alg2")
        return std::make_unique<core::GossipRandomProtocol>(
            core::GossipRandomParams{.p = eff_p});
      if (proto_name == "alg2m")
        return std::make_unique<core::GossipRumorMarginalProtocol>(
            core::GossipRumorMarginalParams{.p = eff_p,
                                            .rumor_source = source});
      if (proto_name == "alg3") {
        const double lambda =
            args.get_double("lambda", lambda_of(nn, diameter));
        return std::make_unique<core::GeneralBroadcastProtocol>(
            core::GeneralBroadcastParams{
                .distribution =
                    core::SequenceDistribution::alpha_with_lambda(nn, lambda),
                .window = core::general_window(nn, 4.0),
                .source = source,
                .label = "alg3"});
      }
      if (proto_name == "cr")
        return baselines::czumaj_rytter(nn, diameter, 4.0, source);
      if (proto_name == "decay")
        return std::make_unique<baselines::DecayProtocol>(
            baselines::DecayParams{.source = source});
      if (proto_name == "eg2005")
        return std::make_unique<baselines::ElsasserGasieniecProtocol>(
            baselines::ElsasserGasieniecParams{.p = eff_p, .source = source});
      if (proto_name == "flooding")
        return std::make_unique<baselines::FloodingProtocol>(source);
      if (proto_name == "fixed")
        return std::make_unique<baselines::FixedProbProtocol>(
            baselines::FixedProbParams{.q = args.get_double("q", 0.5),
                                       .source = source});
      if (proto_name == "tdma")
        return std::make_unique<baselines::TdmaGossipProtocol>();
      throw std::invalid_argument("unknown protocol: " + proto_name);
    };

    harness::McSpec spec;
    spec.trials = trials;
    spec.seed = seed;
    const bool random_topo =
        topo_name == "gnp" || topo_name == "ugnp" || topo_name == "rgg";
    if (implicit_rgg) {
      spec.implicit_rgg = sim::ImplicitRgg{n, rgg_radius, rgg_step, Rng{}};
    } else if (implicit_dynamic) {
      sim::ImplicitDynamicGnp params;
      params.n = n;
      params.p = p;
      params.churn = churn;
      params.fail_prob = fail_prob;
      if (p_amp > 0.0) {
        // Mobility as density: p(t) = p * (1 + amp * sin(2 pi t / period)),
        // clamped into [0, 1] by the backend.
        params.p_of_round = [p, p_amp, p_period](sim::Round r) {
          return p * (1.0 + p_amp * std::sin(2.0 * 3.141592653589793 *
                                             static_cast<double>(r) /
                                             static_cast<double>(p_period)));
        };
      }
      spec.implicit_dynamic = std::move(params);
    } else if (implicit) {
      spec.implicit_gnp = harness::ImplicitGnpParams{n, p};
    } else if (churn_topo) {
      spec.make_sequence = [n, p, churn](std::uint32_t, Rng rng) {
        return std::make_unique<graph::ChurnGnp>(n, p, churn, rng);
      };
    } else if (random_topo) {
      spec.make_graph = [&args, n, p](std::uint32_t, Rng rng) {
        graph::NodeId src = 0;
        return std::make_shared<const graph::Digraph>(
            build_topology(args, n, p, rng, &src));
      };
    } else {
      spec.make_graph = harness::shared_graph(graph::Digraph(sample));
    }
    spec.make_protocol = [&make_protocol](const graph::Digraph&, std::uint32_t) {
      return make_protocol();
    };
    const double log2nn = std::log2(static_cast<double>(nn));
    const auto default_budget = static_cast<sim::Round>(
        64.0 * (static_cast<double>(diameter) * std::max(1.0, log2nn) +
                log2nn * log2nn));
    spec.run_options.max_rounds = static_cast<sim::Round>(
        args.get_u64("max-rounds", default_budget));
    // Purely a schedule knob: the sharded sweeps are bit-identical at any
    // thread count. Unset (= 1) lets the harness pick trial- vs
    // round-parallelism from the trial count; RADNET_THREADS sizes the
    // shared pool either way.
    const std::uint64_t threads = args.get_u64("threads", 1);
    RADNET_REQUIRE(threads <= 4096, "--threads must be <= 4096");
    spec.run_options.threads = static_cast<unsigned>(threads);
    spec.run_options.stop_on_empty_candidates = true;
    spec.run_options.run_to_quiescence = args.get_bool("quiescence", false);
    spec.run_options.adversary = parse_adversary(args, source);
    const bool adversarial = spec.run_options.adversary.active();
    if (adversarial) {
      const auto& adv = spec.run_options.adversary;
      std::cout << "adversary: jammers=" << adv.jammer_fraction
                << " byzantine=" << adv.byzantine_fraction
                << " budget=" << adv.budget_mean << "+-"
                << adv.budget_spread * adv.budget_mean
                << (adv.exhaust_mode == sim::AdversarySpec::ExhaustMode::kSilent
                        ? " (silent)"
                        : " (listen-only)")
                << " fault-events=" << adv.fault_schedule.size()
                << "; source " << source << " protected\n";
    }

    const auto result = harness::run_monte_carlo(spec);
    const auto rounds = result.rounds_sample();

    Table t({"protocol", "trials", "success", "rounds", "total_tx",
             "mean_tx/node", "max_tx/node", "collisions"});
    t.row()
        .add(proto_name)
        .add(static_cast<std::uint64_t>(trials))
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
      t.add(coll / trials, 0);
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
