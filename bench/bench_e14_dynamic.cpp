// E14 — extension: the paper's algorithms on *changing* topologies.
//
// The paper's introduction motivates oblivious, local protocols precisely
// with mobility ("the network topology changes over time"), and Section 3
// remarks that Algorithm 2 becomes a dynamic gossip by timestamping rumors
// and deleting stale copies. This bench quantifies both claims:
//
//   (a) Broadcast robustness — Algorithm 3 under per-round link churn on a
//       stationary G(n,p): success and time vs churn rate. Obliviousness
//       means the protocol doesn't even notice the churn; only the
//       *connectivity-over-time* matters.
//   (b) Dynamic gossip — timestamped Algorithm 2 on churn and mobility
//       topologies: steady-state staleness and coverage vs churn/step,
//       compared against the static gossip time O(d log n).
//
// --topology=csr (default) drives (a) through the explicit ChurnGnp
// sequence (O(n^2) pair state per trial) and (b) through the explicit
// DynamicCsrTopology rebuilds; --topology=implicit runs (a)'s churn sweep
// graph-free on sim::ImplicitDynamicGnp, adds an implicit mobility row to
// (b) on sim::ImplicitRgg (same staleness metrics, side by side with the
// explicit oracle). Statistical equivalence of the two mobility backends is
// pinned by tests/sim/rgg_topology_equivalence_test.cpp; the n = 10^7
// mobility broadcast under a 4 GiB cap is a radnet_batch command (README
// "Memory ceilings").
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>

#include "core/broadcast_general.hpp"
#include "core/dynamic_gossip.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "harness/experiment.hpp"
#include "sim/engine.hpp"
#include "support/math.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using radnet::Rng;
using radnet::Sample;
using radnet::Table;

}  // namespace

int main(int argc, char** argv) {
  std::string topology;
  const bool implicit =
      radnet::harness::parse_topology_flag(argc, argv, &topology, "csr");

  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E14 (extension: dynamic networks)",
      "Broadcast under link churn and timestamped dynamic gossip — the "
      "mobility story of §1 and the §3 dynamic-gossip remark, quantified. "
      "[topology=" + topology + "]");

  const std::uint32_t trials = env.trials(8);

  // (a) Algorithm 3 under churn.
  {
    const auto n = static_cast<radnet::graph::NodeId>(env.scaled(512));
    const double p = 10.0 * std::log(n) / n;
    Table t({"churn/round", "success", "rounds", "rounds vs static"});
    t.set_caption("E14a: Algorithm 3 on churn-G(n,p), n=" + std::to_string(n) +
                  " — " + std::to_string(trials) + " trials/row");
    double static_rounds = 0.0;
    for (const double churn : {0.0, 0.01, 0.05, 0.2, 0.5}) {
      Sample rounds;
      std::uint32_t success = 0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        Rng root(env.seed + 30);
        // D for a G(n,p) this dense is ~3; the protocol only needs an upper
        // bound, so use the Lemma 3.1 prediction + 1.
        const auto D = static_cast<std::uint64_t>(
            std::ceil(std::log(static_cast<double>(n)) / std::log(n * p))) + 1;
        radnet::core::GeneralBroadcastProtocol proto(
            radnet::core::GeneralBroadcastParams{
                .schedule = radnet::core::sequence_schedule(
                    radnet::core::SequenceDistribution::alpha(n, D)),
                .window = radnet::core::general_window(n, 4.0),
                .source = 0,
                .label = ""});
        radnet::sim::Engine engine;
        radnet::sim::RunOptions options;
        options.max_rounds = radnet::core::general_round_budget(
            n, D, radnet::lambda_of(n, D), 96.0);
        options.stop_on_empty_candidates = true;
        radnet::sim::RunResult r;
        if (implicit && churn > 0.0) {
          radnet::sim::ImplicitDynamicGnp spec;
          spec.n = n;
          spec.p = p;
          spec.churn = churn;
          spec.rng = root.split(trial, 0);
          r = engine.run(spec, proto, root.split(trial, 1), options);
        } else {
          // churn = 0 (the static reference row) stays on the explicit
          // path: a fixed graph is outside the dynamic family.
          radnet::graph::ChurnGnp topo(n, p, churn, root.split(trial, 0));
          r = engine.run(topo, proto, root.split(trial, 1), options);
        }
        if (r.completed) {
          ++success;
          rounds.add(static_cast<double>(r.completion_round));
        }
      }
      const double mean_rounds = rounds.empty() ? 0.0 : rounds.mean();
      if (churn == 0.0) static_rounds = mean_rounds;
      t.row()
          .add(churn, 2)
          .add(static_cast<double>(success) / trials, 2)
          .add_pm(mean_rounds, rounds.empty() ? 0.0 : rounds.stddev(), 0)
          .add(static_rounds > 0.0 ? mean_rounds / static_rounds : 0.0, 2);
    }
    radnet::harness::emit_table(env, "e14", "broadcast_churn", t);
  }

  // (b) Dynamic gossip staleness.
  {
    const auto n = static_cast<radnet::graph::NodeId>(env.scaled(192));
    const double p = 10.0 * std::log(n) / n;
    const double d = n * p;
    const double gossip_unit = d * std::log2(static_cast<double>(n));
    const auto horizon = static_cast<radnet::sim::Round>(24.0 * gossip_unit);

    Table t({"topology", "coverage", "staleness mean", "staleness max",
             "staleness/(d*log2n)"});
    t.set_caption("E14b: timestamped dynamic gossip, n=" + std::to_string(n) +
                  ", horizon=" + std::to_string(horizon) +
                  " rounds; staleness = age of the freshest copy");

    std::uint64_t row = 0;
    // Each row supplies its own engine invocation; the staleness metrics
    // and the gossip protocol are shared. (The implicit mobility row runs
    // the same protocol on sim::ImplicitRgg — the engine overload is the
    // only difference.)
    const auto run_gossip =
        [&](const std::string& name,
            const std::function<radnet::sim::RunResult(
                radnet::core::DynamicGossipProtocol&,
                const radnet::sim::RunOptions&, Rng)>& run_fn) {
          radnet::core::DynamicGossipProtocol proto(
              radnet::core::DynamicGossipParams{.p = p, .regen_interval = 1});
          radnet::sim::RunOptions options;
          options.max_rounds = horizon;
          (void)run_fn(proto, options, Rng(env.seed + 31).split(row++));
          const auto s = proto.staleness();
          t.row()
              .add(name)
              .add(proto.coverage(), 4)
              .add(s.mean, 1)
              .add(static_cast<std::uint64_t>(s.max))
              .add(static_cast<double>(s.max) / gossip_unit, 2);
        };
    const auto run_sequence = [&](radnet::graph::TopologySequence& topo) {
      return [&topo](radnet::core::DynamicGossipProtocol& proto,
                     const radnet::sim::RunOptions& options, Rng proto_rng) {
        radnet::sim::Engine engine;
        return engine.run(topo, proto, proto_rng, options);
      };
    };

    const double rgg_radius = radnet::graph::rgg_threshold_radius(n, 4.0);
    {
      Rng r(env.seed + 32);
      radnet::graph::ChurnGnp topo(n, p, 0.0, r);
      run_gossip("static G(n,p)", run_sequence(topo));
    }
    for (const double churn : {0.02, 0.1, 0.3}) {
      Rng r(env.seed + 33);
      radnet::graph::ChurnGnp topo(n, p, churn, r);
      run_gossip("churn " + std::to_string(churn).substr(0, 4),
                 run_sequence(topo));
    }
    {
      Rng r(env.seed + 34);
      radnet::graph::MobilityRgg topo(n, rgg_radius, 0.02, r);
      run_gossip("mobility RGG (step 0.02)", run_sequence(topo));
    }
    if (implicit) {
      // The same mobility model on the graph-free backend, side by side
      // with the explicit row above: coverage and staleness must land on
      // the same scale (the RGG oracle tests pin the distributions).
      run_gossip("mobility iRGG (step 0.02)",
                 [&](radnet::core::DynamicGossipProtocol& proto,
                     const radnet::sim::RunOptions& options, Rng proto_rng) {
                   radnet::sim::Engine engine;
                   return engine.run(
                       radnet::sim::ImplicitRgg{n, rgg_radius, 0.02,
                                                Rng(env.seed + 34)},
                       proto, proto_rng, options);
                 });
    }
    radnet::harness::emit_table(env, "e14", "gossip_staleness", t);
  }

  std::cout
      << "\nShape check: (a) broadcast success stays ~1 and time degrades\n"
         "gracefully with churn (obliviousness pays off); (b) coverage ~ 1\n"
         "and max staleness stays a small multiple of the static gossip\n"
         "time d*log2 n on every dynamic topology — the continuous-service\n"
         "property claimed in §3.\n";
  return 0;
}
