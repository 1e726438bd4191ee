// E18 — robustness under attack: completion and stranding curves as the
// adversary dials up jammers, Byzantine relays and energy exhaustion
// (sim/adversary.hpp) on two backend families.
//
// The paper's guarantees are stated for a clean channel; these sweeps
// measure how gracefully the protocols degrade away from it:
//   * jammers deafen their out-neighbourhoods (half-duplex: a jammer is
//     never informed, so it leaves the goal set) — completion probability
//     falls and the honest remainder strands;
//   * Byzantine relays forward corrupted copies: informed_count still
//     saturates but the *valid*-copy goal does not, so the headline
//     stranded fraction separates from 1 - success;
//   * energy budgets bite only on protocols that retransmit (the gossip
//     marginal; Algorithm 1's single shot is immune by Theorem 2.1), and
//     listen-only exhaustion degrades far more gracefully than silent
//     (dead radio) exhaustion;
//   * crash/recover schedules freeze the wavefront, shifting the
//     completion round by roughly the outage length.
//
// Each protocol's curves run on two backend families where its *clean*
// baseline succeeds (otherwise the curve has nothing to degrade from):
// Algorithm 1 and EG 2005 on implicit G(n,p) + explicit CSR G(n,p), the
// gossip marginal on implicit G(n,p) + implicit mobility-RGG (Algorithm 1
// on a static RGG fails already at zero attack — E12's diameter result —
// so it is excluded here, not hidden). The ignp/csr pairing also shows
// the documented semantic split: on explicit graphs a jammer deafens its
// out-neighbourhood *permanently*, while the implicit static backend
// resamples jammed pairs each round (the memoryless churn-1 reading,
// sim/adversary.hpp) — same jammer fraction, visibly harsher stranding
// on csr. Cross-checked against the explicit churn-1 oracle by
// tests/sim/adversary_topology_equivalence_test.cpp.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "baselines/broadcast_baselines.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/generators.hpp"
#include "harness/batch.hpp"
#include "harness/experiment.hpp"
#include "harness/monte_carlo.hpp"
#include "support/table.hpp"

namespace {

using radnet::Rng;
using radnet::Table;
using radnet::graph::Digraph;
using radnet::harness::McSpec;
using radnet::sim::AdversarySpec;

using ProtocolFactory =
    std::function<std::unique_ptr<radnet::sim::Protocol>()>;

struct Cell {
  std::string backend;   // "ignp" | "irgg"
  std::string protocol;  // row label
};

/// One Monte-Carlo point of a robustness curve; every sweep funnels
/// through here so the rows are comparable column-for-column.
void add_row(Table& t, const Cell& cell, const std::string& knob,
             const McSpec& spec) {
  const auto result = radnet::harness::run_monte_carlo(spec);
  const auto rounds = result.rounds_sample();
  const auto stranded = result.stranded_sample();
  const double n = static_cast<double>(result.outcomes.empty()
                                           ? 1
                                           : result.outcomes.front().nodes);
  t.row()
      .add(cell.backend)
      .add(cell.protocol)
      .add(knob)
      .add(result.success_rate(), 2)
      .add_pm(rounds.empty() ? 0.0 : rounds.mean(),
              rounds.empty() ? 0.0 : rounds.stddev(), 1)
      .add(stranded.empty() ? 0.0 : stranded.mean() / n, 4)
      .add_pm(result.total_tx_sample().mean(),
              result.total_tx_sample().stddev(), 0)
      .add(result.max_tx_sample().max(), 0);
}

Table make_table(const std::string& caption) {
  Table t({"backend", "protocol", "adversary", "success", "rounds",
           "stranded/n", "total_tx", "max_tx"});
  t.set_caption(caption);
  return t;
}

}  // namespace

int main() {
  const auto env = radnet::harness::bench_env();
  radnet::harness::banner(
      "E18 (robustness under attack)",
      "Completion and stranded-fraction curves vs jammer/Byzantine fraction, "
      "energy budgets and crash schedules, on the implicit G(n,p), explicit "
      "CSR and implicit mobility-RGG backends.");

  const std::uint32_t trials = env.trials(8);
  const auto n = static_cast<std::uint32_t>(env.scaled(4096));
  const double p = 8.0 * std::log(static_cast<double>(n)) / n;
  const double radius = radnet::graph::rgg_threshold_radius(n, 4.0);

  // Horizons: each protocol's own budget, clamped so badly jammed runs
  // (which always exhaust the horizon) keep the sweep affordable.
  radnet::core::BroadcastRandomProtocol alg1_probe(
      radnet::core::BroadcastRandomParams{.p = p});
  alg1_probe.reset(n, Rng(0));
  const radnet::sim::Round alg1_budget = alg1_probe.round_budget();
  radnet::core::GossipRumorMarginalProtocol gossip_probe(
      radnet::core::GossipRumorMarginalParams{.p = p, .round_factor = 8.0});
  gossip_probe.reset(n, Rng(0));
  const radnet::sim::Round gossip_budget =
      std::min<radnet::sim::Round>(gossip_probe.round_budget(), 2048);

  const ProtocolFactory alg1 = [p] {
    return std::make_unique<radnet::core::BroadcastRandomProtocol>(
        radnet::core::BroadcastRandomParams{.p = p});
  };
  const ProtocolFactory gossip = [p] {
    return std::make_unique<radnet::core::GossipRumorMarginalProtocol>(
        radnet::core::GossipRumorMarginalParams{.p = p, .round_factor = 8.0});
  };
  const ProtocolFactory eg2005 = [n, p] {
    return std::make_unique<radnet::core::GeneralBroadcastProtocol>(
        radnet::baselines::eg2005_params(n, p));
  };

  const auto base_spec = [&](const ProtocolFactory& factory,
                             radnet::sim::Round max_rounds,
                             const AdversarySpec& adv) {
    McSpec spec;
    spec.trials = trials;
    spec.seed = env.seed + 18;  // same seed => paired adversaries per column
    spec.make_protocol = [&factory](const Digraph&, std::uint32_t) {
      return factory();
    };
    spec.run_options.max_rounds = max_rounds;
    spec.run_options.stop_on_empty_candidates = true;
    spec.run_options.adversary = adv;
    spec.run_options.adversary.protected_nodes = {0};  // keep the source honest
    return spec;
  };
  const auto on_gnp = [&](McSpec spec) {
    spec.implicit_gnp = radnet::sim::ImplicitGnp{n, p, radnet::Rng{}};
    return spec;
  };
  const auto on_csr = [&](McSpec spec) {
    spec.make_graph = [n_ = n, p](std::uint32_t, Rng rng) {
      return std::make_shared<const Digraph>(
          radnet::graph::gnp_directed(n_, p, rng));
    };
    return spec;
  };
  const auto on_rgg = [&](McSpec spec) {
    spec.implicit_rgg =
        radnet::sim::ImplicitRgg{n, radius, /*step=*/radius / 8.0};
    return spec;
  };

  // ---- Jammer sweep: both backend families ------------------------------
  {
    Table t = make_table(
        "E18a — jammer fraction sweep, " + std::to_string(trials) +
        " trials/point (max_tx excludes jam transmissions: Theorem 2.1's "
        "per-node bound must survive the attack; csr jams are permanent, "
        "ignp jams are the memoryless churn-1 reading)");
    for (const double f : {0.0, 0.01, 0.02, 0.05, 0.10}) {
      AdversarySpec adv;
      adv.jammer_fraction = f;
      const std::string knob = "jam=" + std::to_string(f).substr(0, 4);
      add_row(t, {"ignp", "alg1"}, knob, on_gnp(base_spec(alg1, alg1_budget, adv)));
      add_row(t, {"csr", "alg1"}, knob, on_csr(base_spec(alg1, alg1_budget, adv)));
      add_row(t, {"ignp", "gossip-marginal"}, knob,
              on_gnp(base_spec(gossip, gossip_budget, adv)));
      add_row(t, {"irgg", "gossip-marginal"}, knob,
              on_rgg(base_spec(gossip, gossip_budget, adv)));
      add_row(t, {"ignp", "eg2005"}, knob,
              on_gnp(base_spec(eg2005, alg1_budget, adv)));
    }
    radnet::harness::emit_table(env, "e18", "jammers", t);
  }

  // ---- Byzantine sweep: corrupted copies spread, valid copies stall -----
  {
    Table t = make_table(
        "E18b — Byzantine relay fraction sweep (success counts *valid* "
        "copies; a relay is informed but forwards garbage)");
    for (const double f : {0.0, 0.02, 0.05, 0.10, 0.20}) {
      AdversarySpec adv;
      adv.byzantine_fraction = f;
      const std::string knob = "byz=" + std::to_string(f).substr(0, 4);
      add_row(t, {"ignp", "alg1"}, knob, on_gnp(base_spec(alg1, alg1_budget, adv)));
      add_row(t, {"csr", "alg1"}, knob, on_csr(base_spec(alg1, alg1_budget, adv)));
      add_row(t, {"ignp", "gossip-marginal"}, knob,
              on_gnp(base_spec(gossip, gossip_budget, adv)));
      add_row(t, {"irgg", "gossip-marginal"}, knob,
              on_rgg(base_spec(gossip, gossip_budget, adv)));
    }
    radnet::harness::emit_table(env, "e18", "byzantine", t);
  }

  // ---- Energy-budget exhaustion: listen-only vs silent ------------------
  {
    Table t = make_table(
        "E18c — energy budgets on the gossip marginal (alg1 row: a single "
        "shot per node never exhausts, the curve is flat by Theorem 2.1)");
    for (const double budget : {0.0, 8.0, 4.0, 2.0, 1.0}) {
      AdversarySpec listen;
      listen.budget_mean = budget;
      listen.budget_spread = 0.25;
      AdversarySpec silent = listen;
      silent.exhaust_mode = AdversarySpec::ExhaustMode::kSilent;
      const std::string knob =
          budget == 0.0 ? "budget=inf"
                        : "budget=" + std::to_string(budget).substr(0, 3);
      add_row(t, {"ignp", "gossip-marginal/listen"}, knob,
              on_gnp(base_spec(gossip, gossip_budget, listen)));
      add_row(t, {"ignp", "gossip-marginal/silent"}, knob,
              on_gnp(base_spec(gossip, gossip_budget, silent)));
      add_row(t, {"ignp", "alg1/silent"}, knob,
              on_gnp(base_spec(alg1, alg1_budget, silent)));
    }
    radnet::harness::emit_table(env, "e18", "exhaustion", t);
  }

  // ---- Fault schedules: crash mid-broadcast, optionally recover ---------
  {
    Table t = make_table(
        "E18d — deterministic crash/recover schedules on Algorithm 1 "
        "(crashed nodes neither transmit nor hear until recovered)");
    using FE = radnet::sim::FaultEvent;
    // Algorithm 1 completes in Theta(log n) rounds on these densities, so
    // anchor the outage there — a schedule keyed to the (much larger)
    // round *budget* would fire after the broadcast already finished.
    const auto mid = static_cast<radnet::sim::Round>(
        std::max(1.0, std::log2(static_cast<double>(n))));
    const auto late = static_cast<radnet::sim::Round>(2 * mid);
    struct Scenario {
      std::string name;
      std::vector<FE> schedule;
    };
    const Scenario scenarios[] = {
        {"none", {}},
        {"crash10%", {FE{mid, FE::Kind::kCrash, 0.10}}},
        {"crash10%+recover",
         {FE{mid, FE::Kind::kCrash, 0.10}, FE{late, FE::Kind::kRecover, 1.0}}},
        {"crash30%+recover",
         {FE{mid, FE::Kind::kCrash, 0.30}, FE{late, FE::Kind::kRecover, 1.0}}},
    };
    for (const auto& s : scenarios) {
      AdversarySpec adv;
      adv.fault_schedule = s.schedule;
      add_row(t, {"ignp", "alg1"}, s.name,
              on_gnp(base_spec(alg1, alg1_budget, adv)));
      add_row(t, {"csr", "alg1"}, s.name,
              on_csr(base_spec(alg1, alg1_budget, adv)));
    }
    radnet::harness::emit_table(env, "e18", "faults", t);
  }

  // ---- Zero-completions regime: the aggregation path must stay clean ----
  // A jammer fraction this harsh strands every trial; the censored rounds
  // sample is empty, so every aggregate flows through the try_* optional
  // accessors (support/stats.hpp) and the batch layer's JSON emitter must
  // print nulls. The old throwing/NaN path turned this regime into either
  // an abort or "rounds_median": nan — non-JSON output — so the bench
  // FAILS if the emitted line is malformed rather than hiding the regime.
  {
    const auto allfail = radnet::harness::parse_batch_spec(
        "protocol=alg1 family=ignp n=512 jammers=0.6 trials=" +
        std::to_string(trials));
    const auto result =
        radnet::harness::run_monte_carlo(allfail.to_mc_spec());
    const std::string json = radnet::harness::batch_result_json(
        allfail, result, trials, /*converged=*/false);
    std::cout << "E18e — all-fail spec (jam=0.6) result line:\n"
              << json << "\n";
    if (json.find("nan") != std::string::npos ||
        json.find("inf") != std::string::npos ||
        json.find("\"rounds_median\":null") == std::string::npos) {
      std::cerr << "E18e: zero-completions result line is malformed — the "
                   "empty-sample aggregation path regressed\n";
      return 1;
    }
  }

  std::cout << "Shape check: success falls and stranded/n rises monotonically "
               "in the jammer and\nByzantine fractions; alg1's max_tx stays "
               "<= 1 throughout (jam energy is the\nadversary's, not the "
               "protocol's); silent exhaustion strands where listen-only\n"
               "merely slows; recovery restores completion at a round cost "
               "close to the outage.\n";
  return 0;
}
