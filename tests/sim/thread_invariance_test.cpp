// Shard invariance of the block- and chunk-sharded topology backends.
//
// The sharded phases key every RNG draw by (round, block/chunk) (StreamKey
// counter keying) — and the explicit CSR paths and the RGG bucketing draw
// no randomness at all — so a single-trial RunResult — completion, round
// counts, the full energy ledger and the per-event trace — must be
// *bit-identical* whether a round runs serially or over a pool of any
// size. Every section expresses that through the shared property harness
// in shard_invariance.hpp ({1, 2, 8, 0} threads, optionally × the SIMD
// dispatch modes, against the scalar serial baseline): the implicit static
// backend, the implicit dynamic backend at churn 1.0 and 0.5 (the
// sender-chunked gather and group-chunked classify sketch phases plus the
// sweep's record/merge path), a failure-injection run (the block-sharded
// failure sweep), the dedicated phase matrices for the sharded sketch
// phases (churn + failures + ramping transmitter counts, so gather spans
// many sender chunks) and the RGG transmitter bucketing (dense cells,
// ramping k), the implicit mobility-RGG backend (counter-keyed motion
// sweep + RNG-free cell-grid delivery, with and without the attentive bulk
// fold), and the explicit CSR family: all three delivery paths on a static
// G(n,p) graph and on DynamicCsrTopology sequences (link churn and RGG
// mobility), each cross-checked byte-identical against the serial seed
// results and against the serial kSortedTouch baseline. The adversary
// layer (jammer injection, Byzantine rerouting, heterogeneous energy
// budgets, crash/recover schedules — all serial, StreamKey-keyed) is
// pinned on the implicit static, implicit RGG and explicit CSR families,
// including AdversaryStats via the exhaustive RunResult equality. Final
// tests drive the Monte-Carlo harness's round-parallel mode against its
// serial mode on both backend families.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/broadcast_baselines.hpp"
#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "harness/monte_carlo.hpp"
#include "shard_invariance.hpp"
#include "sim/engine.hpp"

namespace radnet::sim {
namespace {

using core::BroadcastRandomParams;
using core::BroadcastRandomProtocol;
using core::GeneralBroadcastProtocol;
using core::GossipRumorMarginalParams;
using core::GossipRumorMarginalProtocol;
using shard_test::expect_csr_shard_invariant;
using shard_test::expect_identical;
using shard_test::expect_shard_invariant;
using shard_test::kShardThreadCounts;

TEST(ThreadInvariance, ImplicitStaticBroadcast) {
  // The dense classification sweep runs its vectorised plain path in this
  // regime (k·p well above the sparse cutoff, q > 0.5 mid-broadcast), so
  // the SIMD mode sweep is on.
  const graph::NodeId n = 50'000;  // several shard blocks
  const double p = 8.0 * std::log(n) / n;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 256;
        const ImplicitGnp spec{n, p, Rng(0xA11CE)};
        BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(7), options);
      },
      "implicit static broadcast", /*sweep_simd_modes=*/true);
}

TEST(ThreadInvariance, AttentivePathAndBulkCollisions) {
  // Without a trace the attentive hint stays live, so the heavy rounds run
  // the chunk-sharded attentive path with inert-collision bulk merging —
  // the ledger must still be bit-identical at every thread count.
  const graph::NodeId n = 200'000;
  const double p = 8.0 * std::log(n) / n;
  const auto run_with = [&](unsigned threads) {
    RunOptions options;
    options.max_rounds = 256;
    options.threads = threads;
    const ImplicitGnp spec{n, p, Rng(0xBEEF)};
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    Engine engine;
    return engine.run(spec, proto, Rng(11), options);
  };
  const RunResult serial = run_with(1);
  EXPECT_TRUE(serial.completed);
  for (const unsigned threads : kShardThreadCounts) {
    if (threads == 1) continue;  // `serial` IS the 1-thread run
    expect_identical(serial, run_with(threads), "attentive path");
  }
}

void expect_dynamic_invariant(double churn, double fail_prob,
                              const char* what, bool sweep_simd_modes) {
  const graph::NodeId n = 50'000;
  const double p = 16.0 / n;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 64;
        ImplicitDynamicGnp spec;
        spec.n = n;
        spec.p = p;
        spec.churn = churn;
        spec.fail_prob = fail_prob;
        spec.rng = Rng(0xD15C0);
        GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(9), options);
      },
      what, sweep_simd_modes);
}

TEST(ThreadInvariance, ImplicitDynamicChurnOne) {
  // churn = 1 never touches the sketch; this pins the sweep + merge path.
  expect_dynamic_invariant(1.0, 0.0, "dynamic churn=1.0", false);
}

TEST(ThreadInvariance, ImplicitDynamicChurnHalf) {
  // churn < 1 routes deliveries through the pair sketch: the sender-chunked
  // gather, the group-chunked classify and the sweep's buffered record
  // merge must reproduce the serial sketch insertion order exactly, or
  // later rounds diverge. The gossip marginal ramps transmitters to ~n, so
  // gather spans dozens of sender chunks. SIMD modes on: the lane-batched
  // dense classification must feed the sketch the exact same resolution
  // sequence in every mode (acceptance matrix: churned-dynamic runs
  // byte-identical across {1,2,8,0} threads × SIMD modes).
  expect_dynamic_invariant(0.5, 0.0, "dynamic churn=0.5", true);
}

TEST(ThreadInvariance, FailureInjection) {
  // fail_prob > 0 also exercises the block-sharded failure sweep.
  expect_dynamic_invariant(1.0, 0.002, "dynamic with failures", false);
}

TEST(ThreadInvariance, DynamicSketchPhaseMatrix) {
  // The dedicated phase matrix for the sharded sketch phases: churn and
  // failures together, a deeper horizon (lower churn → older entries
  // survive re-examination), and the gossip ramp driving both phases
  // through 1 → many chunks as k grows. Every (mode, threads) cell must
  // byte-equal the scalar serial run — this is the matrix that catches a
  // chunk-keying or merge-order slip in gather/classify specifically.
  const graph::NodeId n = 60'000;
  const double p = 16.0 / n;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 72;
        ImplicitDynamicGnp spec;
        spec.n = n;
        spec.p = p;
        spec.churn = 0.35;
        spec.fail_prob = 0.001;
        spec.rng = Rng(0x5CE7);
        GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(47), options);
      },
      "dynamic sketch phase matrix", /*sweep_simd_modes=*/true);
}

TEST(ThreadInvariance, ImplicitRggMobility) {
  // The implicit mobility-RGG backend: motion draws are counter-keyed per
  // (round, block), and the bucketing + cell-grid delivery draw no
  // randomness, so trace + ledger + RunResult must be byte-identical at
  // any thread count and SIMD mode (the distance checks run through the
  // dispatched vector-mask kernel). n spans several shard blocks so 2- and
  // 8-thread schedules genuinely interleave movement, bucketing and
  // delivery work (acceptance matrix: RGG mobility runs byte-identical
  // across {1,2,8,0} threads × SIMD modes).
  const graph::NodeId n = 150'000;
  const double radius = std::sqrt(16.0 / (3.14159 * n));
  const double p = 3.14159 * radius * radius;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 48;
        const ImplicitRgg spec{n, radius, radius / 8.0, Rng(0x1266)};
        GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(29), options);
      },
      "implicit RGG mobility", /*sweep_simd_modes=*/true);
}

TEST(ThreadInvariance, RggBucketingPhaseMatrix) {
  // The dedicated phase matrix for the sharded transmitter bucketing: a
  // denser geometry (more transmitters per cell, more runs per chunk) and
  // a broadcast ramp that crosses the 1-chunk → many-chunk boundary, so a
  // cell split across chunks (the merge's concatenation case) occurs every
  // heavy round. The phase draws no RNG, so any divergence here is a
  // layout slip in the cell-ordered merge, not a stream mismatch.
  const graph::NodeId n = 120'000;
  const double radius = std::sqrt(24.0 / (3.14159 * n));
  const double p = 3.14159 * radius * radius;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 48;
        const ImplicitRgg spec{n, radius, radius / 4.0, Rng(0xB0C4)};
        BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(53), options);
      },
      "RGG bucketing phase matrix", /*sweep_simd_modes=*/true);
}

TEST(ThreadInvariance, ImplicitRggAttentiveBulkLedger) {
  // Without a trace the attentive hint stays live, so non-attentive
  // deliveries (and inert collisions) fold into per-block bulk counts in
  // the RGG sweep too — the ledger must still be bit-identical at every
  // thread count.
  const graph::NodeId n = 150'000;
  const double radius = std::sqrt(16.0 / (3.14159 * n));
  const double p = 3.14159 * radius * radius;
  const auto run_with = [&](unsigned threads) {
    RunOptions options;
    options.max_rounds = 48;
    options.threads = threads;
    const ImplicitRgg spec{n, radius, radius / 8.0, Rng(0x1267)};
    GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
    Engine engine;
    return engine.run(spec, proto, Rng(31), options);
  };
  const RunResult serial = run_with(1);
  EXPECT_GT(serial.ledger.total_deliveries, 0u);
  for (const unsigned threads : kShardThreadCounts) {
    if (threads == 1) continue;  // `serial` IS the 1-thread run
    expect_identical(serial, run_with(threads), "implicit RGG attentive");
  }
}

// In-block deliveries (sim/sharding.hpp): Algorithm 1 and the gossip
// marginal declare receiver-local deliveries, so their untraced pool runs
// apply deliveries inside the sweep blocks. n spans three listener blocks
// and the attentive hint stays above one chunk in the heavy rounds, so
// both the sweep and the attentive path run their parallel branch.
constexpr graph::NodeId kInBlockN = 140'000;

template <class Proto, class Params, class Spec>
RunResult run_maybe_decorated(const Spec& spec, const Params& params,
                              RunOptions options, bool decorated,
                              std::uint64_t seed) {
  Proto proto(params);
  Engine engine;
  if (!decorated) return engine.run(spec, proto, Rng(seed), options);
  shard_test::ForwardingProtocol wrapper(proto);
  return engine.run(spec, wrapper, Rng(seed), options);
}

template <class Proto, class Params>
void expect_in_block_ignp(const Params& params, double p, const char* what) {
  shard_test::expect_in_block_invariant(
      [&](RunOptions options, bool decorated) {
        options.max_rounds = 48;
        const ImplicitGnp spec{kInBlockN, p, Rng(0x1B10C)};
        return run_maybe_decorated<Proto>(spec, params, options, decorated,
                                          41);
      },
      what, /*trace_keeps_hints=*/false);
}

template <class Proto, class Params>
void expect_in_block_idgnp(const Params& params, double p, const char* what) {
  shard_test::expect_in_block_invariant(
      [&](RunOptions options, bool decorated) {
        options.max_rounds = 48;
        ImplicitDynamicGnp spec;
        spec.n = kInBlockN;
        spec.p = p;
        spec.churn = 0.5;
        spec.rng = Rng(0x1B10D);
        return run_maybe_decorated<Proto>(spec, params, options, decorated,
                                          43);
      },
      what, /*trace_keeps_hints=*/false);
}

template <class Proto, class Params>
void expect_in_block_irgg(const Params& params, double radius,
                          const char* what) {
  shard_test::expect_in_block_invariant(
      [&](RunOptions options, bool decorated) {
        options.max_rounds = 48;
        const ImplicitRgg spec{kInBlockN, radius, radius / 8.0, Rng(0x1B10E)};
        return run_maybe_decorated<Proto>(spec, params, options, decorated,
                                          47);
      },
      what, /*trace_keeps_hints=*/true);
}

TEST(ThreadInvariance, InBlockAlg1Ignp) {
  const double p = 8.0 * std::log(kInBlockN) / kInBlockN;
  expect_in_block_ignp<BroadcastRandomProtocol>(
      BroadcastRandomParams{.p = p}, p, "in-block alg1 ignp");
}

TEST(ThreadInvariance, InBlockAlg1Idgnp) {
  const double p = 16.0 / kInBlockN;
  expect_in_block_idgnp<BroadcastRandomProtocol>(
      BroadcastRandomParams{.p = p}, p, "in-block alg1 idgnp");
}

TEST(ThreadInvariance, InBlockAlg1Irgg) {
  const double radius = std::sqrt(16.0 / (3.14159 * kInBlockN));
  expect_in_block_irgg<BroadcastRandomProtocol>(
      BroadcastRandomParams{.p = 3.14159 * radius * radius}, radius,
      "in-block alg1 irgg");
}

TEST(ThreadInvariance, InBlockAlg2mIgnp) {
  const double p = 8.0 * std::log(kInBlockN) / kInBlockN;
  expect_in_block_ignp<GossipRumorMarginalProtocol>(
      GossipRumorMarginalParams{.p = p}, p, "in-block alg2m ignp");
}

TEST(ThreadInvariance, InBlockAlg2mIdgnp) {
  const double p = 16.0 / kInBlockN;
  expect_in_block_idgnp<GossipRumorMarginalProtocol>(
      GossipRumorMarginalParams{.p = p}, p, "in-block alg2m idgnp");
}

TEST(ThreadInvariance, InBlockAlg2mIrgg) {
  const double radius = std::sqrt(16.0 / (3.14159 * kInBlockN));
  expect_in_block_irgg<GossipRumorMarginalProtocol>(
      GossipRumorMarginalParams{.p = 3.14159 * radius * radius}, radius,
      "in-block alg2m irgg");
}

TEST(ThreadInvariance, InBlockDecayIgnp) {
  const double p = 8.0 * std::log(kInBlockN) / kInBlockN;
  expect_in_block_ignp<GeneralBroadcastProtocol>(
      baselines::decay_params(kInBlockN), p, "in-block decay ignp");
}

TEST(ThreadInvariance, InBlockEg2005Idgnp) {
  // eg2005 activates a receiver only through round T = 4 here; Phase 3 is
  // cut to ceil(log2 n) = 18 rounds, so the horizon (round 23) also falls
  // inside the run.
  const double p = 16.0 / kInBlockN;
  expect_in_block_idgnp<GeneralBroadcastProtocol>(
      baselines::eg2005_params(kInBlockN, p, 0, 1.0), p,
      "in-block eg2005 idgnp");
}

TEST(ThreadInvariance, InBlockAlg1Csr) {
  // n = 20 000 as in CsrStaticAllPaths: ~20 adaptive listener blocks, and
  // the heavy rounds clear CsrDelivery::kMinParallelRoundWork, so the
  // pooled sweeps apply deliveries in-block. CSR delivery draws no RNG,
  // so the traced run must match the untraced ones too.
  const graph::NodeId n = 20'000;
  const double p = 8.0 * std::log(n) / n;
  Rng grng(0x1B10F);
  const graph::Digraph g = graph::gnp_directed(n, p, grng);
  shard_test::expect_in_block_invariant(
      [&](RunOptions options, bool decorated) {
        options.max_rounds = 48;
        return run_maybe_decorated<BroadcastRandomProtocol>(
            g, BroadcastRandomParams{.p = p}, options, decorated, 49);
      },
      "in-block alg1 csr", /*trace_keeps_hints=*/true);
}

TEST(ThreadInvariance, CsrStaticAllPaths) {
  // Large enough for ~20 adaptive listener blocks, so 2- and 8-thread
  // schedules genuinely interleave block execution.
  const graph::NodeId n = 20'000;
  const double p = 12.0 / n;
  Rng grng(0x5eed);
  const graph::Digraph g = graph::gnp_directed(n, p, grng);
  expect_csr_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 96;
        BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
        Engine engine;
        return engine.run(g, proto, Rng(7), options);
      },
      "csr static");
}

TEST(ThreadInvariance, CsrAttentiveBulkLedger) {
  // Without a trace the attentive hint stays live, so non-attentive
  // deliveries (and inert collisions) merge as per-block bulk counts on
  // the CSR paths too — the ledger must still be bit-identical at every
  // thread count and across paths.
  const graph::NodeId n = 20'000;
  // The d = 8 ln n regime, where Algorithm 1 completes reliably at finite n.
  const double p = 8.0 * std::log(n) / n;
  Rng grng(0xfade);
  const graph::Digraph g = graph::gnp_directed(n, p, grng);
  const auto run_with = [&](DeliveryPath path, unsigned threads) {
    RunOptions options;
    options.max_rounds = 512;
    options.threads = threads;
    options.delivery_path = path;
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    Engine engine;
    return engine.run(g, proto, Rng(13), options);
  };
  const RunResult baseline = run_with(DeliveryPath::kSortedTouch, 1);
  EXPECT_TRUE(baseline.completed);
  for (const DeliveryPath path : shard_test::kAllDeliveryPaths)
    for (const unsigned threads : kShardThreadCounts)
      expect_identical(baseline, run_with(path, threads),
                       "csr attentive bulk ledger");

  // Per-event oracle: a traced run drops the attentive hint, so every
  // delivery and collision fires as an individual event — and CSR
  // delivery draws no randomness, so for the same (graph, protocol,
  // seed) its ledger is the exact reference the bulk-folded runs must
  // reproduce. A systematic fold miscount cannot hide here.
  {
    RunOptions traced;
    traced.max_rounds = 512;
    traced.record_trace = true;
    traced.threads = 1;
    traced.delivery_path = DeliveryPath::kSortedTouch;
    BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
    Engine engine;
    const RunResult oracle = engine.run(g, proto, Rng(13), traced);
    EXPECT_EQ(oracle.completed, baseline.completed);
    EXPECT_EQ(oracle.completion_round, baseline.completion_round);
    EXPECT_EQ(oracle.rounds_executed, baseline.rounds_executed);
    EXPECT_EQ(oracle.ledger, baseline.ledger)
        << "bulk-folded ledger diverged from the per-event oracle";
  }
}

TEST(ThreadInvariance, CsrDynamicChurnAllPaths) {
  // DynamicCsrTopology over an explicit link-churn sequence; the sequence
  // consumes its own Rng per round, so identical seeds rebuild identical
  // graph sequences for every run. n sits above
  // CsrDelivery::kMinParallelRoundWork so the in-neighbour scan shards,
  // and the gossip marginal's ~n/d transmitters put counter-path load at
  // ~n per round, clearing the gate too — the per-round graph swap
  // genuinely meets the reused scatter/shard buffers here.
  const graph::NodeId n = 4500;
  const double p = 16.0 / n;
  expect_csr_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 10;
        graph::ChurnGnp seq(n, p, 0.3, Rng(0xc4a2));
        GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
        Engine engine;
        return engine.run(seq, proto, Rng(21), options);
      },
      "csr dynamic churn");
}

TEST(ThreadInvariance, CsrDynamicMobilityAllPaths) {
  // RGG mobility: symmetric geometric links, positions drifting per round.
  const graph::NodeId n = 30'000;
  const double radius = std::sqrt(16.0 / (3.14159 * n));
  expect_csr_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 24;
        graph::MobilityRgg seq(n, radius, radius / 8.0, Rng(0x30b1));
        BroadcastRandomProtocol proto(BroadcastRandomParams{.p = 16.0 / n});
        Engine engine;
        return engine.run(seq, proto, Rng(23), options);
      },
      "csr dynamic mobility");
}

/// A spec exercising every adversary channel at once: jammer injection,
/// Byzantine rerouting, tight heterogeneous budgets (so exhaustion hits
/// mid-run) and a crash + partial-recovery schedule. All adversary
/// randomness is serial and StreamKey-keyed, so results must stay
/// byte-identical at any thread count on every backend.
AdversarySpec attack_spec() {
  AdversarySpec adv;
  adv.jammer_fraction = 0.01;
  adv.byzantine_fraction = 0.02;
  adv.budget_mean = 6.0;
  adv.budget_spread = 0.5;
  adv.fault_schedule = {{8, FaultEvent::Kind::kCrash, 0.02},
                        {20, FaultEvent::Kind::kRecover, 0.5}};
  adv.protected_nodes = {0};  // never jam/crash the source
  adv.seed = 0xbad5eed;
  return adv;
}

TEST(ThreadInvariance, AdversaryImplicitGnpBroadcast) {
  const graph::NodeId n = 50'000;
  const double p = 8.0 * std::log(n) / n;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 96;
        options.adversary = attack_spec();
        const ImplicitGnp spec{n, p, Rng(0xA77AC)};
        BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(37), options);
      },
      "adversary implicit gnp");
}

TEST(ThreadInvariance, AdversaryImplicitRggGossip) {
  const graph::NodeId n = 150'000;
  const double radius = std::sqrt(16.0 / (3.14159 * n));
  const double p = 3.14159 * radius * radius;
  expect_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 48;
        options.adversary = attack_spec();
        const ImplicitRgg spec{n, radius, radius / 8.0, Rng(0xA77AD)};
        GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
        Engine engine;
        return engine.run(spec, proto, Rng(41), options);
      },
      "adversary implicit RGG");
}

TEST(ThreadInvariance, AdversaryCsrAllPaths) {
  const graph::NodeId n = 20'000;
  const double p = 12.0 / n;
  Rng grng(0x5eed);
  const graph::Digraph g = graph::gnp_directed(n, p, grng);
  expect_csr_shard_invariant(
      [&](RunOptions options) {
        options.max_rounds = 96;
        options.adversary = attack_spec();
        BroadcastRandomProtocol proto(BroadcastRandomParams{.p = p});
        Engine engine;
        return engine.run(g, proto, Rng(43), options);
      },
      "adversary csr");
}

TEST(ThreadInvariance, MonteCarloRoundParallelMatchesSerialCsr) {
  // One explicit-CSR trial: the harness now flips explicit-topology
  // specs to round-parallelism too (threads = 0) when the pool has > 1
  // thread; outcomes must match a fully serial run regardless.
  const graph::NodeId n = 20'000;
  const double p = 12.0 / n;
  harness::McSpec spec;
  spec.trials = 1;
  spec.seed = 0xCAFE;
  Rng grng(0x9a8);
  spec.make_graph =
      harness::shared_graph(graph::gnp_directed(n, p, grng));
  spec.make_protocol = [p](const graph::Digraph&, std::uint32_t) {
    return std::make_unique<BroadcastRandomProtocol>(
        BroadcastRandomParams{.p = p});
  };
  spec.run_options.max_rounds = 256;

  spec.serial = true;
  const harness::McResult serial = harness::run_monte_carlo(spec);
  spec.serial = false;
  const harness::McResult parallel = harness::run_monte_carlo(spec);

  ASSERT_EQ(serial.trials(), parallel.trials());
  const auto& a = serial.outcomes[0];
  const auto& b = parallel.outcomes[0];
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_tx, b.total_tx);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
}

TEST(ThreadInvariance, MonteCarloRoundParallelMatchesSerial) {
  // One trial, so the harness flips to round-parallelism (threads = 0)
  // when the pool has > 1 thread; the outcomes must match a fully serial
  // run regardless.
  const graph::NodeId n = 30'000;
  const double p = 8.0 * std::log(n) / n;
  harness::McSpec spec;
  spec.trials = 1;
  spec.seed = 0xC0FFEE;
  spec.implicit_gnp = sim::ImplicitGnp{n, p, Rng{}};
  spec.make_protocol = [p](const graph::Digraph&, std::uint32_t) {
    return std::make_unique<BroadcastRandomProtocol>(
        BroadcastRandomParams{.p = p});
  };
  spec.run_options.max_rounds = 256;

  spec.serial = true;
  const harness::McResult serial = harness::run_monte_carlo(spec);
  spec.serial = false;
  const harness::McResult parallel = harness::run_monte_carlo(spec);

  ASSERT_EQ(serial.trials(), parallel.trials());
  for (std::uint32_t t = 0; t < serial.trials(); ++t) {
    const auto& a = serial.outcomes[t];
    const auto& b = parallel.outcomes[t];
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.total_tx, b.total_tx);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.collisions, b.collisions);
  }
}

}  // namespace
}  // namespace radnet::sim
