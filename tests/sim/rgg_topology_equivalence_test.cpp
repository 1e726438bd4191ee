// Implicit mobility-RGG vs explicit MobilityRgg equivalence.
//
// The ImplicitRggTopology backend (sim/backends/implicit_rgg.hpp) claims
// to be the explicit graph::MobilityRgg process *exactly, in distribution,
// for every protocol*: delivery is deterministic geometry given the
// round's positions, and the motion process (uniform placement, reflected
// uniform steps) follows the same law — only the stream layout of the
// motion draws differs (counter-keyed vs sequential), so runs pair
// distributionally, never bit-for-bit. Pinned here at two strengths:
//
//   * exactly: a brute-force O(n·k) geometry oracle recomputes single
//     rounds from the backend's own positions and must match the cell-grid
//     sweep event-for-event (both duplex modes, with and without the
//     attentive hint);
//   * statistically: paired Monte-Carlo runs against the explicit
//     MobilityRgg oracle — repeated-transmitter gossip (the regime where
//     the G(n,p) sampling backends are merely *modelled*) and Algorithm-1
//     broadcast — with two-sample KS / chi-square checks on completion
//     rounds, transmissions and the energy ledger at 3 seeds each.
//
// Seeds are fixed; RADNET_STAT_TRIALS scales the resolution (ctest label
// tier1_stat). Thread-count bit-identity of the backend lives in
// tests/sim/thread_invariance_test.cpp.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "core/gossip_random.hpp"
#include "graph/dynamics.hpp"
#include "graph/generators.hpp"
#include "harness/monte_carlo.hpp"
#include "sim/engine.hpp"
#include "statistical_oracle.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {
namespace {

using core::BroadcastRandomParams;
using core::BroadcastRandomProtocol;
using core::GossipRumorMarginalParams;
using core::GossipRumorMarginalProtocol;
using harness::McResult;
using harness::McSpec;
using testing::chi_square_two_sample;
using testing::ks_two_sample;
using testing::stat_trials;

constexpr double kAlpha = 0.01;

using ProtocolFactory = std::function<std::unique_ptr<Protocol>()>;

/// Paired Monte-Carlo runs: the same root seed drives the implicit RGG
/// backend and the explicit MobilityRgg oracle.
struct PairedRuns {
  McResult implicit_rgg;
  McResult explicit_rgg;
};

PairedRuns run_paired(graph::NodeId n, double radius, double step,
                      std::uint64_t seed, std::uint32_t trials,
                      const ProtocolFactory& factory, Round max_rounds) {
  McSpec base;
  base.trials = trials;
  base.seed = seed;
  base.make_protocol = [factory](const graph::Digraph&, std::uint32_t) {
    return factory();
  };
  base.run_options.max_rounds = max_rounds;

  McSpec imp = base;
  imp.implicit_rgg = ImplicitRgg{n, radius, step, Rng{}};

  McSpec exp = base;
  exp.make_sequence = [n, radius, step](std::uint32_t, Rng rng) {
    return std::make_unique<graph::MobilityRgg>(n, radius, step, rng);
  };

  return {harness::run_monte_carlo(imp), harness::run_monte_carlo(exp)};
}

std::vector<double> deliveries_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes)
    v.push_back(static_cast<double>(o.deliveries));
  return v;
}

std::vector<double> collisions_of(const McResult& r) {
  std::vector<double> v;
  v.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes)
    v.push_back(static_cast<double>(o.collisions));
  return v;
}

// ---------------------------------------------------------------------------
// Exact single-round oracle: recompute the cell-grid sweep by brute force.

struct CollectSink {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> deliveries;
  std::vector<graph::NodeId> collisions;
  std::uint64_t bulk_deliveries = 0;
  std::uint64_t bulk_collisions = 0;

  void deliver(graph::NodeId receiver, graph::NodeId sender) {
    deliveries.emplace_back(receiver, sender);
  }
  void collide(graph::NodeId receiver) { collisions.push_back(receiver); }
  void deliver_bulk(std::uint64_t count) { bulk_deliveries += count; }
  void collide_bulk(std::uint64_t count) { bulk_collisions += count; }
};

/// The backend's claim, computed the slow way: listener v hears exactly
/// the transmitters at distance <= radius (excluding itself; excluded
/// entirely when transmitting under half-duplex).
CollectSink brute_force_round(const ImplicitRggTopology& topo, double radius,
                              std::span<const graph::NodeId> transmitters,
                              const std::vector<char>& is_tx,
                              bool half_duplex) {
  CollectSink expected;
  const auto& pts = topo.positions();
  const double r2 = radius * radius;
  for (graph::NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (half_duplex && is_tx[v]) continue;
    std::uint32_t hits = 0;
    graph::NodeId sender = 0;
    for (const graph::NodeId t : transmitters) {
      if (t == v) continue;
      const double dx = pts[v].x - pts[t].x;
      const double dy = pts[v].y - pts[t].y;
      if (dx * dx + dy * dy > r2) continue;
      sender = t;
      ++hits;
    }
    if (hits == 1)
      expected.deliveries.emplace_back(v, sender);
    else if (hits >= 2)
      expected.collisions.push_back(v);
  }
  return expected;
}

/// Runs `rounds` rounds of `spec` under every SIMD dispatch mode and both
/// duplex settings, delivering round r's transmitter set `tx_of(r)`, and
/// asserts each round's events equal the brute-force oracle's. The
/// vectorised distance-mask scan keeps comparisons in the exact
/// double-precision form of the scalar sweep, so both modes must match
/// event-for-event.
void expect_sweep_matches_brute_force(
    const ImplicitRgg& spec, std::uint32_t rounds,
    const std::function<std::vector<graph::NodeId>(std::uint32_t)>& tx_of) {
  const simd::Mode mode_before = simd::active_mode();
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAvx2}) {
    if (mode == simd::Mode::kAvx2 && !simd::cpu_has_avx2()) continue;
    simd::set_mode(mode);
    for (const bool half_duplex : {true, false}) {
      ImplicitRggTopology topo(spec);
      std::vector<char> is_tx(spec.n, 0);
      for (std::uint32_t round = 0; round < rounds; ++round) {
        topo.begin_round(round);
        const std::vector<graph::NodeId> tx = tx_of(round);
        for (const graph::NodeId t : tx) is_tx[t] = 1;

        CollectSink got;
        topo.deliver({tx.data(), tx.size()}, is_tx, half_duplex,
                     DeliveryPath::kAuto, std::nullopt,
                     /*collisions_inert=*/false, got);
        const CollectSink expected =
            brute_force_round(topo, spec.radius, {tx.data(), tx.size()},
                              is_tx, half_duplex);
        ASSERT_EQ(got.deliveries, expected.deliveries)
            << "round " << round << " half_duplex " << half_duplex
            << " mode " << simd::mode_name(mode);
        ASSERT_EQ(got.collisions, expected.collisions)
            << "round " << round << " half_duplex " << half_duplex
            << " mode " << simd::mode_name(mode);
        EXPECT_EQ(got.bulk_deliveries, 0u);
        EXPECT_EQ(got.bulk_collisions, 0u);

        for (const graph::NodeId t : tx) is_tx[t] = 0;
      }
    }
  }
  simd::set_mode(mode_before);
}

TEST(ImplicitRggGeometry, CellGridSweepMatchesBruteForce) {
  const graph::NodeId n = 700;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  // A deterministic transmitter set that varies per round and includes
  // clustered ids (adjacent ids are geometrically unrelated, but cell
  // collisions among transmitters are what the early-exit must handle).
  expect_sweep_matches_brute_force(
      ImplicitRgg{n, radius, radius / 6.0, Rng(0x9e0)}, 24,
      [n](std::uint32_t round) {
        std::vector<graph::NodeId> tx;
        for (graph::NodeId v = round % 5; v < n; v += 3 + (round % 11))
          tx.push_back(v);
        return tx;
      });
}

TEST(ImplicitRggGeometry, CellGridSweepMatchesBruteForceAtGridEdges) {
  // Grids so small that the 3x3 neighbourhood clamps at both edges of an
  // axis, so a row span covers one or two cells rather than three (sides
  // 1, 2 and 3), and a grid held at the 2n-cell cap by a radius far below
  // the connectivity threshold (cells wider than the radius). Transmitter
  // sets run from a single sender to every node.
  struct Case {
    graph::NodeId n;
    double radius;
    std::uint32_t cells;
  };
  const Case cases[] = {
      {90, 0.7, 1},
      {90, 0.45, 2},
      {120, 0.3, 3},
      {400, 0.03, 29},  // 1 / 0.03 = 33 > ceil(sqrt(2 * 400)) = 29
  };
  for (const Case& c : cases) {
    const ImplicitRgg spec{c.n, c.radius, c.radius / 4.0, Rng(0xED6E + c.n)};
    ASSERT_EQ(ImplicitRggTopology(spec).grid_cells(), c.cells)
        << "radius " << c.radius;
    const graph::NodeId n = c.n;
    const graph::NodeId strides[] = {n, n / 2, n / 3, 17, 5, 2, 1};
    SCOPED_TRACE(::testing::Message() << "cells " << c.cells);
    expect_sweep_matches_brute_force(
        spec, static_cast<std::uint32_t>(std::size(strides)),
        [n, &strides](std::uint32_t round) {
          std::vector<graph::NodeId> tx;
          for (graph::NodeId v = round % 3; v < n; v += strides[round])
            tx.push_back(v);
          return tx;
        });
  }
}

TEST(ImplicitRggGeometry, AttentiveHintFoldsExactly) {
  // With an attentive hint, deliveries outside the hint fold into bulk
  // counts (and collisions into bulk when inert) — the per-event stream
  // restricted to the hint plus the bulk totals must reproduce the
  // unhinted round exactly.
  const graph::NodeId n = 600;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  ImplicitRggTopology topo(ImplicitRgg{n, radius, radius / 8.0, Rng(0x7a1)});
  std::vector<char> is_tx(n, 0);
  std::vector<graph::NodeId> tx;
  for (graph::NodeId v = 0; v < n; v += 7) tx.push_back(v);
  for (const graph::NodeId t : tx) is_tx[t] = 1;
  std::vector<graph::NodeId> attentive;  // every third node is attentive
  for (graph::NodeId v = 0; v < n; v += 3) attentive.push_back(v);
  std::vector<char> is_attentive(n, 0);
  for (const graph::NodeId v : attentive) is_attentive[v] = 1;

  topo.begin_round(0);
  CollectSink full;
  topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/true,
               DeliveryPath::kAuto, std::nullopt, false, full);

  CollectSink hinted;
  topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/true,
               DeliveryPath::kAuto,
               std::optional<std::span<const graph::NodeId>>(
                   {attentive.data(), attentive.size()}),
               /*collisions_inert=*/true, hinted);

  std::vector<std::pair<graph::NodeId, graph::NodeId>> expected_events;
  std::uint64_t expected_bulk = 0;
  for (const auto& [recv, sender] : full.deliveries) {
    if (is_attentive[recv])
      expected_events.emplace_back(recv, sender);
    else
      ++expected_bulk;
  }
  EXPECT_EQ(hinted.deliveries, expected_events);
  EXPECT_EQ(hinted.bulk_deliveries, expected_bulk);
  EXPECT_TRUE(hinted.collisions.empty());
  EXPECT_EQ(hinted.bulk_collisions, full.collisions.size());
}

TEST(ImplicitRggGeometry, MotionStaysInUnitSquareAndParksAtStepZero) {
  const graph::NodeId n = 256;
  ImplicitRggTopology moving(ImplicitRgg{n, 0.2, 0.15, Rng(3)});
  moving.begin_round(50);
  for (const auto& pt : moving.positions()) {
    EXPECT_GE(pt.x, 0.0);
    EXPECT_LE(pt.x, 1.0);
    EXPECT_GE(pt.y, 0.0);
    EXPECT_LE(pt.y, 1.0);
  }

  ImplicitRggTopology parked(ImplicitRgg{n, 0.2, 0.0, Rng(3)});
  const std::vector<graph::Point> initial = parked.positions();
  parked.begin_round(50);
  for (graph::NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(parked.positions()[v].x, initial[v].x);
    EXPECT_EQ(parked.positions()[v].y, initial[v].y);
  }
}

TEST(ImplicitRggGeometry, SameSpecReplaysIdentically) {
  const graph::NodeId n = 4096;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  const double p = 3.14159265358979 * radius * radius;
  const auto run_once = [&] {
    Engine engine;
    RunOptions options;
    options.max_rounds = 512;
    options.record_trace = true;
    GossipRumorMarginalProtocol proto(GossipRumorMarginalParams{.p = p});
    return engine.run(ImplicitRgg{n, radius, radius / 8.0, Rng(0xabc)}, proto,
                      Rng(5), options);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Sharded-bucketing oracle: the parallel counting sort vs first principles.

TEST(ImplicitRggGeometry, ShardedBucketingMatchesSerialCountingSort) {
  // The transmitter bucketing shards into per-chunk local counting sorts
  // whose runs merge into the shared grid in cell order. The contract it
  // must keep for the sweep to stay byte-identical: every cell's entry
  // list equals the serial counting sort's — the transmitters of that
  // cell *in global transmitter-list order* — the segments follow cell
  // order with no gaps (the sweep scans row spans), and a cell is stamped
  // iff some transmitter occupies its 3x3 neighbourhood. The phase draws no
  // randomness, so the bucket layout must also be independent of the
  // chunk *granularity*, not just the schedule; this sweeps both, with
  // chunk widths straddling every boundary case (one chunk for all, many
  // tiny chunks, a prime width, a width that leaves a short tail chunk).
  const graph::NodeId n = 3000;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  ImplicitRggTopology topo(ImplicitRgg{n, radius, radius / 5.0, Rng(0xB0CC)});
  const std::uint32_t dim = topo.grid_cells();
  const std::size_t grid = static_cast<std::size_t>(dim) * dim;

  for (std::uint32_t round = 0; round < 4; ++round) {
    topo.begin_round(round);
    // Transmitter sets from sparse (k = 3) through dense (k = n) — dense
    // rounds force many transmitters per cell and cells split across
    // chunk boundaries (the merge's concatenation case).
    std::vector<graph::NodeId> tx;
    const graph::NodeId stride = round == 0 ? n / 3 : (round == 1 ? 17 : 1);
    for (graph::NodeId v = round % 3; v < n; v += stride) tx.push_back(v);
    const auto k = static_cast<graph::NodeId>(tx.size());

    // The serial counting sort, from first principles.
    std::vector<std::vector<graph::NodeId>> expected(grid);
    for (const graph::NodeId t : tx) expected[topo.cell_of(t)].push_back(t);
    std::vector<char> stamped(grid, 0);
    for (std::size_t cell = 0; cell < grid; ++cell) {
      if (expected[cell].empty()) continue;
      const auto cx = static_cast<std::int64_t>(cell % dim);
      const auto cy = static_cast<std::int64_t>(cell / dim);
      for (std::int64_t dy = -1; dy <= 1; ++dy)
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
          const std::int64_t nx = cx + dx, ny = cy + dy;
          if (nx < 0 || ny < 0 || nx >= dim || ny >= dim) continue;
          stamped[static_cast<std::size_t>(ny) * dim + nx] = 1;
        }
    }

    const graph::NodeId widths[] = {0, 64, 257, 1024, k + 7};
    for (const graph::NodeId width : widths) {
      topo.set_bucket_chunk(width);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr),
                               resolve_pool(0)}) {
        topo.set_parallelism(pool);
        topo.bucket_for_test({tx.data(), tx.size()});
        const graph::NodeId* next = topo.cell_entries(0).data();
        for (std::size_t cell = 0; cell < grid; ++cell) {
          const std::span<const graph::NodeId> got =
              topo.cell_entries(static_cast<std::uint32_t>(cell));
          // Cell-ordered layout: each segment starts where the previous
          // cell's ends, so a grid row's cells form one contiguous span.
          ASSERT_EQ(got.data(), next)
              << "round " << round << " k " << k << " width " << width
              << " pool " << (pool != nullptr) << " cell " << cell;
          next = got.data() + got.size();
          ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                 expected[cell].begin(),
                                 expected[cell].end()))
              << "round " << round << " k " << k << " width " << width
              << " pool " << (pool != nullptr) << " cell " << cell;
          ASSERT_EQ(topo.cell_stamped(static_cast<std::uint32_t>(cell)),
                    stamped[cell] != 0)
              << "round " << round << " k " << k << " width " << width
              << " pool " << (pool != nullptr) << " cell " << cell;
        }
        topo.unbucket_for_test();
      }
    }
    topo.set_bucket_chunk(0);
    topo.set_parallelism(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Statistical oracle: paired runs against the explicit MobilityRgg.

class RggOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Repeated-transmitter gossip — the regime where the G(n,p) sampling
// backends are merely *modelled* — must be indistinguishable from the
// explicit oracle here: the RGG backend's delivery is deterministic
// geometry, so there is no repeated-examination caveat at all.
TEST_P(RggOracle, GossipMarginalExactForRepeatedTransmitters) {
  const std::uint64_t seed = GetParam();
  const graph::NodeId n = 256;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  const double step = radius / 8.0;
  const double p = 3.14159265358979 * radius * radius;  // d = pi r^2 n
  const std::uint32_t trials = stat_trials(24);
  GossipRumorMarginalProtocol probe(GossipRumorMarginalParams{.p = p});
  probe.reset(n, Rng(0));

  const auto runs = run_paired(
      n, radius, step, seed, trials,
      [p] {
        return std::make_unique<GossipRumorMarginalProtocol>(
            GossipRumorMarginalParams{.p = p});
      },
      probe.round_budget());
  const auto& imp = runs.implicit_rgg;
  const auto& exp = runs.explicit_rgg;
  ASSERT_EQ(imp.success_rate(), 1.0) << "seed " << seed;
  ASSERT_EQ(exp.success_rate(), 1.0) << "seed " << seed;

  const auto ks_rounds = ks_two_sample(imp.rounds_sample().values(),
                                       exp.rounds_sample().values(), kAlpha);
  EXPECT_TRUE(ks_rounds.pass())
      << ks_rounds.describe("gossip rounds, seed " + std::to_string(seed));
  const auto ks_del =
      ks_two_sample(deliveries_of(imp), deliveries_of(exp), kAlpha);
  EXPECT_TRUE(ks_del.pass())
      << ks_del.describe("gossip deliveries, seed " + std::to_string(seed));
  const auto chi_tx = chi_square_two_sample(imp.total_tx_sample().values(),
                                            exp.total_tx_sample().values(), 8,
                                            kAlpha);
  EXPECT_TRUE(chi_tx.pass())
      << chi_tx.describe("gossip transmissions, seed " + std::to_string(seed));
  const auto chi_col =
      chi_square_two_sample(collisions_of(imp), collisions_of(exp), 8, kAlpha);
  EXPECT_TRUE(chi_col.pass())
      << chi_col.describe("gossip collisions, seed " + std::to_string(seed));
}

// Algorithm 1 on a mobile RGG: the protocol is tuned for G(n,p), so
// success sits mid-distribution — both backends must agree on the success
// probability and on the ledger distributions (success itself carries the
// distributional information here; no floor is asserted).
TEST_P(RggOracle, Alg1LedgerMatchesExplicitOracle) {
  const std::uint64_t seed = GetParam();
  const graph::NodeId n = 256;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  const double step = radius / 8.0;
  const double p = 3.14159265358979 * radius * radius;
  const std::uint32_t trials = stat_trials(24);

  const auto runs = run_paired(
      n, radius, step, seed, trials,
      [p] {
        return std::make_unique<BroadcastRandomProtocol>(
            BroadcastRandomParams{.p = p});
      },
      // Both backends censor at the same horizon (alg1 completes within
      // ~60 rounds when it completes; failed trials pay the full budget on
      // the explicit oracle's O(n + m) rebuilds, so keep it tight).
      /*max_rounds=*/160);
  const auto& imp = runs.implicit_rgg;
  const auto& exp = runs.explicit_rgg;
  EXPECT_NEAR(imp.success_rate(), exp.success_rate(), 0.3);

  const auto ks_del =
      ks_two_sample(deliveries_of(imp), deliveries_of(exp), kAlpha);
  EXPECT_TRUE(ks_del.pass())
      << ks_del.describe("alg1 deliveries, seed " + std::to_string(seed));
  const auto ks_tx = ks_two_sample(imp.total_tx_sample().values(),
                                   exp.total_tx_sample().values(), kAlpha);
  EXPECT_TRUE(ks_tx.pass())
      << ks_tx.describe("alg1 transmissions, seed " + std::to_string(seed));
  // Theorem 2.1's at-most-one-transmission property is topology-free and
  // must hold on both backends.
  EXPECT_LE(imp.max_tx_sample().max(), 1.0);
  EXPECT_LE(exp.max_tx_sample().max(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(BySeed, RggOracle,
                         ::testing::Values(0xAull, 0xBull, 0xCull));

}  // namespace
}  // namespace radnet::sim
