// Allocation-bound regression for the chunk-sharded per-round phases.
//
// The sharded sketch phases (implicit_dynamic.hpp: sender-chunked gather,
// group-chunked classify) and the sharded RGG transmitter bucketing
// (implicit_rgg.hpp) keep all per-(round, chunk) scratch in reusable
// member buffers, and every pool fan-out goes through run_chunked, which
// hands the body to ThreadPool::parallel_for_index through std::cref so
// the std::function stays in its inline storage. The consequence pinned
// here: once warmed up, steady-state
// rounds of both phases perform *zero* heap allocations, with a live
// multi-chunk decomposition on the real global pool. The global
// operator new below counts every allocation in the process (worker
// threads included), so a regression anywhere in the phase machinery — a
// by-value capture that spills std::function to the heap, per-round
// scratch reconstruction, a merge buffer rebuilt per call — fails loudly.
//
// Scenario notes. The dynamic run saturates the sketch during a sampling
// warm-up, then drops the density schedule to p = 0: delivery then skips
// the sampling sweep entirely but still runs gather + classify over the
// live sketch (tracking stays on, draws still consumed), so the counted
// rounds exercise exactly the two sharded sketch phases. The RGG run
// parks the motion process (step = 0) and drives just the bucketing phase
// through its test hook — the counted work is the parallel counting sort
// plus the cell-ordered merge and scatter, nothing else. The in-block
// run is a whole untraced Algorithm 1 trial on the pool: receiver-local
// deliveries are applied inside the sweep blocks and BroadcastState
// commits in place, so once the per-block scratch has seen the heaviest
// rounds no round allocates at all. The CSR run forces the pooled counter
// path (transmitter-chunk scatter, then the listener-block gather), and
// the failure run draws the dynamic backend's per-block failures on the
// pool. Both fan-out bodies capture more than std::function's inline
// storage holds, so each round allocates unless they reach the pool
// through std::cref.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/broadcast_random.hpp"
#include "graph/generators.hpp"
#include "shard_invariance.hpp"
#include "sim/engine.hpp"
#include "support/thread_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Out-of-line on purpose: with the free() visible at the delete site, GCC
// pairs it against the replaced operator new and emits
// -Wmismatched-new-delete (the pairing is fine — every new below is
// malloc-family — but the warning is not suppressible per-pair).
[[gnu::noinline]] void counted_free(void* ptr) { std::free(ptr); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto al = static_cast<std::size_t>(align);
  const std::size_t padded = (size + al - 1) / al * al;
  if (void* ptr = std::aligned_alloc(al, padded == 0 ? al : padded))
    return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}

namespace radnet::sim {
namespace {

struct CountSink {
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t bulk = 0;

  void deliver(graph::NodeId, graph::NodeId) { ++deliveries; }
  void collide(graph::NodeId) { ++collisions; }
  void deliver_bulk(std::uint64_t count) { bulk += count; }
  void collide_bulk(std::uint64_t count) { bulk += count; }
};

TEST(ShardScratch, DynamicSketchPhasesSteadyStateAllocFree) {
  const graph::NodeId n = 8192;
  const graph::NodeId k = 2560;  // 3 gather chunks at kSketchChunkSize=1024
  const double p0 = 1.5 / static_cast<double>(k);
  constexpr std::uint32_t kSamplingRounds = 16;

  ImplicitDynamicGnp spec;
  spec.n = n;
  spec.p = p0;
  spec.churn = 0.05;  // slow decay: the sketch stays live for the window
  spec.sketch_capacity = 16384;
  spec.rng = Rng(0x5C4A7C4);
  // Sampling warm-up fills the sketch to capacity; afterwards p = 0 skips
  // the sampling sweep, leaving exactly the sharded gather + classify
  // phases as the round's work.
  spec.p_of_round = [p0](std::uint32_t round) {
    return round < kSamplingRounds ? p0 : 0.0;
  };
  ImplicitDynamicGnpTopology topo(spec);
  topo.set_parallelism(resolve_pool(0));

  std::vector<graph::NodeId> tx(k);
  for (graph::NodeId v = 0; v < k; ++v) tx[v] = v;
  std::vector<char> is_tx(n, 0);
  for (const graph::NodeId t : tx) is_tx[t] = 1;

  CountSink sink;
  const auto run_round = [&](std::uint32_t round) {
    topo.begin_round(round);
    topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                 DeliveryPath::kAuto, std::nullopt,
                 /*collisions_inert=*/false, sink);
  };

  // Warm up: fill the sketch, then let four p = 0 rounds high-water the
  // per-chunk scratch under the counted regime's workload shape.
  for (std::uint32_t round = 0; round < kSamplingRounds + 4; ++round)
    run_round(round);
  ASSERT_GT(topo.sketch_size(), 4096u)
      << "warm-up failed to populate the sketch; the counted rounds would "
         "not exercise the sharded phases";

  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t round = kSamplingRounds + 4; round < kSamplingRounds + 12;
       ++round)
    run_round(round);
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "steady-state gather/classify rounds allocated " << during
      << " times; per-(round, chunk) scratch is being rebuilt";
  EXPECT_GT(topo.sketch_size(), 1024u);  // the phases still had real work
  EXPECT_GT(sink.deliveries, 0u);
}

TEST(ShardScratch, DynamicStaleSweepRoundsAllocFree) {
  // Churn 0.5 puts the stale horizon at 40 rounds. One sampling round
  // fills the sketch with round-0 entries of every sender; from then on
  // p = 0. Round 37 (warm-up) gathers group A's chains, round 38 (counted)
  // group T's — half as many senders, so the warm-up high-waters every
  // gather, radix-sort and classify buffer. Round 41 (counted) is the
  // first the sweep may run in, and every entry left is stale by then.
  const graph::NodeId n = 8192;
  constexpr graph::NodeId kGroupT = 512, kGroupA = 1024;
  const double p0 = 1.5 / static_cast<double>(n);

  ImplicitDynamicGnp spec;
  spec.n = n;
  spec.p = p0;
  spec.churn = 0.5;
  spec.sketch_capacity = 2048;  // sweeps once 1536 entries are live
  spec.rng = Rng(0x57A1E);
  spec.p_of_round = [p0](std::uint32_t round) {
    return round == 0 ? p0 : 0.0;
  };
  ImplicitDynamicGnpTopology topo(spec);
  topo.set_parallelism(resolve_pool(0));

  std::vector<graph::NodeId> all(n);
  for (graph::NodeId v = 0; v < n; ++v) all[v] = v;
  const std::span<const graph::NodeId> group_t{all.data(), kGroupT};
  const std::span<const graph::NodeId> group_a{all.data() + kGroupT, kGroupA};
  std::vector<char> is_tx(n, 0);
  CountSink sink;
  const auto run_round = [&](std::uint32_t round,
                             std::span<const graph::NodeId> tx) {
    for (const graph::NodeId v : tx) is_tx[v] = 1;
    topo.begin_round(round);
    topo.deliver(tx, is_tx, /*half_duplex=*/false, DeliveryPath::kAuto,
                 std::nullopt, /*collisions_inert=*/false, sink);
    for (const graph::NodeId v : tx) is_tx[v] = 0;
  };

  run_round(0, all);
  ASSERT_EQ(topo.sketch_size(), 2048u) << "round 0 did not fill the sketch";
  for (std::uint32_t round = 1; round < 37; ++round) run_round(round, {});
  run_round(37, group_a);
  const std::size_t before_t = topo.sketch_size();

  std::size_t after_t = 0, before_sweep = 0;
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t round = 38; round < 46; ++round) {
    if (round == 41) before_sweep = topo.sketch_size();
    run_round(round, group_t);
    if (round == 38) after_t = topo.sketch_size();
  }
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "counted rounds (gather + radix sort, stale sweep) allocated "
      << during << " times";
  // The counted work was real: round 38 gathered and sorted T's entries,
  // and round 41 swept with the pool past its watermark.
  EXPECT_LT(after_t, before_t);
  EXPECT_GE(before_sweep, 1536u);
  EXPECT_EQ(topo.sketch_size(), 0u) << "the stale sweep did not run";
}

TEST(ShardScratch, DynamicFullSketchSamplingRoundsAllocFree) {
  // Sampling rounds at churn 0.5 with the sketch at capacity, as in a long
  // gossip run: every round the gather drops about half of the entries
  // (their pairs re-sample absent), and the sweep's records, replayed
  // through the pooled block merge (two listener blocks) into the reused
  // round buffer, refill the freed room and overflow the rest. Every
  // sender transmits every round, so each round moves every run to the
  // arena tail and the counted rounds compact the arena too.
  const graph::NodeId n = 2u << 16;
  const graph::NodeId k = 2048;  // 2 gather chunks at kSketchChunkSize=1024
  constexpr std::uint32_t kCapacity = 16 * 4096 + 1000;

  ImplicitDynamicGnp spec;
  spec.n = n;
  spec.p = 1.0 / k;  // ~n/e clean deliveries, so ~48K records a round
  spec.churn = 0.5;
  spec.sketch_capacity = kCapacity;
  spec.rng = Rng(0xF011);
  ImplicitDynamicGnpTopology topo(spec);
  topo.set_parallelism(resolve_pool(0));

  std::vector<graph::NodeId> tx(k);
  for (graph::NodeId v = 0; v < k; ++v) tx[v] = v * (n / k);
  std::vector<char> is_tx(n, 0);
  for (const graph::NodeId t : tx) is_tx[t] = 1;

  CountSink sink;
  const auto run_round = [&](std::uint32_t round) {
    topo.begin_round(round);
    topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                 DeliveryPath::kAuto, std::nullopt,
                 /*collisions_inert=*/false, sink);
  };

  // Warm up: fill the sketch, then high-water every per-block and
  // per-chunk buffer under the full-sketch workload.
  for (std::uint32_t round = 0; round < 12; ++round) run_round(round);
  ASSERT_EQ(topo.sketch_size(), kCapacity) << "warm-up did not fill the sketch";

  const std::uint64_t deliveries_before = sink.deliveries;
  const std::uint64_t compactions_before = topo.sketch_compactions();
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t round = 12; round < 20; ++round) {
    run_round(round);
    ASSERT_EQ(topo.sketch_size(), kCapacity) << "round " << round;
  }
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "full-sketch sampling rounds allocated " << during
      << " times; the round's inserts or the record merge are allocating";
  EXPECT_GT(sink.deliveries - deliveries_before, 8u * n / 4);
  EXPECT_GT(topo.sketch_compactions(), compactions_before)
      << "no counted round compacted the sketch arena";
}

TEST(ShardScratch, RggBucketingSteadyStateAllocFree) {
  const graph::NodeId n = 8192;
  const double radius = graph::rgg_threshold_radius(n, 4.0);
  // step = 0 parks the motion process: identical occupancy every round, so
  // every scratch buffer's high-water mark is hit on the first pass.
  ImplicitRggTopology topo(ImplicitRgg{n, radius, 0.0, Rng(0xB0C5C)});
  topo.begin_round(0);
  topo.set_parallelism(resolve_pool(0));
  topo.set_bucket_chunk(512);  // 8 chunks over k = 4096 transmitters

  std::vector<graph::NodeId> tx;
  for (graph::NodeId v = 0; v < n; v += 2) tx.push_back(v);

  for (int warm = 0; warm < 2; ++warm) {
    topo.bucket_for_test({tx.data(), tx.size()});
    topo.unbucket_for_test();
  }

  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 8; ++round) {
    topo.bucket_for_test({tx.data(), tx.size()});
    topo.unbucket_for_test();
  }
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u)
      << "steady-state bucketing rounds allocated " << during
      << " times; per-chunk scratch is being rebuilt";

  // The counted work was real: bucket once more and check the grid.
  topo.bucket_for_test({tx.data(), tx.size()});
  std::uint64_t bucketed = 0;
  const std::uint32_t dim = topo.grid_cells();
  for (std::uint32_t cell = 0; cell < dim * dim; ++cell)
    bucketed += topo.cell_entries(cell).size();
  EXPECT_EQ(bucketed, tx.size());
  topo.unbucket_for_test();
  topo.set_bucket_chunk(0);
}

TEST(ShardScratch, CsrPooledCounterPathRoundsAllocFree) {
  const graph::NodeId n = 1u << 15;  // 16 listener blocks at 5-wide
  Rng grng(0xC5A11);
  const graph::Digraph g = graph::gnp_directed(n, 16.0 / n, grng);
  CsrTopology topo(g);
  topo.set_parallelism(resolve_pool(4));

  // k = 4096 transmitters of mean degree 16: the edge load clears
  // CsrDelivery::kMinParallelRoundWork, so every round scatters and
  // gathers on the pool.
  std::vector<graph::NodeId> tx;
  for (graph::NodeId v = 0; v < n; v += 8) tx.push_back(v);
  std::vector<char> is_tx(n, 0);
  for (const graph::NodeId t : tx) is_tx[t] = 1;

  CountSink sink;
  const auto run_round = [&] {
    topo.begin_round(0);
    topo.deliver({tx.data(), tx.size()}, is_tx, /*half_duplex=*/false,
                 DeliveryPath::kSortedTouch, std::nullopt,
                 /*collisions_inert=*/false, sink);
  };
  for (int warm = 0; warm < 2; ++warm) run_round();

  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 8; ++round) run_round();
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u) << "steady-state pooled counter-path rounds "
                           "allocated " << during << " times";
  EXPECT_GT(sink.deliveries, 0u);
  EXPECT_GT(sink.collisions, 0u);
}

TEST(ShardScratch, DynamicFailureInjectionAllocFree) {
  ImplicitDynamicGnp spec;
  spec.n = 1u << 18;  // four failure blocks
  spec.p = 8.0 / spec.n;
  spec.fail_prob = 1e-4;  // ~26 failures per round
  spec.rng = Rng(0xFA11);
  ImplicitDynamicGnpTopology topo(spec);
  topo.set_parallelism(resolve_pool(4));
  topo.begin_round(0);  // sizes the per-block failure counts

  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t round = 1; round <= 8; ++round) topo.begin_round(round);
  const std::uint64_t during = g_allocations.load() - before;

  EXPECT_EQ(during, 0u) << "steady-state failure draws allocated " << during
                        << " times";
  EXPECT_GT(topo.failed_count(), 100u) << "too few failures drawn";
}

/// Declares receiver-local deliveries (like Algorithm 1 itself) and counts
/// the ones that arrive on a thread other than the engine's — proof that
/// the in-block path ran.
class InBlockProbe final : public shard_test::ForwardingProtocol {
 public:
  explicit InBlockProbe(Protocol& inner)
      : ForwardingProtocol(inner), owner_(std::this_thread::get_id()) {}

  [[nodiscard]] bool deliveries_receiver_local() const override {
    return true;
  }
  void on_delivered(NodeId receiver, NodeId sender, Round r) override {
    if (std::this_thread::get_id() != owner_)
      off_thread_.fetch_add(1, std::memory_order_relaxed);
    ForwardingProtocol::on_delivered(receiver, sender, r);
  }
  [[nodiscard]] std::uint64_t off_thread() const { return off_thread_.load(); }

 private:
  std::thread::id owner_;
  std::atomic<std::uint64_t> off_thread_{0};
};

TEST(ShardScratch, InBlockDeliveryRoundsAllocFree) {
  const graph::NodeId n = 3u << 16;  // three sweep blocks
  const double p = 8.0 * std::log(n) / n;
  core::BroadcastRandomProtocol alg1(core::BroadcastRandomParams{.p = p});
  InBlockProbe probe(alg1);
  constexpr Round kMaxRounds = 64;
  // Phases 1-2 and the first multi-chunk attentive round (round 5 here)
  // size the per-block scratch; every later round must reuse it.
  constexpr Round kWarmRounds = 6;
  std::vector<std::uint64_t> after_round;
  after_round.reserve(kMaxRounds);
  RunOptions options;
  options.max_rounds = kMaxRounds;
  options.threads = 4;
  options.round_observer = [&](Round) {
    after_round.push_back(g_allocations.load());
  };
  Engine engine;
  const RunResult result =
      engine.run(ImplicitGnp{n, p, Rng(0xA110C)}, probe, Rng(3), options);
  ASSERT_TRUE(result.completed);
  ASSERT_GT(after_round.size(), kWarmRounds + 8u)
      << "too few steady-state rounds to count";
  EXPECT_GT(probe.off_thread(), 0u) << "no delivery ran inside a pool block";
  for (std::size_t r = kWarmRounds + 1; r < after_round.size(); ++r)
    EXPECT_EQ(after_round[r] - after_round[r - 1], 0u)
        << "round " << r << " allocated on the in-block path";
}

}  // namespace
}  // namespace radnet::sim
