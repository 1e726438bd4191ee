// The implicit mobility-RGG backend: random-walk mobility over a random
// geometric graph, with the graph never materialised. This is the
// graph-free counterpart of graph::MobilityRgg — the same process law (n
// devices uniform in the unit square, an independent uniform step of
// length at most `step` per round reflected at the borders, symmetric
// links within `radius`) — realised as O(n) position state plus a
// per-round cell grid instead of an O(m) edge list rebuilt every round.
//
// Exactness contract: *exact in distribution for every protocol.* Unlike
// the G(n,p) sampling backends, delivery here involves no randomness at
// all — given the round's positions, listener v hears transmitter t iff
// their distance is within `radius`, deterministically — so the only
// random state is the motion process itself, which this backend simulates
// faithfully (same initial law, same per-round step law as
// graph::MobilityRgg). There is no repeated-transmitter caveat and no
// modelled regime: a run differs from the explicit oracle only in *which*
// uniforms the motion draws consume (counter-keyed streams here,
// one sequential stream there), i.e. bit-level, never in law.
// tests/sim/rgg_topology_equivalence_test.cpp pins this with KS checks
// against the explicit MobilityRgg oracle and with a brute-force
// O(n·k) geometry cross-check of single rounds.
//
// Cell-grid delivery: positions bucket into a square grid of side >=
// `radius` (cells_ per axis, capped so the grid never exceeds 2n cells).
// A listener's potential transmitters all lie in its own cell or the 8
// surrounding ones. The transmitter CSR is laid out in cell order, so the
// three cells of one row of that 3x3 neighbourhood are one contiguous
// span, and a listener scans three spans. One round costs
//   O(n)                 movement (2 uniforms per node)
// + O(k + cells)         bucket the k transmitters (sharded per transmitter
//                        chunk, plus one serial exclusive scan over the
//                        whole grid — see bucket_transmitters)
// + O(n + sum over listeners of the 3 row spans' transmitter counts,
//                        early-exiting at the second hit — a collision
//                        needs no exact count)
// with zero graph memory: state is 16 B per node (positions) plus one
// 4 B CSR start per cell. A listener whose neighbourhood holds no
// transmitter reads three empty spans.
//
// StreamKey keying scheme (support/rng.hpp): the backend's root key forks
// one lane per round — round r's movement draws come from
// key.fork(r).fork(block) — plus the reserved kInitLane (>= 2^32, so it
// can never collide with a round counter) for the initial placement. A
// node's step is therefore a pure function of (spec seed, round, block),
// never of thread schedule or draw order, so the sharded movement sweep
// is bit-identical at any thread count. The delivery sweep draws no
// randomness at all and shards over the same fixed kShardBlockSize
// listener blocks through the one block fan-out of sim/sharding.hpp
// (BlockSweep): blocks run in any order, buffers merge serially in
// ascending listener order, and the engine sink observes exactly the
// event sequence a serial sweep would have produced (the block-merge
// ordering invariant). The transmitter bucketing is sharded too, under
// the per-chunk merge contract: each transmitter chunk counting-sorts
// locally, a serial scan over the grid lays out the shared cell-ordered
// CSR, and the chunks scatter into disjoint reserved slots — RNG-free, so
// the bucket contents the sweep sees are byte-identical at any thread
// count *and* any chunk granularity (the bucketing oracle test sweeps
// both).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "sim/sharding.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

/// Parameters of an implicit (never materialised) mobility RGG: n devices
/// in the unit square, uniform step of length at most `step` per round
/// (reflected at the borders), symmetric links within `radius` — the same
/// model as graph::MobilityRgg, graph-free. `rng` is the private motion
/// randomness; a run consumes a copy, so the same spec replays identically.
struct ImplicitRgg {
  NodeId n = 0;
  double radius = 0.0;
  double step = 0.0;
  Rng rng{};
};

/// The implicit mobility-RGG backend. See the file comment for the model,
/// the exactness contract and the cell-grid round cost.
class ImplicitRggTopology {
 public:
  /// Listeners (and movers) per shard block. Fixed — part of the motion
  /// randomness contract: results depend on the block decomposition,
  /// never on thread count.
  static constexpr NodeId kShardBlockSize = detail::kShardBlockSize;

  /// Reserved fork counter for the initial placement draws. Round
  /// counters stay below 2^32, so this lane can never collide with a
  /// round's movement key.
  static constexpr std::uint64_t kInitLane = 0x1'0000'0003ull;

  /// Default transmitter-chunk width of the sharded bucketing phase. Not
  /// part of any randomness contract — bucketing draws no RNG and the
  /// cell-ordered layout makes the bucket contents provably independent
  /// of the decomposition — so it is free to change (and overridable
  /// below).
  static constexpr NodeId kTxChunkSize = 4096;

  explicit ImplicitRggTopology(const ImplicitRgg& spec)
      : n_(spec.n), radius_(spec.radius), step_(spec.step) {
    RADNET_REQUIRE(spec.n >= 1, "implicit RGG needs n >= 1");
    RADNET_REQUIRE(spec.radius > 0.0 && spec.radius <= 1.5,
                   "radius must be in (0, 1.5]");
    RADNET_REQUIRE(spec.step >= 0.0 && spec.step <= 1.0,
                   "step must be in [0,1]");
    key_ = StreamKey::from_rng(spec.rng);
    r2_ = radius_ * radius_;
    // Cell side >= radius keeps the 3x3 neighbourhood sufficient; the cap
    // keeps grid scratch O(n) even for radii far below the connectivity
    // threshold (larger cells are still correct, just scan more pairs).
    const auto from_radius = static_cast<std::uint64_t>(1.0 / radius_);
    const auto cap = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(2.0 * static_cast<double>(n_))));
    cells_ = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, std::min(from_radius, std::max<std::uint64_t>(1, cap))));
    cell_size_ = 1.0 / static_cast<double>(cells_);
    const std::size_t grid = static_cast<std::size_t>(cells_) * cells_;
    cell_start_.assign(grid + 1, 0);
    pts_.resize(n_);
    init_positions();
  }

  [[nodiscard]] NodeId num_nodes() const { return n_; }

  /// The current round's positions (for tests and geometry oracles); valid
  /// after begin_round(r) for round r.
  [[nodiscard]] const std::vector<graph::Point>& positions() const {
    return pts_;
  }

  /// Serial blocks when null (the default); sharded movement, transmitter
  /// bucketing and delivery sweeps on `pool` otherwise. Either way the
  /// output is bit-identical.
  void set_parallelism(ThreadPool* pool) { pool_ = pool; }

  /// Forces the transmitter-chunk width of the sharded bucketing phase
  /// (0 restores the default). A test/bench knob, never an observable
  /// one: the bucketing oracle in
  /// tests/sim/rgg_topology_equivalence_test.cpp sweeps granularities ×
  /// schedules and asserts identical cell contents throughout.
  void set_bucket_chunk(NodeId width) {
    bucket_chunk_ = width == 0 ? kTxChunkSize : width;
  }

  // --- bucketing introspection (for the oracle test and diagnostics) ----

  /// Runs just the bucketing phase for the current round's positions.
  /// Callers pair it with unbucket_for_test(), a no-op: every bucketing
  /// rewrites the whole grid, so there is nothing to restore.
  void bucket_for_test(std::span<const NodeId> transmitters) {
    bucket_transmitters(transmitters);
  }
  void unbucket_for_test() {}
  [[nodiscard]] std::uint32_t grid_cells() const { return cells_; }
  [[nodiscard]] std::uint32_t cell_of(NodeId v) const {
    return cell_index(pts_[v]);
  }
  /// Ids of the transmitters bucketed into `cell`, in segment order (the
  /// order the sweep enumerates hits in); empty for unoccupied cells. The
  /// segments tile the id array in cell order: cell c + 1's starts where
  /// cell c's ends.
  [[nodiscard]] std::span<const NodeId> cell_entries(
      std::uint32_t cell) const {
    return {tx_id_.data() + cell_start_[cell],
            cell_start_[cell + 1] - cell_start_[cell]};
  }
  /// Whether some transmitter occupies `cell`'s 3x3 neighbourhood this
  /// round, i.e. one of the three row spans its listeners scan is
  /// non-empty.
  [[nodiscard]] bool cell_stamped(std::uint32_t cell) const {
    const std::uint32_t cx = cell % cells_;
    const std::uint32_t cy = cell / cells_;
    const std::uint32_t x0 = cx > 0 ? cx - 1 : 0;
    const std::uint32_t x1 = std::min(cx + 1, cells_ - 1);
    for (std::uint32_t y = cy > 0 ? cy - 1 : 0;
         y <= std::min(cy + 1, cells_ - 1); ++y) {
      const std::uint32_t row = y * cells_;
      if (cell_start_[row + x1 + 1] != cell_start_[row + x0]) return true;
    }
    return false;
  }

  /// Advances the motion process to round `round` (non-decreasing, the
  /// engine's access pattern). Round 0 is the initial placement; each
  /// later round applies one reflected uniform step per node, drawn from
  /// that round's counter-keyed streams.
  void begin_round(std::uint32_t round) {
    RADNET_REQUIRE(round >= cur_round_,
                   "implicit RGG must be accessed with non-decreasing rounds");
    while (cur_round_ < round) {
      ++cur_round_;
      move_step(cur_round_);
    }
  }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath /*path*/,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    if (transmitters.empty()) return;
    bucket_transmitters(transmitters);
    blocks_.run(pool_, detail::block_count(n_, kShardBlockSize),
                collisions_inert, attentive, n_, sink, detail::RecordNone{},
                [&](std::uint64_t b, auto& em) {
                  const auto [lo, hi] =
                      detail::block_range(b, kShardBlockSize, n_);
                  sweep_block(lo, hi, is_tx, half_duplex, em);
                });
  }

 private:
  [[nodiscard]] std::uint32_t cell_index(const graph::Point& pt) const {
    auto cx = static_cast<std::uint32_t>(pt.x / cell_size_);
    auto cy = static_cast<std::uint32_t>(pt.y / cell_size_);
    cx = std::min(cx, cells_ - 1);
    cy = std::min(cy, cells_ - 1);
    return cy * cells_ + cx;
  }

  /// Initial placement: uniform in the unit square, drawn per block from
  /// the reserved init lane so the placement (like every later step) is a
  /// pure function of (spec seed, block).
  void init_positions() {
    const StreamKey init_key = key_.fork(kInitLane);
    detail::run_chunked(pool_, detail::block_count(n_, kShardBlockSize),
                        [&](std::uint64_t b) {
      const auto [lo, hi] = detail::block_range(b, kShardBlockSize, n_);
      Rng rng = init_key.fork(b).make_rng();
      for (NodeId v = lo; v < hi; ++v)
        pts_[v] = graph::Point{rng.next_double(), rng.next_double()};
    });
  }

  /// One motion round: the same reflected uniform step law as
  /// graph::MobilityRgg::move_step, drawn from (round, block)-keyed
  /// streams. Blocks write disjoint position ranges, so the parallel
  /// schedule is race-free and (being counter-keyed) bit-identical to the
  /// serial one.
  void move_step(std::uint32_t round) {
    if (step_ <= 0.0) return;  // parked devices: topology is static
    const StreamKey round_key = key_.fork(round);
    detail::run_chunked(pool_, detail::block_count(n_, kShardBlockSize),
                        [&](std::uint64_t b) {
      const auto [lo, hi] = detail::block_range(b, kShardBlockSize, n_);
      Rng rng = round_key.fork(b).make_rng();
      for (NodeId v = lo; v < hi; ++v) {
        graph::Point& pt = pts_[v];
        pt.x += rng.uniform_real(-step_, step_);
        pt.y += rng.uniform_real(-step_, step_);
        if (pt.x < 0.0) pt.x = -pt.x;
        if (pt.x > 1.0) pt.x = 2.0 - pt.x;
        if (pt.y < 0.0) pt.y = -pt.y;
        if (pt.y > 1.0) pt.y = 2.0 - pt.y;
        pt.x = std::clamp(pt.x, 0.0, 1.0);
        pt.y = std::clamp(pt.y, 0.0, 1.0);
      }
    });
  }

  /// Counting-sorts the round's k transmitters into the cell grid as a
  /// cell-ordered CSR: cell c's transmitters occupy [cell_start_[c],
  /// cell_start_[c + 1]) of the tx SoA arrays, so each grid row's cells
  /// are contiguous and the sweep scans a 3x3 neighbourhood as three row
  /// spans. Sharded per transmitter chunk under the per-chunk merge
  /// contract of sim/sharding.hpp: each chunk sorts its transmitters by
  /// cell locally (stable, so chunk-local order = transmitter-list order),
  /// a serial pass over the runs and one scan over the grid lay out the
  /// shared CSR, and the chunks scatter coordinates into their reserved,
  /// disjoint slots. Each cell's segment concatenates the chunks'
  /// sub-segments in ascending chunk order, i.e. in transmitter-list
  /// order — the bucket contents are byte-identical to a serial counting
  /// sort's, at any thread count and any chunk granularity (the phase
  /// draws no RNG). Cost O(k + cells) work, O(runs + cells) of it serial.
  void bucket_transmitters(std::span<const NodeId> transmitters) {
    const std::uint64_t chunks =
        detail::block_count(transmitters.size(), bucket_chunk_);
    if (bucket_chunks_.size() < chunks) bucket_chunks_.resize(chunks);

    // Phase 1 (parallel): chunk-local counting sort into (cell, len) runs.
    detail::run_chunked(pool_, chunks, [&](std::uint64_t c) {
      bucket_sort_chunk(c, transmitters);
    });

    // Phase 2 (serial): per-cell counts, an inclusive scan over the whole
    // grid (cell_start_[c] = end of cell c's segment), then every run
    // claims its slot from the top of its cell's segment, chunks in
    // descending order — which leaves cell_start_[c] at the segment's
    // start and the chunks' sub-segments in ascending chunk order.
    std::fill(cell_start_.begin(), cell_start_.end(), 0u);
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const BucketChunk& bc = bucket_chunks_[c];
      for (std::size_t r = 0; r < bc.run_cell.size(); ++r)
        cell_start_[bc.run_cell[r]] += bc.run_len[r];
    }
    std::uint32_t offset = 0;
    for (std::uint32_t& start : cell_start_) {
      offset += start;
      start = offset;
    }
    for (std::uint64_t c = chunks; c-- > 0;) {
      BucketChunk& bc = bucket_chunks_[c];
      bc.run_slot.resize(bc.run_cell.size());
      for (std::size_t r = 0; r < bc.run_cell.size(); ++r)
        bc.run_slot[r] = cell_start_[bc.run_cell[r]] -= bc.run_len[r];
    }

    // Coordinates are inlined (structure-of-arrays, so the distance kernel
    // can load four x's or four y's as one vector) rather than
    // random-accessed from the n-sized positions array.
    const std::size_t k = transmitters.size();
    tx_x_.resize(k + simd::kRggPad);
    tx_y_.resize(k + simd::kRggPad);
    tx_id_.resize(k + simd::kRggPad);

    // Phase 3 (parallel): scatter into the reserved disjoint slots.
    detail::run_chunked(pool_, chunks, [&](std::uint64_t c) {
      bucket_scatter_chunk(c, transmitters);
    });

    // Far-away sentinels let the vector scan load full-width chunks that
    // overhang the final span without reading garbage distances.
    for (std::size_t i = k; i < k + simd::kRggPad; ++i) {
      tx_x_[i] = 1e30;
      tx_y_[i] = 1e30;
      tx_id_[i] = detail::kNoSender;
    }
  }

  /// Phase 1 of bucket_transmitters for chunk `c`: cell indices for the
  /// chunk's transmitters, a stable local sort by cell, and the collapsed
  /// (cell, len) run list.
  void bucket_sort_chunk(std::uint64_t c, std::span<const NodeId> tx) {
    BucketChunk& bc = bucket_chunks_[c];
    const auto [lo, hi] = detail::block_range(c, bucket_chunk_, tx.size());
    const auto len = static_cast<std::uint32_t>(hi - lo);
    bc.cell.resize(len);
    bc.order.resize(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      bc.cell[i] = cell_index(pts_[tx[lo + i]]);
      bc.order[i] = i;
    }
    // Index tie-break = stable order, without std::stable_sort's per-call
    // heap-allocated merge buffer (tests/sim/shard_scratch_test.cpp pins
    // steady-state rounds allocation-free).
    std::sort(bc.order.begin(), bc.order.end(),
              [&bc](std::uint32_t a, std::uint32_t b) {
                return bc.cell[a] != bc.cell[b] ? bc.cell[a] < bc.cell[b]
                                                : a < b;
              });
    bc.run_cell.clear();
    bc.run_len.clear();
    for (std::uint32_t i = 0; i < len; ++i) {
      const std::uint32_t cell = bc.cell[bc.order[i]];
      if (bc.run_cell.empty() || bc.run_cell.back() != cell) {
        bc.run_cell.push_back(cell);
        bc.run_len.push_back(0);
      }
      ++bc.run_len.back();
    }
  }

  /// Phase 3 of bucket_transmitters for chunk `c`: scatter the chunk's
  /// transmitters (in local sorted order) into the runs' reserved slots.
  void bucket_scatter_chunk(std::uint64_t c, std::span<const NodeId> tx) {
    BucketChunk& bc = bucket_chunks_[c];
    const std::uint64_t lo = c * static_cast<std::uint64_t>(bucket_chunk_);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < bc.run_cell.size(); ++r) {
      const std::uint32_t len = bc.run_len[r];
      std::uint32_t slot = bc.run_slot[r];
      for (std::uint32_t j = 0; j < len; ++j, ++pos, ++slot) {
        const NodeId t = tx[lo + bc.order[pos]];
        const graph::Point& pt = pts_[t];
        tx_x_[slot] = pt.x;
        tx_y_[slot] = pt.y;
        tx_id_[slot] = t;
      }
    }
  }

  /// One listener block of the delivery sweep: for each listener able to
  /// hear, count transmitters within `radius` among the <= 9 neighbouring
  /// cells (three row spans of the cell-ordered CSR), early-exiting at the
  /// second hit (a collision needs no exact count). The distance checks
  /// run through the dispatched simd::rgg_scan kernel — four squared
  /// distances per compare on AVX2, in the exact double-precision form of
  /// the scalar scan, so every mode emits the same events. Purely
  /// deterministic geometry — no RNG — so block outputs are independent
  /// of schedule by construction.
  template <class Emitter>
  void sweep_block(NodeId lo, NodeId hi, const std::vector<char>& is_tx,
                   bool half_duplex, Emitter& em) {
    const simd::RggScanCtx ctx{tx_x_.data(),           tx_y_.data(),
                               tx_id_.data(),          cell_start_.data(),
                               cell_start_.data() + 1, cells_,
                               r2_};
    for (NodeId v = lo; v < hi; ++v) {
      if (half_duplex && is_tx[v]) continue;  // its own radio is busy
      const graph::Point& pv = pts_[v];
      auto cx = static_cast<std::uint32_t>(pv.x / cell_size_);
      auto cy = static_cast<std::uint32_t>(pv.y / cell_size_);
      cx = std::min(cx, cells_ - 1);
      cy = std::min(cy, cells_ - 1);
      NodeId sender = 0;
      const std::uint32_t hits = simd::rgg_scan(ctx, pv.x, pv.y, cx, cy, v,
                                                &sender);
      if (hits == 1)
        em.on_deliver(v, sender);
      else if (hits >= 2)
        em.on_collide(v);
    }
  }

  NodeId n_ = 0;
  double radius_ = 0.0;
  double step_ = 0.0;
  double r2_ = 0.0;
  std::uint32_t cells_ = 1;   ///< grid cells per axis
  double cell_size_ = 1.0;    ///< 1 / cells_, always >= radius (or capped)
  StreamKey key_;             ///< motion randomness root (from the spec's rng)
  std::uint32_t cur_round_ = 0;
  ThreadPool* pool_ = nullptr;

  std::vector<graph::Point> pts_;        ///< current positions, 16 B/node
  /// Cell-ordered tx CSR: cell c's segment is [cell_start_[c],
  /// cell_start_[c + 1]); cells² + 1 entries.
  std::vector<std::uint32_t> cell_start_;
  /// Transmitters in cell order, structure-of-arrays with kRggPad
  /// sentinels (see bucket_transmitters / simd::RggScanCtx).
  std::vector<double> tx_x_;
  std::vector<double> tx_y_;
  std::vector<NodeId> tx_id_;

  /// One transmitter chunk's private bucketing scratch, reused across
  /// rounds (resized, never shrunk) — pinned allocation-free in steady
  /// state by tests/sim/shard_scratch_test.cpp.
  struct BucketChunk {
    std::vector<std::uint32_t> cell;   ///< cell of chunk-local tx i
    std::vector<std::uint32_t> order;  ///< local indices, stably cell-sorted
    std::vector<std::uint32_t> run_cell;  ///< distinct cells, ascending
    std::vector<std::uint32_t> run_len;   ///< transmitters per run
    std::vector<std::uint32_t> run_slot;  ///< global scatter start per run
  };
  NodeId bucket_chunk_ = kTxChunkSize;  ///< see set_bucket_chunk()
  std::vector<BucketChunk> bucket_chunks_;
  detail::BlockSweep blocks_;  ///< the delivery sweep's block fan-out
};

}  // namespace radnet::sim
