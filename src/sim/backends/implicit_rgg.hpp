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
// `radius` (cells_ per axis, capped so the grid never exceeds O(n)
// cells). A listener's potential transmitters all lie in its own cell or
// the 8 surrounding ones, so one round costs
//   O(n)                 movement (2 uniforms per node)
// + O(k + occupied·9)    bucket the k transmitters, stamp active cells
//                        (sharded per transmitter chunk, serial merge
//                        O(runs) — see bucket_transmitters)
// + O(n + sum over listeners near transmitters of the <= 9 cells'
//                        transmitter counts, early-exiting at the second
//                        hit — a collision needs no exact count)
// with zero graph memory: state is 16 B per node (positions) plus O(cells)
// grid scratch. Listeners whose 3x3 neighbourhood holds no transmitter are
// rejected with a single stamp load.
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
// locally, a serial cell-ordered merge lays out the shared CSR, and the
// chunks scatter into disjoint reserved slots — RNG-free, so the bucket
// contents the sweep sees are byte-identical at any thread count *and*
// any chunk granularity (the bucketing oracle test sweeps both).
#pragma once

#include <algorithm>
#include <atomic>
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
  /// cell-ordered merge makes the bucket contents provably independent of
  /// the decomposition — so it is free to change (and overridable below).
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
    cell_begin_.assign(grid + 1, 0);
    cell_fill_.assign(grid, 0);
    near_tx_stamp_.assign(grid, 0);
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
  /// schedules and asserts identical cell contents and stamps throughout.
  void set_bucket_chunk(NodeId width) {
    bucket_chunk_ = width == 0 ? kTxChunkSize : width;
  }

  // --- bucketing introspection (for the oracle test and diagnostics) ----

  /// Runs just the bucketing phase for the current round's positions;
  /// callers pair it with unbucket_for_test() to restore the grid.
  void bucket_for_test(std::span<const NodeId> transmitters) {
    bucket_transmitters(transmitters);
  }
  void unbucket_for_test() { unbucket_transmitters(); }
  [[nodiscard]] std::uint32_t grid_cells() const { return cells_; }
  [[nodiscard]] std::uint32_t cell_of(NodeId v) const {
    return cell_index(pts_[v]);
  }
  /// Ids of the transmitters bucketed into `cell`, in segment order (the
  /// order the sweep enumerates hits in); empty for unoccupied cells.
  [[nodiscard]] std::span<const NodeId> cell_entries(
      std::uint32_t cell) const {
    return {tx_id_.data() + cell_begin_[cell],
            cell_fill_[cell] - cell_begin_[cell]};
  }
  /// Whether the sweep would consider `cell`'s listeners at all this
  /// round (some transmitter occupies its 3x3 neighbourhood).
  [[nodiscard]] bool cell_stamped(std::uint32_t cell) const {
    return near_tx_stamp_[cell] == round_stamp_;
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
    unbucket_transmitters();
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

  /// Counting-sorts the round's k transmitters into the cell grid
  /// (cell_begin_/the tx SoA arrays form a CSR over occupied cells only)
  /// and stamps every cell whose 3x3 neighbourhood holds a transmitter, so
  /// the sweep rejects listeners in silent neighbourhoods with one load.
  /// Sharded per transmitter chunk under the per-chunk merge contract of
  /// sim/sharding.hpp: each chunk sorts its transmitters by cell locally
  /// (stable, so chunk-local order = transmitter-list order), a serial
  /// cell-ordered merge lays out the shared CSR in O(runs), and the chunks
  /// scatter coordinates into their reserved, disjoint slots. Chunks are
  /// merged in ascending order, so each cell's segment concatenates the
  /// chunks' sub-segments in transmitter-list order — the sweep's hit
  /// enumeration is byte-identical to a serial counting sort's, at any
  /// thread count and any chunk granularity (the phase draws no RNG).
  /// Cost O(k + occupied·9) work; the CSR counters are restored to zero in
  /// O(occupied) by unbucket_transmitters.
  void bucket_transmitters(std::span<const NodeId> transmitters) {
    const std::uint64_t chunks =
        detail::block_count(transmitters.size(), bucket_chunk_);
    if (bucket_chunks_.size() < chunks) bucket_chunks_.resize(chunks);

    // Phase 1 (parallel): chunk-local counting sort into (cell, len) runs.
    detail::run_chunked(pool_, chunks, [&](std::uint64_t c) {
      bucket_sort_chunk(c, transmitters);
    });

    // Phase 2 (serial cell-ordered merge, O(runs)): accumulate per-cell
    // counts in chunk-scan order (occupied_ = first-touch order), lay the
    // CSR out with an exclusive scan, then hand every run its scatter
    // slot. After this loop cell_fill_[c] is the segment *end*, the same
    // invariant the sweep reads.
    occupied_.clear();
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const BucketChunk& bc = bucket_chunks_[c];
      for (std::size_t r = 0; r < bc.run_cell.size(); ++r) {
        const std::uint32_t cell = bc.run_cell[r];
        if (cell_fill_[cell] == 0) occupied_.push_back(cell);
        cell_fill_[cell] += bc.run_len[r];
      }
    }
    // Coordinates are inlined (structure-of-arrays, so the distance kernel
    // can load four x's or four y's as one vector) rather than
    // random-accessed from the n-sized positions array.
    std::uint32_t offset = 0;
    for (const std::uint32_t cell : occupied_) {
      cell_begin_[cell] = offset;
      offset += cell_fill_[cell];
      cell_fill_[cell] = cell_begin_[cell];
    }
    for (std::uint64_t c = 0; c < chunks; ++c) {
      BucketChunk& bc = bucket_chunks_[c];
      bc.run_slot.resize(bc.run_cell.size());
      for (std::size_t r = 0; r < bc.run_cell.size(); ++r) {
        bc.run_slot[r] = cell_fill_[bc.run_cell[r]];
        cell_fill_[bc.run_cell[r]] += bc.run_len[r];
      }
    }

    const std::size_t k = transmitters.size();
    tx_x_.resize(k + simd::kRggPad);
    tx_y_.resize(k + simd::kRggPad);
    tx_id_.resize(k + simd::kRggPad);
    // Version-stamp the active neighbourhoods; stamps self-invalidate next
    // round, so nothing is ever cleared.
    ++round_stamp_;

    // Phase 3 (parallel): scatter into the reserved disjoint slots and
    // stamp each run cell's 3x3 neighbourhood. A cell split across chunks
    // is stamped more than once — every store writes the same
    // round_stamp_ value through a relaxed atomic_ref, and the pool join
    // orders all of them before the sweep's plain loads.
    detail::run_chunked(pool_, chunks, [&](std::uint64_t c) {
      bucket_scatter_chunk(c, transmitters);
    });

    // Far-away sentinels let the vector scan load full-width chunks that
    // overhang the final segment without reading garbage distances.
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
  /// transmitters (in local sorted order) into the runs' reserved slots
  /// and stamp each run cell's neighbourhood.
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
      stamp_cell(bc.run_cell[r]);
    }
  }

  /// Stamps `cell`'s 3x3 neighbourhood with the current round stamp.
  /// Callable concurrently: all concurrent stores write the same value.
  void stamp_cell(std::uint32_t cell) {
    const std::uint32_t cx = cell % cells_;
    const std::uint32_t cy = cell / cells_;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
        const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
        if (nx < 0 || ny < 0 || nx >= cells_ || ny >= cells_) continue;
        std::atomic_ref<std::uint32_t>(
            near_tx_stamp_[static_cast<std::uint32_t>(ny) * cells_ +
                           static_cast<std::uint32_t>(nx)])
            .store(round_stamp_, std::memory_order_relaxed);
      }
    }
  }

  /// Restores the zero-count invariant so the next round's bucketing can
  /// skip a full-grid clear.
  void unbucket_transmitters() {
    for (const std::uint32_t c : occupied_) {
      cell_begin_[c] = 0;
      cell_fill_[c] = 0;
    }
  }

  /// One listener block of the delivery sweep: for each listener able to
  /// hear, count transmitters within `radius` among the <= 9 neighbouring
  /// cells, early-exiting at the second hit (a collision needs no exact
  /// count). The per-cell distance checks run through the dispatched
  /// simd::rgg_scan kernel — four squared distances per compare on AVX2,
  /// in the exact double-precision form of the scalar scan, so every mode
  /// emits the same events. Purely deterministic geometry — no RNG — so
  /// block outputs are independent of schedule by construction.
  template <class Emitter>
  void sweep_block(NodeId lo, NodeId hi, const std::vector<char>& is_tx,
                   bool half_duplex, Emitter& em) {
    const simd::RggScanCtx ctx{tx_x_.data(),       tx_y_.data(),
                               tx_id_.data(),      cell_begin_.data(),
                               cell_fill_.data(),  cells_,
                               r2_};
    for (NodeId v = lo; v < hi; ++v) {
      if (half_duplex && is_tx[v]) continue;  // its own radio is busy
      const graph::Point& pv = pts_[v];
      auto cx = static_cast<std::uint32_t>(pv.x / cell_size_);
      auto cy = static_cast<std::uint32_t>(pv.y / cell_size_);
      cx = std::min(cx, cells_ - 1);
      cy = std::min(cy, cells_ - 1);
      if (near_tx_stamp_[cy * cells_ + cx] != round_stamp_)
        continue;  // no transmitter within reach: silence
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
  std::vector<std::uint32_t> cell_begin_;  ///< tx CSR starts (occupied cells)
  std::vector<std::uint32_t> cell_fill_;   ///< tx CSR ends / scatter cursors
  /// Transmitters, cell-grouped, structure-of-arrays with kRggPad
  /// sentinels (see bucket_transmitters / simd::RggScanCtx).
  std::vector<double> tx_x_;
  std::vector<double> tx_y_;
  std::vector<NodeId> tx_id_;
  std::vector<std::uint32_t> occupied_;    ///< cells holding >= 1 transmitter
  std::vector<std::uint32_t> near_tx_stamp_;  ///< round_stamp_ if 3x3 has a tx
  std::uint32_t round_stamp_ = 0;

  /// One transmitter chunk's private bucketing scratch, reused across
  /// rounds (resized, never shrunk) — pinned allocation-free in steady
  /// state by tests/sim/shard_scratch_test.cpp.
  struct BucketChunk {
    std::vector<std::uint32_t> cell;   ///< cell of chunk-local tx i
    std::vector<std::uint32_t> order;  ///< local indices, stably cell-sorted
    std::vector<std::uint32_t> run_cell;  ///< distinct cells, sorted order
    std::vector<std::uint32_t> run_len;   ///< transmitters per run
    std::vector<std::uint32_t> run_slot;  ///< global scatter start per run
  };
  NodeId bucket_chunk_ = kTxChunkSize;  ///< see set_bucket_chunk()
  std::vector<BucketChunk> bucket_chunks_;
  detail::BlockSweep blocks_;  ///< the delivery sweep's block fan-out
};

}  // namespace radnet::sim
