// Explicit CSR topology backends: delivery over a materialised
// graph::Digraph (static or per-round sequences). The any-topology oracle —
// geometric, structured and lower-bound networks that the implicit G(n,p)
// backends cannot express all run here — and, since PR 4, a sharded one:
// every delivery strategy decomposes into the listener blocks of
// sim/sharding.hpp and fans out over the engine's thread pool.
//
// Exactness contract: trivially exact for every protocol — the backend
// walks the materialised graph, so a round's events are a deterministic
// function of (graph, transmitter set). No RNG is drawn anywhere in
// delivery, hence no StreamKey keying either (that scheme exists for the
// sampling families; see the README backend matrix): the block-merge
// ordering invariant of sim/sharding.hpp alone makes the parallel event
// stream byte-identical to the serial one at any thread count.
//
// Three delivery strategies (DeliveryPath), all producing byte-identical
// event streams:
//
//   * kSortedTouch / kLinearScan — per-edge hit counters: walk each
//     transmitter's out-edges, count hits per receiver, then emit events in
//     ascending receiver order (sorting the touched list, or linear-scanning
//     the hit array when many receivers were touched). Cost O(k·d̄ + emit).
//   * kInNeighborScan — per-receiver scan of in-neighbours against a
//     transmitter bitset with early exit at the second hit; wins in very
//     dense rounds. Cost O(n · 2/f) expected, f = transmitting fraction.
//
// Parallel decomposition (no RNG is involved anywhere, so bit-identity at
// any thread count holds by construction). Both listener-block sweeps run
// through the one block fan-out of sim/sharding.hpp (BlockSweep):
//
//   * The in-neighbour scan is listener-parallel as-is: the graph and the
//     transmitter bitset are read-only, so listener blocks scan
//     independently, on the pool or inline.
//   * The pooled counter paths scatter-gather: transmitter chunks first
//     partition their out-edges into per-(chunk, listener-block) segments
//     (two CSR walks: count, then fill), then listener blocks gather their
//     segments into the per-block slices of the shared hit array — blocks
//     own disjoint listener ranges, so no two threads ever touch the same
//     counter — and emit their events in ascending listener order. Hit
//     counts are order-independent sums and a single-hit receiver's sender
//     is unique, so the merged stream equals the serial one exactly. The
//     serial counter path is one block over the whole range: a single
//     edge walk, cheaper on one core than scatter-gather.
//
// The per-round strategy choice (kAuto) is thread-count-aware: with a pool
// attached the bitset-scan threshold halves (the counter path pays a second
// edge walk for the scatter, the bitset scan parallelises for free), and
// the sort-vs-scan emit choice is made per block from the block's own
// touched count rather than from a global n/8 threshold tuned for one core.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/dynamics.hpp"
#include "sim/sharding.hpp"
#include "support/bitset.hpp"
#include "support/require.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

namespace detail {

/// Shared delivery machinery for explicit CSR graphs: scratch arrays plus
/// the serial and block-parallel forms of the three delivery strategies.
/// Owned by the backend objects below.
class CsrDelivery {
 public:
  /// Minimum per-round work (edges touched, or listeners scanned for the
  /// in-neighbour path) before a pool-attached round actually fans out.
  static constexpr std::uint64_t kMinParallelRoundWork = 4096;

  void attach(NodeId n) {
    hits_.assign(n, 0);
    heard_from_.assign(n, 0);
    touched_.clear();
    tx_bits_ = Bitset(n);
  }

  /// Serial blocks when null (the default); sharded delivery on `pool`
  /// otherwise. Either way the output is bit-identical.
  void set_parallelism(ThreadPool* pool) { pool_ = pool; }

  template <class Sink>
  void deliver(const graph::Digraph& g, std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath path,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    const NodeId n = g.num_nodes();
    const unsigned width = pool_ == nullptr ? 1u : pool_->size() + 1;
    const unsigned shift = csr_block_shift(n, width);
    const std::uint64_t blocks =
        block_count(n, static_cast<NodeId>(NodeId{1} << shift));
    const bool par_capable = pool_ != nullptr && blocks > 1;

    // The in-neighbour scan wins when most receivers hear >= 2
    // transmitters quickly: a receiver stops after ~2/f scanned
    // neighbours (f = transmitting fraction), vs ~f*degree counter
    // writes on the counter path — cheaper when f^2 * degree > C, i.e.
    // k * load > C * n^2 with load = sum of transmitter out-degrees.
    // Parallel-capable rounds halve C: the counter path then walks the
    // edges twice (scatter + gather) while the bitset scan shards as-is.
    // The degree sum feeds the kAuto heuristic and the parallel work
    // gate of the counter paths; a forced path on a serial schedule (and
    // a forced in-neighbour scan anywhere) never reads it.
    std::uint64_t load = 0;
    if (path == DeliveryPath::kAuto ||
        (par_capable && path != DeliveryPath::kInNeighborScan))
      for (const NodeId u : transmitters) load += g.out_degree(u);
    const bool in_scan =
        path == DeliveryPath::kInNeighborScan ||
        (path == DeliveryPath::kAuto &&
         transmitters.size() * load >
             (par_capable ? 2u : 4u) * static_cast<std::uint64_t>(n) * n);
    // Tiny rounds stay serial: below ~a block's worth of work the pool
    // dispatch and buffer bookkeeping cost more than they save (the
    // measured small-n regression regime). The gate only picks a
    // schedule — output is identical either way.
    const std::uint64_t round_work = in_scan ? n : load;
    ThreadPool* const pool =
        par_capable && round_work >= kMinParallelRoundWork ? pool_ : nullptr;
    const auto sweep = [&](std::uint64_t sweep_blocks, const auto& body) {
      sweep_.run(pool, sweep_blocks, collisions_inert, attentive, n, sink,
                 RecordNone{}, body);
    };

    if (in_scan) {
      for (const NodeId u : transmitters) tx_bits_.set(u);
      sweep(blocks, [&](std::uint64_t b, auto& em) {
        const auto [lo, hi] = block_range(b, std::uint64_t{1} << shift, n);
        in_scan_block(g, is_tx, half_duplex, lo, hi, em);
      });
      for (const NodeId u : transmitters) tx_bits_.reset(u);
    } else if (pool != nullptr) {
      const std::uint64_t chunks =
          scatter(g, transmitters, load, shift, blocks);
      sweep(blocks, [&](std::uint64_t b, auto& em) {
        gather_block(b, chunks, shift, n, is_tx, half_duplex, path, em);
      });
    } else {
      // The serial counter path: one block, one edge walk (file comment).
      sweep(1, [&](std::uint64_t, auto& em) {
        counter_paths(g, transmitters, is_tx, half_duplex, path, em);
      });
    }
  }

 private:
  /// The serial counter path: accumulate per-edge hits transmitter-major,
  /// then emit in ascending receiver order (sort the touched list, or — in
  /// dense rounds — linear-scan the hit array, which yields the same order
  /// cheaper than the O(k log k) sort).
  template <class Emitter>
  void counter_paths(const graph::Digraph& g,
                     std::span<const NodeId> transmitters,
                     const std::vector<char>& is_tx, bool half_duplex,
                     DeliveryPath path, Emitter& em) {
    const NodeId n = g.num_nodes();
    for (const NodeId u : transmitters) {
      for (const NodeId w : g.out_neighbors(u)) {
        if (hits_[w] == 0) {
          heard_from_[w] = u;
          touched_.push_back(w);
        }
        ++hits_[w];
      }
    }
    const bool scan = path == DeliveryPath::kLinearScan ||
                      (path == DeliveryPath::kAuto && touched_.size() > n / 8);
    if (scan) {
      touched_.clear();
      for (NodeId w = 0; w < n; ++w)
        if (hits_[w] != 0) touched_.push_back(w);
    } else {
      std::sort(touched_.begin(), touched_.end());
    }
    for (const NodeId w : touched_) emit_counted(w, is_tx, half_duplex, em);
    touched_.clear();
  }

  /// Phase 1 of the pooled counter path (file comment): partitions every
  /// transmitter chunk's out-edges into per-(chunk, block) segments and
  /// returns the chunk count. `load` is the sum of transmitter out-degrees.
  std::uint64_t scatter(const graph::Digraph& g,
                        std::span<const NodeId> transmitters,
                        std::uint64_t load, unsigned shift,
                        std::uint64_t blocks) {
    const std::uint64_t k = transmitters.size();

    // Cut the transmitter list into contiguous chunks of roughly equal
    // out-edge load (~4 per thread). The cut points never affect output:
    // hit counts are sums over all chunks and a single-hit receiver's
    // sender is the unique transmitter that reached it.
    const std::uint64_t want_chunks = std::min<std::uint64_t>(
        std::max<std::uint64_t>(k, 1),
        std::uint64_t{pool_->size() + 1} * 4);
    const std::uint64_t target = load / want_chunks + 1;
    chunk_starts_.clear();
    chunk_starts_.push_back(0);
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < k; ++i) {
      if (acc >= target && chunk_starts_.size() < want_chunks) {
        chunk_starts_.push_back(i);
        acc = 0;
      }
      acc += g.out_degree(transmitters[i]);
    }
    chunk_starts_.push_back(k);
    const std::uint64_t chunks = chunk_starts_.size() - 1;

    // Parallel over transmitter chunks: one counting walk, one filling walk
    // over the CSR rows.
    if (scatter_.size() < chunks) {
      scatter_.resize(chunks);
      scatter_off_.resize(chunks);
    }
    run_chunked(pool_, chunks, [&](std::uint64_t c) {
      auto& seg = scatter_[c];
      auto& off = scatter_off_[c];
      off.assign(blocks + 1, 0);
      const std::span<const NodeId> slice = transmitters.subspan(
          chunk_starts_[c], chunk_starts_[c + 1] - chunk_starts_[c]);
      for (const NodeId u : slice)
        for (const NodeId w : g.out_neighbors(u)) ++off[(w >> shift) + 1];
      for (std::uint64_t b = 0; b < blocks; ++b) off[b + 1] += off[b];
      seg.resize(off[blocks]);
      // Counting-sort fill, advancing off[b] in place (no cursor copy on
      // the hot path): afterwards off[b] has slid to the *end* of segment
      // b, so segment b is read back as [b ? off[b-1] : 0, off[b]).
      for (const NodeId u : slice)
        for (const NodeId w : g.out_neighbors(u))
          seg[off[w >> shift]++] = {w, u};
    });
    if (touched_blocks_.size() < blocks) touched_blocks_.resize(blocks);
    return chunks;
  }

  /// Phase 2 of the pooled counter path, one listener block: gathers the
  /// block's segments into its private slice of the shared hit array —
  /// disjoint ranges, no synchronisation — and emits events in ascending
  /// listener order. The emit-order strategy is chosen per block from the
  /// block's own touched count.
  template <class Emitter>
  void gather_block(std::uint64_t b, std::uint64_t chunks, unsigned shift,
                    NodeId n, const std::vector<char>& is_tx,
                    bool half_duplex, DeliveryPath path, Emitter& em) {
    const auto [lo, hi] = block_range(b, std::uint64_t{1} << shift, n);
    auto& touched = touched_blocks_[b];
    touched.clear();
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const auto& seg = scatter_[c];
      const auto& off = scatter_off_[c];
      // off[b] slid to the end of segment b during the scatter fill.
      for (std::uint64_t i = b == 0 ? 0 : off[b - 1]; i < off[b]; ++i) {
        const auto [w, u] = seg[i];
        if (hits_[w] == 0) {
          heard_from_[w] = u;
          touched.push_back(w);
        }
        ++hits_[w];
      }
    }
    const bool scan =
        path == DeliveryPath::kLinearScan ||
        (path == DeliveryPath::kAuto && touched.size() > (hi - lo) / 8u);
    if (scan) {
      for (NodeId w = lo; w < hi; ++w)
        if (hits_[w] != 0) emit_counted(w, is_tx, half_duplex, em);
    } else {
      std::sort(touched.begin(), touched.end());
      for (const NodeId w : touched) emit_counted(w, is_tx, half_duplex, em);
    }
    touched.clear();
  }

  /// Emits receiver w's event from its accumulated hit count and resets
  /// the counter (a transmitting radio hears nothing under half-duplex).
  template <class Emitter>
  void emit_counted(NodeId w, const std::vector<char>& is_tx,
                    bool half_duplex, Emitter& em) {
    if (half_duplex && is_tx[w]) {
      hits_[w] = 0;
      return;
    }
    if (hits_[w] == 1)
      em.on_deliver(w, heard_from_[w]);
    else
      em.on_collide(w);
    hits_[w] = 0;
  }

  /// One listener block of the in-neighbour bitset scan; the caller owns
  /// the tx_bits_ set/reset bracketing. Reads only shared state, so blocks
  /// run concurrently as-is.
  template <class Emitter>
  void in_scan_block(const graph::Digraph& g, const std::vector<char>& is_tx,
                     bool half_duplex, NodeId lo, NodeId hi, Emitter& em) {
    for (NodeId w = lo; w < hi; ++w) {
      if (half_duplex && is_tx[w]) continue;
      std::uint32_t c = 0;
      NodeId sender = 0;
      for (const NodeId v : g.in_neighbors(w)) {
        if (tx_bits_.test(v)) {
          sender = v;
          if (++c == 2) break;
        }
      }
      if (c == 1)
        em.on_deliver(w, sender);
      else if (c >= 2)
        em.on_collide(w);
    }
  }

  std::vector<std::uint32_t> hits_;
  std::vector<NodeId> heard_from_;
  std::vector<NodeId> touched_;
  Bitset tx_bits_;
  ThreadPool* pool_ = nullptr;
  BlockSweep sweep_;  ///< the block fan-out and its per-block scratch
  std::vector<std::vector<NodeId>> touched_blocks_;  ///< per-block touched
  std::vector<std::uint64_t> chunk_starts_;  ///< transmitter chunk cuts
  /// Per-chunk scatter segments, block-partitioned by scatter_off_.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> scatter_;
  std::vector<std::vector<std::uint64_t>> scatter_off_;
};

}  // namespace detail

/// Backend over one fixed, materialised graph.
class CsrTopology {
 public:
  explicit CsrTopology(const graph::Digraph& g) : g_(&g) {
    delivery_.attach(g.num_nodes());
  }

  [[nodiscard]] NodeId num_nodes() const { return g_->num_nodes(); }
  void begin_round(std::uint32_t /*round*/) {}
  void set_parallelism(ThreadPool* pool) { delivery_.set_parallelism(pool); }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath path,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    delivery_.deliver(*g_, transmitters, is_tx, half_duplex, path, attentive,
                      collisions_inert, sink);
  }

 private:
  const graph::Digraph* g_;
  detail::CsrDelivery delivery_;
};

/// Backend over a changing topology: round r uses sequence.at(r).
class DynamicCsrTopology {
 public:
  explicit DynamicCsrTopology(graph::TopologySequence& sequence)
      : sequence_(&sequence), n_(sequence.num_nodes()) {
    delivery_.attach(n_);
  }

  [[nodiscard]] NodeId num_nodes() const { return n_; }
  void set_parallelism(ThreadPool* pool) { delivery_.set_parallelism(pool); }

  void begin_round(std::uint32_t round) {
    g_ = &sequence_->at(round);
    RADNET_CHECK(g_->num_nodes() == n_, "topology changed its node count");
  }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath path,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    delivery_.deliver(*g_, transmitters, is_tx, half_duplex, path, attentive,
                      collisions_inert, sink);
  }

 private:
  graph::TopologySequence* sequence_;
  NodeId n_;
  const graph::Digraph* g_ = nullptr;
  detail::CsrDelivery delivery_;
};

}  // namespace radnet::sim
