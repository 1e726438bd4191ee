// The shared sharded-sweep layer: everything a topology backend needs to
// decompose one round's delivery work into contiguous listener blocks and
// replay the result into the engine sink exactly as a serial sweep would
// have produced it.
//
// Every backend family shards the same way:
//
//   1. The listener range [0, n) splits into contiguous blocks. Sampling
//      backends use the fixed kShardBlockSize — the block decomposition is
//      part of their randomness contract (every RNG draw is keyed by
//      (round, block), see support/rng.hpp) — while the explicit CSR
//      backends, which involve no RNG at all, size blocks adaptively from
//      the pool width (csr_block_shift) because their output is provably
//      independent of the block granularity.
//   2. BlockSweep::run is the one block fan-out. With a pool and more than
//      one block, every block emits its events into a private ShardBuffer
//      through a BufferEmitter; otherwise the same blocks run inline in
//      ascending order through one DirectEmitter that streams straight to
//      the sink, with zero buffering. Same bits either way.
//   3. On the pool, the buffers merge serially in ascending block order
//      (inside BlockSweep::run), so the engine sink — and therefore the
//      protocol, trace and any resolution-recording hook — observes events
//      in ascending listener order on a single thread (receiver-local
//      deliveries excepted: they apply inside the blocks, see below).
//      Backends write only the per-block body; none forks on the pool.
//
// The three invariants every backend built on this layer upholds:
//
//   * Exactness contract — sharding never changes the sampled law. For
//     sampling backends the per-listener (and per-pair, per-step) laws are
//     independent across listeners, so per-block streams sample the same
//     joint distribution as one sequential stream; for RNG-free backends
//     (CSR delivery, the implicit-RGG geometry sweep) the block outputs
//     are pure functions of shared read-only state. Either way, the
//     merged output *is* the serial output, not an approximation of it.
//   * StreamKey keying scheme (support/rng.hpp) — a sampling backend
//     derives every draw from root.fork(round).fork(block) (plus reserved
//     lanes >= 2^32 for serial side-streams, which round counters can
//     never collide with). A draw is a pure function of (seed, round,
//     block) — never of thread schedule, execution order, or what other
//     blocks drew — which is what makes the sweeps bit-identical at any
//     thread count. The fixed kShardBlockSize is part of this contract.
//   * Block-merge ordering invariant — ShardBuffers merge serially in
//     ascending block order, and blocks emit in ascending listener order
//     internally, so the engine sink (protocol, trace, ledger, any Record
//     hook) observes buffered events in ascending listener order on one
//     thread, exactly as a serial sweep would have delivered them. Bulk
//     counts are order-free by definition and flush once per block. The
//     one exception is in-block deliveries (below): a protocol that
//     declared its deliveries receiver-local gets them applied inside the
//     parallel blocks, in no global order, and they count in bulk — which
//     is byte-identical because such deliveries commute.
//
// Per-chunk merge contract (the generalisation the non-listener phases
// use): a phase whose natural work unit is not a listener block — the
// dynamic backend's sketch phases decompose per *sender* chunk (gather)
// and per pinned-listener-*group* chunk (classify), the RGG bucketing per
// *transmitter* chunk — shards into fixed-width chunks, gives each chunk
// either its own (round, chunk)-keyed stream (sketch phases) or no RNG at
// all (bucketing), accumulates all shared-state effects in per-chunk
// scratch, and commits them in one serial merge in ascending chunk order.
// Because chunks cover the input in order, the merged effect sequence —
// sketch frees and inserts, pinned events, per-cell bucket segments — is
// exactly what a serial walk of the same chunks produces, so output stays
// bit-identical at any thread count; where a phase draws no RNG (the
// bucketing counting sort) it is additionally chunk-*granularity*
// independent, which the bucketing oracle test exercises. run_chunked()
// below is the shared fan-out (BlockSweep::run uses it too).
//
// Bulk ledger accounting: two classes of per-listener events can collapse
// into exact per-block *counts* instead of buffered events, shrinking the
// serial merge to O(attentive deliveries):
//   * collisions, when the protocol declared Protocol::collisions_inert —
//     ShardBuffer::collide_count, flushed as sink.collide_bulk;
//   * deliveries landing on listeners *outside* the round's
//     Protocol::attentive_listeners hint (their on_delivered is a declared
//     no-op) — ShardBuffer::deliver_count, flushed as sink.deliver_bulk.
// Both are engaged only when no trace is recorded (the engine drops the
// hints then), ledger totals are exact either way, and the AttentiveFlags
// membership mask below gives emitters the O(1) attentive test.
//
// In-block deliveries: when the protocol declared
// Protocol::deliveries_receiver_local, no trace is recorded and no
// adversary is active, the engine sink hands out an InBlockDeliveries
// target and the parallel blocks call on_delivered themselves for every
// delivery that would otherwise be buffered, folding it into
// ShardBuffer::deliver_count. The serial merge then replays only
// records, non-inert collisions and bulk counts. Receiver-local callbacks
// write disjoint per-listener state (every listener lives in exactly one
// block and hears at most one event per round) and the protocol settles
// cross-node aggregates in end_round, so the round's outcome does not
// depend on callback order or thread count. The serial schedule keeps
// streaming through sink.deliver, and any sink without the capability
// (a counting shadow, say) keeps the buffered path, as does a protocol
// decorator that does not forward the declaration.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/protocol.hpp"

namespace radnet {
class ThreadPool;
}

namespace radnet::sim {

using graph::NodeId;

/// How an explicit-CSR backend turns the round's transmitter set into
/// receiver events. kAuto picks per round; the forced values exist for the
/// path-parity tests and for benchmarking the individual strategies.
/// Sampling backends accept and ignore it (part of the shared deliver()
/// contract every backend implements).
enum class DeliveryPath : std::uint8_t {
  kAuto,            ///< heuristic choice per round (default)
  kSortedTouch,     ///< per-edge hit counters, sort the touched list
  kLinearScan,      ///< per-edge hit counters, linear sweep of the hit array
  kInNeighborScan,  ///< per-receiver in-neighbour scan vs a transmitter bitset
};

namespace detail {

/// Listeners per shard block for the *sampling* backends. Fixed — part of
/// their randomness contract: results depend on the block decomposition,
/// never on thread count.
inline constexpr NodeId kShardBlockSize = 1u << 16;

/// Number of blocks covering [0, n) at `block_size` listeners per block.
[[nodiscard]] inline std::uint64_t block_count(std::uint64_t n,
                                               NodeId block_size) {
  return (n + block_size - 1) / block_size;
}

/// The span [lo, hi) of block `b` when [0, total) splits into blocks of
/// `width`: the one copy of the block arithmetic every sweep and chunked
/// phase uses.
template <class T>
[[nodiscard]] std::pair<T, T> block_range(std::uint64_t b,
                                          std::uint64_t width, T total) {
  const std::uint64_t lo = b * width;
  return {static_cast<T>(lo),
          static_cast<T>(std::min<std::uint64_t>(total, lo + width))};
}

/// log2 of the listener-block size the explicit CSR backends use at the
/// given parallel width (pool workers + the calling thread). CSR delivery
/// draws no randomness, so its output is independent of the block
/// granularity; blocks shrink (down to 2^8) until the pool has ~4 blocks
/// per thread to balance, and never exceed the sampling backends' 2^16.
[[nodiscard]] unsigned csr_block_shift(NodeId n, unsigned parallelism);

/// ThreadPool::parallel_for_index, out of line: ThreadPool is incomplete
/// here.
void pool_for_index(ThreadPool& pool, std::uint64_t chunks,
                    const std::function<void(std::uint64_t)>& body);

/// The shared chunk fan-out of the per-chunk merge contract (file comment):
/// runs body(c) for every chunk in [0, chunks), on the pool when one is
/// given and there is more than one chunk, inline in ascending order
/// otherwise. The decomposition is the caller's — and for keyed phases part
/// of its randomness contract — so the two schedules execute the *same*
/// chunks; only the interleaving differs, and the caller's serial merge
/// restores order. The pool receives `body` through std::cref, so the
/// std::function stays in its inline storage whatever the body captures and
/// steady-state rounds stay allocation-free — pinned by
/// tests/sim/shard_scratch_test.cpp.
template <class Body>
void run_chunked(ThreadPool* pool, std::uint64_t chunks, const Body& body) {
  if (pool != nullptr && chunks > 1)
    pool_for_index(*pool, chunks, std::cref(body));
  else
    for (std::uint64_t c = 0; c < chunks; ++c) body(c);
}

/// No listener is excluded from a round (backends without a skip hook).
struct SkipNone {
  bool operator()(NodeId) const noexcept { return false; }
};

/// No pair resolution is remembered (backends without sketch state).
struct RecordNone {
  void operator()(NodeId, NodeId) const noexcept {}
};

/// A collision event's sender marker in the shard buffers (valid node ids
/// are < n <= 2^32 - 1).
inline constexpr NodeId kNoSender = 0xffffffffu;

/// O(1) membership mask over the round's attentive-listener hint, shared by
/// every backend that folds non-attentive deliveries into bulk counts. The
/// mask is set/cleared per round in O(|attentive|) and read concurrently by
/// sweep blocks (reads only, after the serial set_round).
class AttentiveFlags {
 public:
  /// Marks the round's attentive listeners; grows the mask to `n` lazily.
  void set_round(NodeId n, std::span<const NodeId> attentive);

  /// Unmarks them again (cheaper than re-zeroing the whole mask).
  void clear_round(std::span<const NodeId> attentive);

  [[nodiscard]] bool test(NodeId v) const noexcept { return flags_[v] != 0; }

 private:
  std::vector<char> flags_;
};

/// Where a sweep block applies deliveries itself instead of buffering them
/// (file comment, "In-block deliveries"): the protocol whose on_delivered
/// is receiver-local, and the round. A null protocol means the buffered
/// path. Two words, so emitters carry it by value with no allocation.
struct InBlockDeliveries {
  Protocol* protocol = nullptr;
  Round round = 0;

  explicit operator bool() const noexcept { return protocol != nullptr; }
  void operator()(NodeId listener, NodeId sender) const {
    protocol->on_delivered(listener, sender, round);
  }
};

/// The sink's in-block target. Sinks without an in_block_deliveries()
/// member (decorators, counting shadows) always get the buffered path.
template <class Sink>
[[nodiscard]] InBlockDeliveries in_block_deliveries(const Sink& sink) {
  if constexpr (requires { sink.in_block_deliveries(); })
    return sink.in_block_deliveries();
  else
    return {};
}

/// One listener block's privately accumulated round output: delivery /
/// collision events (ascending listener within the block), the ordered
/// pairs individually resolved present (for the dynamic backend's sketch)
/// and the two bulk counters described in the file comment. Buffers are
/// merged serially in block order after the parallel sweep, so the engine
/// sink and the sketch observe exactly the event and record order a serial
/// sweep would have produced (bulk counts are order-free by definition).
struct ShardBuffer {
  std::vector<std::pair<NodeId, NodeId>> events;   ///< (listener, sender|kNoSender)
  std::vector<std::pair<NodeId, NodeId>> records;  ///< (sender, listener)
  std::uint64_t deliver_count = 0;  ///< bulk-merged deliveries (see emitter)
  std::uint64_t collide_count = 0;  ///< bulk-merged collisions (inert mode)

  void clear() {
    events.clear();
    records.clear();
    deliver_count = 0;
    collide_count = 0;
  }
};

/// Emitter writing into a block's private buffer — the only output channel
/// of block code running on pool workers. `want_records` is off for
/// backends whose Record hook is a no-op (buffering pairs would be pure
/// overhead); `inert_collisions` folds collisions into the block count
/// (see Protocol::collisions_inert); a non-null `inert_deliveries` mask
/// folds deliveries to listeners outside it into the block count likewise;
/// a set `in_block` target applies the remaining deliveries on the spot
/// and counts them in the same block count.
struct BufferEmitter {
  ShardBuffer& buf;
  bool want_records;
  bool inert_collisions;
  const AttentiveFlags* inert_deliveries = nullptr;
  InBlockDeliveries in_block{};

  void on_record(NodeId sender, NodeId listener) {
    if (want_records) buf.records.emplace_back(sender, listener);
  }
  void on_deliver(NodeId listener, NodeId sender) {
    if (inert_deliveries != nullptr && !inert_deliveries->test(listener)) {
      ++buf.deliver_count;
      return;
    }
    if (in_block) {
      in_block(listener, sender);
      ++buf.deliver_count;
      return;
    }
    buf.events.emplace_back(listener, sender);
  }
  void on_collide(NodeId listener) {
    if (inert_collisions)
      ++buf.collide_count;
    else
      buf.events.emplace_back(listener, kNoSender);
  }
};

/// Emitter for the inline schedule (no pool, or one block): blocks run
/// in ascending order on one thread, so events flow straight to the sink
/// and records straight to the hook — zero buffering, exactly the event /
/// record sequence the buffered merge would replay (bulk-merged deliveries
/// and collisions accumulate per block and flush as one bulk call each,
/// mirroring the buffered path's per-block bulk calls).
template <class Sink, class Record>
struct DirectEmitter {
  Sink& sink;
  Record& record;
  bool inert_collisions;
  const AttentiveFlags* inert_deliveries = nullptr;
  std::uint64_t deliver_count = 0;
  std::uint64_t collide_count = 0;

  void on_record(NodeId sender, NodeId listener) { record(sender, listener); }
  void on_deliver(NodeId listener, NodeId sender) {
    if (inert_deliveries != nullptr && !inert_deliveries->test(listener)) {
      ++deliver_count;
      return;
    }
    sink.deliver(listener, sender);
  }
  void on_collide(NodeId listener) {
    if (inert_collisions)
      ++collide_count;
    else
      sink.collide(listener);
  }
  /// Call at each block boundary (matches the buffered merge's bulk calls
  /// per block).
  void flush_block() {
    if (deliver_count > 0) {
      sink.deliver_bulk(deliver_count);
      deliver_count = 0;
    }
    if (collide_count > 0) {
      sink.collide_bulk(collide_count);
      collide_count = 0;
    }
  }
};

/// The one listener-block fan-out (file comment, steps 2-3). Each backend
/// owns one for its reusable per-block buffers and attentive mask, and
/// writes only the per-block body; the schedule fork lives here.
class BlockSweep {
 public:
  /// Off when the Record hook is a runtime no-op (the dynamic backend at
  /// churn == 1): pooled blocks then buffer no pairs. RecordNone never
  /// buffers. The serial schedule calls the hook either way.
  void set_records_enabled(bool enabled) { records_enabled_ = enabled; }

  /// Runs body(b, emitter) for every block b in [0, blocks); `body` must be
  /// generic in the emitter type. With a pool and more than one block,
  /// every block emits into its own ShardBuffer on the pool, and the
  /// buffers merge into the sink in block order: records into `record`
  /// (sketch insertion order = enumeration order), events in ascending
  /// listener order, bulk counts (which include the deliveries applied
  /// in-block) as one call each per block. Otherwise the
  /// blocks run inline in ascending order through one DirectEmitter,
  /// flushing its bulk counts after each block. A set `attentive` hint
  /// (listeners < n) folds deliveries to listeners outside it into the bulk
  /// counts; `inert_collisions` folds collisions likewise.
  template <class Sink, class Record, class Body>
  void run(ThreadPool* pool, std::uint64_t blocks, bool inert_collisions,
           const std::optional<std::span<const NodeId>>& attentive, NodeId n,
           Sink& sink, Record&& record, const Body& body) {
    const AttentiveFlags* inert_deliveries = nullptr;
    if (attentive.has_value()) {
      flags_.set_round(n, *attentive);
      inert_deliveries = &flags_;
    }
    if (pool != nullptr && blocks > 1) {
      if (buffers_.size() < blocks) buffers_.resize(blocks);
      const bool want_records =
          records_enabled_ &&
          !std::is_same_v<std::remove_cvref_t<Record>, RecordNone>;
      const InBlockDeliveries in_block = in_block_deliveries(sink);
      run_chunked(pool, blocks, [&](std::uint64_t b) {
        ShardBuffer& buf = buffers_[b];
        buf.clear();
        BufferEmitter em{buf, want_records, inert_collisions,
                         inert_deliveries, in_block};
        body(b, em);
      });
      for (std::uint64_t b = 0; b < blocks; ++b) {
        const ShardBuffer& buf = buffers_[b];
        for (const auto& [sender, listener] : buf.records)
          record(sender, listener);
        for (const auto& [listener, sender] : buf.events) {
          if (sender == kNoSender)
            sink.collide(listener);
          else
            sink.deliver(listener, sender);
        }
        if (buf.deliver_count > 0) sink.deliver_bulk(buf.deliver_count);
        if (buf.collide_count > 0) sink.collide_bulk(buf.collide_count);
      }
    } else {
      DirectEmitter<Sink, std::remove_reference_t<Record>> em{
          sink, record, inert_collisions, inert_deliveries};
      for (std::uint64_t b = 0; b < blocks; ++b) {
        body(b, em);
        em.flush_block();
      }
    }
    if (attentive.has_value()) flags_.clear_round(*attentive);
  }

 private:
  AttentiveFlags flags_;
  std::vector<ShardBuffer> buffers_;  ///< per-block output, reused per round
  bool records_enabled_ = true;
};

}  // namespace detail
}  // namespace radnet::sim
