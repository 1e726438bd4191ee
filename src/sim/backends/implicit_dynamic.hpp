// The implicit *dynamic* G(n,p) backend: extends the sampling family of
// backends/implicit.hpp to the full dynamic model set of
// graph/dynamics.hpp — per-round link churn on a stationary G(n,p) (churn
// in (0,1]), permanent node failures, and density schedules p(t) (mobility
// read as density change) — without ever materialising a graph. Pair
// states are tracked *lazily*: only pairs whose state was individually
// resolved — a clean delivery identifies its (sender, listener) pair; the
// sparse path enumerates every present pair it touches — enter a bounded
// per-sender sketch; everything else stays at its exact Bernoulli(p)
// marginal. On re-examination after g rounds a sketched pair keeps its
// recorded state with probability (1 - churn)^g (the probability no
// re-sample hit it) and is re-drawn fresh otherwise — exactly the ChurnGnp
// process for tracked pairs.
//
// Exactness contract of the implicit G(n,p) family (see the README
// backend matrix and exactness table for the family-wide picture):
//   - fixed G(n,p), protocols transmitting at most once per node
//     (Algorithm 1): exact, at *any* churn — no ordered pair is ever
//     examined twice, and under churn the first examination of a pair is
//     still Bernoulli(p) by stationarity.
//   - churn = 1 (memoryless per-round re-sampled G(n,p)) and p(t)
//     schedules at churn = 1: exact for every protocol; this is what the
//     static ImplicitGnpTopology simulates for repeated transmitters.
//   - node failures: exact (independent per-node Bernoulli per round).
//   - churn < 1 with repeated transmitters (gossip, Algorithm 3):
//     *modelled* — positive pair persistence is tracked through the
//     sketch, but negatively-resolved pairs and the unidentified members
//     of collisions fall back to the fresh Bernoulli(p) marginal, so the
//     process sits between the true churn-rho graph and the churn = 1
//     limit. tests/sim/dynamic_topology_equivalence_test.cpp pins the
//     exact regimes against the explicit ChurnGnp oracle statistically
//     and bands the modelled regime.
//
// Parallelism: the round sweeps and the failure injection shard into the
// counter-keyed listener blocks of the shared sampler, and the sketch
// phases shard too, under the per-chunk merge contract of sim/sharding.hpp:
// gather decomposes per fixed-width *sender* chunk (distinct senders own
// disjoint sketch runs and per-sender slots, so chunk walks are race-free;
// each chunk's drop count is summed serially), classify per
// pinned-listener-*group* chunk (groups are independent given the gathered
// pinned set; resolved pairs and pinned events are buffered per chunk and
// replayed serially in ascending chunk = listener order). The round's
// resolved pairs join the sketch in one serial batch at the end of the
// round, in the order the serial schedule resolves them. Every draw
// comes from a (round, chunk)-keyed stream — gather chunk c from
// churn_key.fork(round).fork(c), classify chunk c from the reserved
// kClassifyLane below it — so results are bit-identical at any thread
// count (the serial schedule walks the same chunks inline).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/backends/implicit.hpp"
#include "sim/sharding.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

/// Parameters of the implicit *dynamic* G(n,p) family: per-round link churn
/// with persistence, permanent node failures, and density schedules p(t).
/// The graph is never materialised; at churn < 1 the pair sketch costs
/// n · 16 B of per-sender state (allocated on its first entry) plus one
/// arena of 8 B entries: with B = min(sketch_capacity, n · (n − 1)) and
/// H = min(n, B), compaction keeps the touched arena near
/// (1.25 · B + H) · 8 B, within 2 · (B + H) · 8 B of address space
/// (detail::PairSketch).
/// See the file comment for which regimes are exact vs modelled.
struct ImplicitDynamicGnp {
  NodeId n = 0;
  /// Stationary edge probability (fresh pair draws use the round's p).
  double p = 0.0;
  /// Fraction of ordered-pair states re-sampled per round, in (0, 1].
  /// churn = 1 is the memoryless per-round-resampled G(n,p) of
  /// graph/dynamics.hpp; churn < 1 persists pair states between rounds,
  /// tracked lazily through the pair sketch.
  double churn = 1.0;
  /// Per-node, per-round probability of permanent radio failure. A failed
  /// node neither delivers nor hears from its failure round on; its
  /// transmit attempts still spend ledger energy (the node cannot know its
  /// radio died). Must be in [0, 1). Note the honest consequence: goals of
  /// the form "every node informed" become unreachable once any uninformed
  /// node fails, so run failure scenarios with a fixed horizon (or read
  /// the incompletion as the result, as the failure-injection tests do).
  double fail_prob = 0.0;
  /// Optional density schedule: the edge probability in force during round
  /// r is clamp(p_of_round(r), 0, 1). Empty means constant p. Models
  /// mobility as density change (devices drifting apart / together);
  /// exact at churn = 1, modelled otherwise.
  std::function<double(std::uint32_t)> p_of_round;
  /// Bound on the pair-state sketch, in entries (8 B each, plus arena
  /// headers and slack, see above; must stay below 2^30). When full, new
  /// positive resolutions are forgotten instead of tracked (modelled
  /// fallback); stale entries are recycled continuously.
  std::uint32_t sketch_capacity = 1u << 22;
  /// Root of the backend's private randomness, split into the sub-streams
  /// below; a run consumes a copy, so the same spec replays identically.
  Rng rng{};

  /// Sub-stream derivation constants. The backend draws edge/classification
  /// randomness from rng.split(kEdgeStream), sketch persistence draws from
  /// rng.split(kChurnStream) and failure draws from rng.split(kFailStream),
  /// so the three consumers can never interleave-collide with each other or
  /// with the harness's (seed, trial, phase) streams — audited by
  /// tests/support/rng_test.cpp.
  static constexpr std::uint64_t kEdgeStream = 0xed6eull;
  static constexpr std::uint64_t kChurnStream = 0xc4a7ull;
  static constexpr std::uint64_t kFailStream = 0xfa11ull;
};

namespace detail {

/// One pair a round resolved present: (sender, listener).
using PairRecord = std::pair<NodeId, NodeId>;

/// Bounded store of individually resolved *present* ordered pairs, indexed
/// by sender so a round touches exactly the entries whose sender transmits.
/// A sender's entries are one contiguous run of 8 B {listener, round}
/// entries, oldest to newest, in one arena; per sender it keeps the run's
/// end and length, an oldest-round bound and a count append_round() uses
/// (16 B per sender, allocated on the first insert). Every arena block
/// starts with a header entry {sender, allocated}, so compaction finds the
/// live runs in arena order and slides them down in place, with no second
/// buffer. A round's inserts arrive as one batch (append_round), which
/// moves each touched sender's run to the arena tail with its new entries
/// appended. When the sketch is full, new resolutions are dropped (the
/// modelled fallback) until stale entries are recycled.
///
/// Memory: a sketch never holds two entries for one ordered pair, so it
/// sizes its arena by B = min(capacity, n · (n − 1)) entries plus one
/// header per sender that can hold one, H = min(n, B). The arena reserves
/// 2 · (B + H) entries, the most a round's moves can need right after a
/// compaction. A compaction is due once the tail would pass twice the live
/// footprint of the last one, or B + H + B / 4, so only the pages below
/// that mark are touched unless one round's moves outgrow it: about
/// n · 16 B + (1.25 · B + H) · 8 B.
class PairSketch {
 public:
  void reset(NodeId senders, std::size_t capacity) {
    runs_.clear();
    oldest_.clear();
    pending_.clear();
    senders_ = senders;
    size_ = 0;
    capacity_ = capacity;
    tail_ = 0;
    const std::uint64_t pairs =
        std::uint64_t{senders} * (senders > 0 ? senders - 1 : 0);
    const std::uint64_t bound = std::min<std::uint64_t>(capacity, pairs);
    const std::uint64_t headers = std::min<std::uint64_t>(senders, bound);
    RADNET_REQUIRE(2 * (bound + headers) <= kMaxArena,
                   "pair sketch arena exceeds 2^32 entries (keep the "
                   "sketch capacity below 2^30)");
    arena_need_ = 2 * (bound + headers);
    soft_limit_ = bound + headers + bound / 4;
    compact_at_ = std::min(soft_limit_, kMinSpan);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Inserts the next round may still make before the sketch is full.
  [[nodiscard]] std::size_t room() const noexcept {
    return capacity_ - size_;
  }

  /// Compactions since construction (for tests / diagnostics).
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

  /// Walks sender's entries newest first, calling f(listener, round&); f
  /// returns whether to keep the entry (it may update the round in place).
  /// Kept entries stay in order, packed toward the run's end. Returns how
  /// many entries were dropped, which size() does not reflect until the
  /// caller passes it to release(): only sender's run and per-sender slots
  /// are written, so concurrent calls for distinct senders are race-free.
  template <class F>
  std::size_t visit(NodeId sender, F&& f) {
    if (runs_.empty() || runs_[sender].len == 0) return 0;
    Run& run = runs_[sender];
    Entry* const arena = arena_.get();
    std::uint32_t kept = run.end;  // kept entries fill [kept, end)
    std::uint32_t oldest = kNoRound;
    for (std::uint32_t i = run.end; i-- > run.end - run.len;) {
      Entry e = arena[i];
      if (f(e.node, e.aux)) {
        oldest = std::min(oldest, e.aux);
        arena[--kept] = e;
      }
    }
    const std::size_t dropped = run.len - (run.end - kept);
    run.len = run.end - kept;
    oldest_[sender] = oldest;
    return dropped;
  }

  /// Accounts for the entries a batch of visit() calls dropped.
  void release(std::size_t dropped) noexcept { size_ -= dropped; }

  /// Drops every entry older than `horizon` rounds — reclaims the entries
  /// of senders that stopped transmitting. A linear scan of the
  /// oldest-round bounds finds the runs holding a stale entry; only those
  /// are walked.
  void drop_stale(std::uint32_t round, std::uint64_t horizon) {
    for (std::size_t s = 0; s < runs_.size(); ++s) {
      if (runs_[s].len == 0 || round - oldest_[s] <= horizon) continue;
      release(visit(static_cast<NodeId>(s),
                    [&](NodeId, const std::uint32_t& entry_round) {
                      return round - entry_round <= horizon;
                    }));
    }
  }

  /// Inserts one round's resolved pairs, given in the order the round
  /// resolved them. Only the first room() of them land: inserting them one
  /// by one drops the same ones, since nothing frees an entry in between.
  /// Each touched sender's run moves to the arena tail with room for its
  /// new entries, which follow in round order, newest last.
  void append_round(std::span<const PairRecord> records, std::uint32_t round) {
    records = records.first(std::min(records.size(), room()));
    if (records.empty()) return;
    if (runs_.empty()) allocate();
    for (const PairRecord& r : records)
      if (pending_[r.first]++ == 0) touched_.push_back(r.first);
    std::uint64_t need = 0;  // one header and the grown run per sender
    for (const NodeId s : touched_) need += 1 + runs_[s].len + pending_[s];
    if (tail_ + need > compact_at_) compact();
    RADNET_CHECK(tail_ + need <= arena_size_, "pair sketch arena overflow");
    // pending_ turns into each run's write cursor, then back to 0.
    for (const NodeId s : touched_)
      pending_[s] = move_to_tail(s, pending_[s], round);
    Entry* const arena = arena_.get();
    for (const PairRecord& r : records)
      arena[pending_[r.first]++] = {r.second, round};
    for (const NodeId s : touched_) pending_[s] = 0;
    touched_.clear();
    size_ += records.size();
  }

 private:
  /// A run entry is {listener, round}; a block header is {sender, number
  /// of entries allocated behind it}. No default member initialisers: the
  /// arena's pages stay untouched until a block is written there.
  struct Entry {
    NodeId node;
    std::uint32_t aux;
  };
  /// A sender's live entries: [end - len, end), at the end of its block.
  struct Run {
    std::uint32_t end = 0;
    std::uint32_t len = 0;
  };
  static constexpr std::uint32_t kNoRound = 0xffffffffu;
  static constexpr std::uint64_t kMaxArena = 0xffffffffu;
  /// Tail span below which the arena never compacts (256 KB).
  static constexpr std::uint64_t kMinSpan = 1u << 15;

  void allocate() {
    runs_.assign(senders_, Run{});
    oldest_.resize(senders_);
    pending_.assign(senders_, 0);
    if (arena_size_ < arena_need_) {
      arena_.reset();
      arena_ = std::make_unique_for_overwrite<Entry[]>(arena_need_);
      arena_size_ = arena_need_;
    }
  }

  /// Copies sender's run into a new block at the tail, ahead of room for
  /// `add` new entries; returns where the first of those goes. The old
  /// block becomes garbage for the next compaction.
  std::uint32_t move_to_tail(NodeId sender, std::uint32_t add,
                             std::uint32_t round) {
    Run& run = runs_[sender];
    const std::uint32_t size = run.len + add;
    Entry* const block = arena_.get() + tail_;
    block[0] = {sender, size};
    std::copy_n(arena_.get() + (run.end - run.len), run.len, block + 1);
    // New entries carry the current round: an empty run's bound is it.
    if (run.len == 0) oldest_[sender] = round;
    const auto first_new = static_cast<std::uint32_t>(tail_ + 1 + run.len);
    tail_ += 1 + size;
    run = {static_cast<std::uint32_t>(tail_), size};
    return first_new;
  }

  /// Slides every live run down to the start of the arena in arena order,
  /// each behind a header sized to it, and drops the garbage in between.
  /// A sender's live block is its last one, so a header is live exactly
  /// when its sender's run still ends where the block ends.
  void compact() {
    Entry* const arena = arena_.get();
    std::uint32_t out = 0;
    for (std::uint32_t p = 0; p < tail_;) {
      const Entry header = arena[p];
      const std::uint32_t end = p + 1 + header.aux;
      Run& run = runs_[header.node];
      if (run.len > 0 && run.end == end) {
        arena[out] = {header.node, run.len};
        std::memmove(arena + out + 1, arena + (end - run.len),
                     run.len * sizeof(Entry));
        run.end = out + 1 + run.len;
        out = run.end;
      }
      p = end;
    }
    tail_ = out;
    ++compactions_;
    compact_at_ = std::min(soft_limit_, std::max(kMinSpan, 2 * tail_));
  }

  std::unique_ptr<Entry[]> arena_;  ///< kept across reset() when big enough
  std::uint64_t arena_size_ = 0;    ///< entries allocated in arena_
  std::uint64_t arena_need_ = 0;    ///< 2 · (B + H), see the class comment
  std::uint64_t soft_limit_ = 0;    ///< B + H + B / 4
  std::uint64_t compact_at_ = 0;    ///< tail mark that triggers compaction
  std::uint64_t tail_ = 0;          ///< first arena entry past every block
  std::vector<Run> runs_;           ///< per-sender live run
  std::vector<std::uint32_t> oldest_;  ///< per-sender min round in the run
  std::vector<std::uint32_t> pending_;  ///< append_round: per-sender count
  std::vector<NodeId> touched_;         ///< append_round: senders touched
  NodeId senders_ = 0;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace detail

/// The implicit *dynamic* G(n,p) backend: link churn with lazy pair-state
/// tracking, permanent node failures and density schedules, all without
/// ever materialising a graph. See the file comment for the model and the
/// exact-vs-modelled regimes; statistically pinned against the explicit
/// ChurnGnp oracle by tests/sim/dynamic_topology_equivalence_test.cpp.
class ImplicitDynamicGnpTopology {
 public:
  explicit ImplicitDynamicGnpTopology(const ImplicitDynamicGnp& spec)
      : churn_(spec.churn),
        fail_prob_(spec.fail_prob),
        p_of_round_(spec.p_of_round) {
    RADNET_REQUIRE(spec.churn > 0.0 && spec.churn <= 1.0,
                   "churn must be in (0, 1]");
    RADNET_REQUIRE(spec.fail_prob >= 0.0 && spec.fail_prob < 1.0,
                   "fail_prob must be in [0, 1)");
    sampler_.init(spec.n, spec.p, spec.rng.split(ImplicitDynamicGnp::kEdgeStream));
    churn_key_ =
        StreamKey::from_rng(spec.rng.split(ImplicitDynamicGnp::kChurnStream));
    fail_key_ =
        StreamKey::from_rng(spec.rng.split(ImplicitDynamicGnp::kFailStream));
    // At churn = 1 nothing is tracked: the record hook is a no-op, so the
    // sharded sweeps need not buffer resolved pairs.
    sampler_.set_records_enabled(churn_ < 1.0);
    if (churn_ < 1.0) {
      log1m_churn_ = std::log1p(-churn_);
      // Beyond the horizon a pair survives un-resampled with probability
      // < 1e-12: its recorded state is numerically indistinguishable from
      // a fresh Bernoulli(p), so the entry can be recycled.
      // Rounds are 32-bit, so no entry is ever older than 2^32 - 1: the
      // clamp keeps the cast defined at any churn the spec accepts.
      horizon_ = static_cast<std::uint64_t>(std::min(
          std::ceil(std::log(1e-12) / log1m_churn_), 4294967295.0));
      sketch_.reset(spec.n, spec.sketch_capacity);
      // Start reclaiming stale entries once the pool is three-quarters
      // full (never at zero capacity).
      sketch_watermark_ =
          std::max<std::size_t>(1, spec.sketch_capacity / 4u * 3u);
      marks_.assign(spec.n, 0);
    }
    if (fail_prob_ > 0.0) {
      inv_log1m_fail_ = 1.0 / std::log1p(-fail_prob_);
      failed_.assign(spec.n, 0);
    }
  }

  [[nodiscard]] NodeId num_nodes() const { return sampler_.n(); }

  /// Number of live pair-state sketch entries (for tests / diagnostics).
  [[nodiscard]] std::size_t sketch_size() const { return sketch_.size(); }

  /// Number of sketch arena compactions so far (for tests / diagnostics).
  [[nodiscard]] std::uint64_t sketch_compactions() const {
    return sketch_.compactions();
  }

  /// Number of permanently failed nodes so far.
  [[nodiscard]] NodeId failed_count() const { return failed_count_; }

  /// Accepted for the sharded sweep, the failure injection and the sketch
  /// phases (gather per sender chunk, classify per pinned-group chunk);
  /// serial when null. Either way the output is bit-identical — every
  /// phase is chunk-decomposed and counter-keyed the same way regardless.
  void set_parallelism(ThreadPool* pool) {
    pool_ = pool;
    sampler_.set_parallelism(pool);
  }

  void begin_round(std::uint32_t round) {
    round_ = round;
    sampler_.begin_round(round);
    // The sketch and failure streams are keyed per (round, chunk/block) at
    // phase time: every draw this round is a pure function of (spec seed,
    // round, position), never of how many draws earlier rounds consumed.
    if (p_of_round_)
      sampler_.set_p(std::clamp(p_of_round_(round), 0.0, 1.0));
    if (fail_prob_ > 0.0) draw_failures();
    // Lazily reclaim entries of senders that stopped transmitting once the
    // pool fills up; at most one linear sweep per horizon window.
    if (churn_ < 1.0 && sketch_.size() >= sketch_watermark_ &&
        round_ - last_sweep_round_ > horizon_) {
      sketch_.drop_stale(round_, horizon_);
      last_sweep_round_ = round_;
    }
  }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath /*path*/,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    // Dead radios transmit into the void: filter them out of the round.
    std::span<const NodeId> tx = transmitters;
    if (failed_count_ > 0) {
      live_tx_.clear();
      for (const NodeId u : transmitters)
        if (!failed_[u]) live_tx_.push_back(u);
      tx = {live_tx_.data(), live_tx_.size()};
    }
    const std::uint64_t k = tx.size();
    if (k == 0) return;
    const bool sampling = sampler_.p() > 0.0;
    const bool tracking = churn_ < 1.0;
    if (!sampling && (!tracking || sketch_.size() == 0)) return;

    // Phase 1: resolve every sketched pair whose sender transmits — these
    // listeners ("pinned") have conditioned, non-exchangeable hit laws and
    // are classified individually below.
    pinned_.clear();
    if (tracking && sketch_.size() > 0)
      gather_pinned(tx, is_tx, half_duplex);

    // The round's resolved pairs join the sketch in one batch at the end
    // (nothing reads it in between); only the first room() can land, so
    // the buffer keeps no more.
    const std::size_t room = tracking ? sketch_.room() : 0;
    const auto record = [&](NodeId sender, NodeId listener) {
      if (round_records_.size() < room)
        round_records_.emplace_back(sender, listener);
    };
    const auto skip = [&](NodeId v) {
      return (tracking && marks_[v] != 0) ||
             (failed_count_ > 0 && failed_[v] != 0);
    };

    std::uint64_t pinned_nontx = 0, pinned_tx = 0;
    pinned_events_.clear();
    classify_pinned(tx, is_tx, half_duplex, &pinned_nontx, &pinned_tx,
                    record);

    if (sampling) {
      const std::uint64_t live = sampler_.n() - failed_count_;
      RADNET_CHECK(live >= k + pinned_nontx,
                   "pinned listeners exceed the live universe");
      const std::uint64_t universe_nontx = live - k - pinned_nontx;
      const std::uint64_t universe_tx = k - pinned_tx;
      const double expected_events =
          static_cast<double>(sampler_.n()) *
          std::min(1.0, static_cast<double>(k) * sampler_.p());
      if (attentive.has_value() &&
          static_cast<double>(attentive->size()) < expected_events) {
        // Attentive mode: pinned events first (ascending listener), then
        // the hint's listeners in hint order, then the aggregates.
        for (const PinnedEvent& e : pinned_events_) emit(e, sink);
        sampler_.attentive_round(tx, is_tx, half_duplex, *attentive,
                                 collisions_inert, sink, skip, record,
                                 universe_nontx, universe_tx);
      } else {
        // Sweep mode: merge the pre-drawn pinned events into the sweep's
        // ascending listener order.
        MergeSink<Sink> merged{sink, pinned_events_, 0, this};
        sampler_.sweep(tx, is_tx, half_duplex, attentive, collisions_inert,
                       merged, skip, record);
        merged.flush_all();
      }
    } else {
      // p(t) == 0 this round: only persisted pairs can deliver.
      for (const PinnedEvent& e : pinned_events_) emit(e, sink);
    }

    if (tracking) {
      for (const PinnedTouch& t : pinned_) marks_[t.listener] = 0;
      sketch_.append_round(round_records_, round_);
      round_records_.clear();
    }
  }

 private:
  struct PinnedTouch {
    NodeId listener;
    NodeId sender;
    bool present;
  };
  struct PinnedEvent {
    NodeId listener;
    NodeId sender;  // meaningful only for deliveries
    bool is_delivery;
  };

  /// Fixed chunk width of both sharded sketch phases (senders for gather,
  /// pinned-listener groups for classify). Part of the randomness
  /// contract: chunk c of a phase owns its (round, chunk)-keyed stream, so
  /// the decomposition must never depend on thread count — the serial
  /// schedule walks the same chunks inline.
  static constexpr std::uint64_t kSketchChunkSize = 1024;

  /// Reserved fork counter separating the classify phase's chunk streams
  /// from the gather phase's within a round's churn key. Chunk counters
  /// stay below 2^32, so the two families can never collide.
  static constexpr std::uint64_t kClassifyLane = 0x1'0000'0001ull;

  /// One chunk's private scratch for the sharded sketch phases, reused
  /// across rounds (cleared, never shrunk) so steady-state rounds allocate
  /// nothing — pinned by tests/sim/shard_scratch_test.cpp.
  struct SketchShard {
    std::vector<PinnedTouch> pinned;   ///< gather: touches in walk order
    std::size_t dropped = 0;           ///< gather: entries the walk dropped
    std::vector<PinnedEvent> events;   ///< classify: events in group order
    std::vector<std::pair<NodeId, NodeId>> records;  ///< classify: (sender, listener)
    std::uint64_t nontx = 0;  ///< classify: non-transmitting pinned groups
    std::uint64_t tx = 0;     ///< classify: transmitting pinned groups
  };

  template <class Sink>
  void emit(const PinnedEvent& e, Sink& sink) const {
    if (e.is_delivery)
      sink.deliver(e.listener, e.sender);
    else
      sink.collide(e.listener);
  }

  /// Forwards sweep events to the engine sink, flushing buffered pinned
  /// events whose listener precedes the sweep's current listener so the
  /// combined stream stays in ascending receiver order. Pinned listeners
  /// are marked and therefore never also produced by the sweep.
  template <class Sink>
  struct MergeSink {
    Sink& inner;
    const std::vector<PinnedEvent>& pending;
    std::size_t next;
    const ImplicitDynamicGnpTopology* self;

    void flush_upto(NodeId v) {
      while (next < pending.size() && pending[next].listener < v)
        self->emit(pending[next++], inner);
    }
    void flush_all() {
      while (next < pending.size()) self->emit(pending[next++], inner);
    }
    void deliver(NodeId receiver, NodeId sender) {
      flush_upto(receiver);
      inner.deliver(receiver, sender);
    }
    void collide(NodeId receiver) {
      flush_upto(receiver);
      inner.collide(receiver);
    }
    void deliver_bulk(std::uint64_t count) { inner.deliver_bulk(count); }
    void collide_bulk(std::uint64_t count) { inner.collide_bulk(count); }
    // In-block deliveries bypass the merge: receiver-local callbacks
    // commute, so the pinned events need no interleaving with them.
    [[nodiscard]] detail::InBlockDeliveries in_block_deliveries() const {
      return detail::in_block_deliveries(inner);
    }
  };

  /// Walks the sketch lists of this round's transmitters — sharded per
  /// fixed-width sender chunk under the per-chunk merge contract
  /// (sim/sharding.hpp) — and resolves each touched pair's persistence:
  /// the recorded present state survives with probability (1-churn)^age
  /// (no re-sample hit it — memoryless, so the entry's clock restarts at
  /// this round), otherwise the pair re-draws fresh Bernoulli(p). Negative
  /// outcomes drop the entry (absence is not stored — the modelled
  /// fallback). Pairs whose listener cannot hear this round (failed, or
  /// transmitting under half-duplex) are left untouched: their state is
  /// unobservable, so it just keeps ageing. Chunk c draws from
  /// churn_key.fork(round).fork(c); chunk walks touch disjoint sketch
  /// runs, and their drop counts are summed serially, so the sketch ends
  /// the phase in the exact state the serial chunk walk leaves it in.
  void gather_pinned(std::span<const NodeId> tx,
                     const std::vector<char>& is_tx, bool half_duplex) {
    const std::uint64_t chunks =
        detail::block_count(tx.size(), kSketchChunkSize);
    if (shards_.size() < chunks) shards_.resize(chunks);
    const StreamKey key = churn_key_.fork(round_);
    detail::run_chunked(pool_, chunks, [&](std::uint64_t c) {
      gather_chunk(c, tx, is_tx, half_duplex, key);
    });
    std::size_t dropped = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const SketchShard& shard = shards_[c];
      pinned_.insert(pinned_.end(), shard.pinned.begin(), shard.pinned.end());
      dropped += shard.dropped;
    }
    sketch_.release(dropped);
    sort_pinned_by_listener();
    for (const PinnedTouch& t : pinned_) marks_[t.listener] = 1;
  }

  /// Stable LSD radix sort of pinned_ by listener, 11-bit digits, as many
  /// passes as the largest node id needs: equal listeners keep their
  /// gather order, so the result is the (listener, gather index) order.
  /// Counts and the ping-pong buffer are reused member scratch, so
  /// steady-state rounds allocate nothing (tests/sim/shard_scratch_test.cpp).
  void sort_pinned_by_listener() {
    constexpr unsigned kBits = 11;
    constexpr std::uint32_t kMask = (1u << kBits) - 1;
    const std::uint64_t max_listener = sampler_.n() - 1;
    pinned_scratch_.resize(pinned_.size());
    for (unsigned shift = 0; (max_listener >> shift) != 0; shift += kBits) {
      radix_counts_.assign(std::size_t{1} << kBits, 0);
      for (const PinnedTouch& t : pinned_)
        ++radix_counts_[(t.listener >> shift) & kMask];
      std::uint32_t offset = 0;
      for (std::uint32_t& c : radix_counts_) {
        const std::uint32_t count = c;
        c = offset;
        offset += count;
      }
      for (const PinnedTouch& t : pinned_)
        pinned_scratch_[radix_counts_[(t.listener >> shift) & kMask]++] = t;
      pinned_.swap(pinned_scratch_);
    }
  }

  /// One gather chunk: walks the sketch runs of senders
  /// tx[c·chunk, (c+1)·chunk) with the stream key.fork(c), accumulating
  /// pinned touches and the drop count in the chunk's private scratch.
  void gather_chunk(std::uint64_t c, std::span<const NodeId> tx,
                    const std::vector<char>& is_tx, bool half_duplex,
                    const StreamKey& key) {
    SketchShard& shard = shards_[c];
    shard.pinned.clear();
    shard.dropped = 0;
    Rng rng = key.fork(c).make_rng();
    const auto [lo, hi] = detail::block_range(c, kSketchChunkSize, tx.size());
    for (std::uint64_t s = lo; s < hi; ++s) {
      const NodeId t = tx[s];
      shard.dropped += sketch_.visit(
          t, [&](NodeId w, std::uint32_t& entry_round) {
            const std::uint64_t age = round_ - entry_round;
            if (age > horizon_) return false;  // numerically fresh again
            if (failed_count_ > 0 && failed_[w] != 0) return true;
            if (half_duplex && is_tx[w]) return true;
            bool present = true;
            if (age > 0) {
              const double survive =
                  std::exp(static_cast<double>(age) * log1m_churn_);
              if (rng.next_double() >= survive)
                present = rng.bernoulli(sampler_.p());
            }
            if (present) entry_round = round_;
            shard.pinned.push_back({w, t, present});
            return present;
          });
    }
  }

  /// Classifies each pinned listener: total hits = resolved sketch hits +
  /// Binomial(k_unknown, p) over its untracked pairs, collapsed to the
  /// silent / single / collided classes the engine distinguishes. Sharded
  /// per pinned-listener-group chunk: groups are independent given the
  /// gathered pinned set (classification reads pinned_ and tx only), chunk
  /// c draws from the reserved classify lane's fork(c), and the per-chunk
  /// event buffers and sketch records merge serially in ascending chunk —
  /// i.e. listener — order, so pinned_events_ ends the phase in ascending
  /// listener order and the sketch sees insertions in the order the serial
  /// chunk walk produces.
  template <class Record>
  void classify_pinned(std::span<const NodeId> tx,
                       const std::vector<char>& is_tx, bool half_duplex,
                       std::uint64_t* pinned_nontx, std::uint64_t* pinned_tx,
                       Record&& record) {
    group_starts_.clear();
    for (std::size_t i = 0; i < pinned_.size(); ++i)
      if (i == 0 || pinned_[i].listener != pinned_[i - 1].listener)
        group_starts_.push_back(i);
    const std::uint64_t groups = group_starts_.size();
    if (groups == 0) return;
    group_starts_.push_back(pinned_.size());  // end sentinel
    const std::uint64_t chunks = detail::block_count(groups, kSketchChunkSize);
    if (shards_.size() < chunks) shards_.resize(chunks);
    const StreamKey key = churn_key_.fork(round_).fork(kClassifyLane);
    detail::run_chunked(pool_, chunks, [&](std::uint64_t c) {
      classify_chunk(c, tx, is_tx, half_duplex, key);
    });
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const SketchShard& shard = shards_[c];
      *pinned_nontx += shard.nontx;
      *pinned_tx += shard.tx;
      for (const auto& [sender, listener] : shard.records)
        record(sender, listener);
      pinned_events_.insert(pinned_events_.end(), shard.events.begin(),
                            shard.events.end());
    }
  }

  /// One classify chunk: groups [c·chunk, (c+1)·chunk) of the sorted
  /// pinned set, drawn from the stream key.fork(c) into private event /
  /// record scratch.
  void classify_chunk(std::uint64_t c, std::span<const NodeId> tx,
                      const std::vector<char>& is_tx, bool half_duplex,
                      const StreamKey& key) {
    SketchShard& shard = shards_[c];
    shard.events.clear();
    shard.records.clear();
    shard.nontx = 0;
    shard.tx = 0;
    Rng rng = key.fork(c).make_rng();
    const std::uint64_t k = tx.size();
    const std::uint64_t groups = group_starts_.size() - 1;
    const auto [glo, ghi] = detail::block_range(c, kSketchChunkSize, groups);
    for (std::uint64_t g = glo; g < ghi; ++g) {
      const std::size_t i = group_starts_[g];
      const std::size_t j = group_starts_[g + 1];
      std::uint32_t hits_known = 0;
      NodeId stored_sender = 0;
      const NodeId w = pinned_[i].listener;
      for (std::size_t s = i; s < j; ++s) {
        if (pinned_[s].present) {
          ++hits_known;
          stored_sender = pinned_[s].sender;
        }
      }
      const std::uint64_t cnt_known = j - i;
      const bool wtx = is_tx[w] != 0;
      ++(wtx ? shard.tx : shard.nontx);
      const std::uint64_t eligible =
          k - cnt_known - (wtx && !half_duplex ? 1u : 0u);
      if (hits_known >= 2) {
        shard.events.push_back({w, 0, false});
      } else {
        const auto probs = sampler_.outcome_probs_for(eligible);
        const double u = rng.next_double();
        if (hits_known == 1) {
          // One tracked hit: collision iff any untracked pair also hits.
          if (u < probs.silent)
            shard.events.push_back({w, stored_sender, true});
          else
            shard.events.push_back({w, 0, false});
        } else if (u >= probs.silent) {
          if (u < probs.silent + probs.single) {
            const NodeId sender = pick_unknown_sender(rng, tx, w, wtx, i, j);
            shard.records.emplace_back(sender, w);
            shard.events.push_back({w, sender, true});
          } else {
            shard.events.push_back({w, 0, false});
          }
        }
      }
    }
  }

  /// Uniform draw over the transmitters whose pair to `w` is untracked
  /// (rejecting w itself and the listeners' resolved senders — a handful
  /// at most, so rejection terminates fast; probs.single > 0 guarantees
  /// the untracked set is non-empty). Draws from the calling chunk's
  /// stream.
  NodeId pick_unknown_sender(Rng& rng, std::span<const NodeId> tx, NodeId w,
                             bool wtx, std::size_t begin, std::size_t end) {
    for (;;) {
      const NodeId cand =
          tx[static_cast<std::size_t>(rng.uniform_below(tx.size()))];
      if (wtx && cand == w) continue;
      bool tracked = false;
      for (std::size_t s = begin; s < end; ++s)
        if (pinned_[s].sender == cand) {
          tracked = true;
          break;
        }
      if (!tracked) return cand;
    }
  }

  /// Each live node fails independently with fail_prob per round; landing
  /// on an already-failed node is a no-op, so a skip-sampled sweep of
  /// [0, n) is exact — and because failures are independent per node, the
  /// sweep shards into the same counter-keyed listener blocks as the round
  /// sweep (disjoint failed_ ranges; per-block new-failure counts summed
  /// serially).
  void draw_failures() {
    const std::uint64_t n = sampler_.n();
    const StreamKey round_key = fail_key_.fork(round_);
    const std::uint64_t blocks =
        detail::block_count(n, detail::kShardBlockSize);
    fail_counts_.assign(blocks, 0);
    detail::run_chunked(pool_, blocks, [&](std::uint64_t b) {
      Rng rng = round_key.fork(b).make_rng();
      const auto [lo, hi] = detail::block_range(b, detail::kShardBlockSize, n);
      NodeId fresh = 0;
      for (std::uint64_t o = rng.geometric_inv(inv_log1m_fail_) - 1;
           o < hi - lo; o += rng.geometric_inv(inv_log1m_fail_)) {
        if (!failed_[lo + o]) {
          failed_[lo + o] = 1;
          ++fresh;
        }
      }
      fail_counts_[b] = fresh;
    });
    for (const NodeId fresh : fail_counts_) failed_count_ += fresh;
  }

  detail::GnpSampler sampler_;
  double churn_;
  double fail_prob_;
  std::function<double(std::uint32_t)> p_of_round_;
  StreamKey churn_key_;  ///< per-(round, chunk) sketch stream root
  StreamKey fail_key_;   ///< per-(round, block) failure stream root
  ThreadPool* pool_ = nullptr;
  std::vector<NodeId> fail_counts_;  ///< per-block new failures, merged serially
  double log1m_churn_ = 0.0;
  double inv_log1m_fail_ = 0.0;
  std::uint64_t horizon_ = 0;
  std::uint32_t round_ = 0;
  std::uint32_t last_sweep_round_ = 0;
  std::size_t sketch_watermark_ = 0;

  detail::PairSketch sketch_;
  std::vector<char> marks_;
  std::vector<char> failed_;
  NodeId failed_count_ = 0;
  std::vector<NodeId> live_tx_;
  std::vector<PinnedTouch> pinned_;
  std::vector<PinnedEvent> pinned_events_;
  std::vector<SketchShard> shards_;       ///< per-chunk scratch, reused
  std::vector<detail::PairRecord> round_records_;  ///< this round's inserts
  std::vector<std::uint32_t> radix_counts_;  ///< gather sort scratch
  std::vector<PinnedTouch> pinned_scratch_;  ///< gather sort scratch
  std::vector<std::size_t> group_starts_; ///< pinned group offsets + sentinel
};

}  // namespace radnet::sim
