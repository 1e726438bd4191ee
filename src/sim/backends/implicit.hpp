// The implicit G(n,p) backend: the graph is never materialised. For
// directed G(n,p) the number of transmissions a listener hears, given k
// transmitters, is Binomial(k, p) independently per listener (with k-1 for
// a listener that is itself a transmitter: self-loops do not exist), and
// conditioned on hearing exactly one, the sender is uniform over the
// eligible transmitters. A round therefore costs O(n) — or O(expected
// hits) in sparse rounds via geometric skip-sampling over the
// transmitter x listener pair grid — with zero graph memory.
//
// Exactness contract: exactly equivalent to a fixed G(n,p) whenever each
// node transmits at most once (Algorithm 1: no ordered pair is ever
// examined twice); for repeated transmitters it simulates the memoryless
// churn = 1 limit — see backends/implicit_dynamic.hpp for the full
// dynamic model set, and the README backend matrix + exactness table for
// the family-wide picture.
//
// Within-trial parallelism: listener outcomes are independent across
// listeners (and the pair grid independent across pairs), so a round sweep
// decomposes exactly into contiguous listener blocks of kShardBlockSize.
// Each (round, block) derives a private Rng by counter keying (StreamKey in
// support/rng.hpp) — never from a shared sequential stream — so blocks can
// execute on the thread pool in any order and still produce bit-identical
// results for any thread count. The blocks run through the one block
// fan-out of sim/sharding.hpp (BlockSweep), which owns the buffering, the
// ascending-listener merge and the in-place receiver-local deliveries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/sharding.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"

namespace radnet::sim {

/// Parameters of an implicit (never materialised) directed G(n,p) topology.
/// `rng` is the private edge-randomness stream; a run consumes a copy, so
/// the same spec replays identically.
struct ImplicitGnp {
  NodeId n = 0;
  double p = 0.0;
  Rng rng{};
};

namespace detail {

/// The shared sampling core of the implicit G(n,p) family: per-listener
/// outcome laws and the sparse / dense / attentive round strategies. Both
/// implicit backends delegate here; the dynamic backend adds two hooks —
///   Skip:   bool skip(listener)  — listeners handled elsewhere this round
///           (sketch-pinned) or unable to hear (failed); sampled paths
///           reject them, aggregate universes exclude them by count. Must
///           be safe to call concurrently (it only reads per-round state).
///   Record: record(sender, listener) — called for every ordered pair
///           individually resolved *present* (a clean delivery's sender,
///           every hit the sparse pair grid enumerates); the dynamic
///           backend persists these in its sketch. Only invoked serially,
///           during buffer merge.
///
/// Randomness is counter-keyed, never sequential: begin_round(r) forks a
/// per-round key, every sweep block b draws from fork(r).fork(b), and the
/// serial attentive/aggregate path from a reserved lane of the same round
/// key. A draw is a pure function of (backend seed, round, block), so the
/// sweep is bit-identical for any thread count and any block execution
/// order.
class GnpSampler {
 public:
  /// Listeners per shard block. Fixed — part of the randomness contract:
  /// results depend on the block decomposition, never on thread count.
  static constexpr NodeId kShardBlockSize = detail::kShardBlockSize;

  /// Reserved fork counters: kAuxLane feeds the serial aggregate draws,
  /// kAttentiveLane roots the attentive path's per-chunk streams. Sweep
  /// block indices stay below 2^32, so lanes >= 2^32 can never collide.
  static constexpr std::uint64_t kAuxLane = 0x1'0000'0001ull;
  static constexpr std::uint64_t kAttentiveLane = 0x1'0000'0002ull;

  /// Sub-stream layout of a dense plain-sweep block's key: fork counters
  /// 0 .. LaneRng::kLanes-1 seed the lane generator (the listener at block
  /// offset i consumes lane i % kLanes's draw number i / kLanes — a pure
  /// function of the offset, so classification batches without any
  /// per-listener branching), and kSenderSubLane feeds the block's sender
  /// stream, consumed in ascending listener order by the deliveries. The
  /// split decouples the fixed-rate classification draws from the
  /// variable-length sender draws (Lemire rejection), which is what lets
  /// the classification vectorise at all.
  static constexpr std::uint64_t kSenderSubLane = LaneRng::kLanes;

  void init(NodeId n, double p, Rng rng) {
    RADNET_REQUIRE(n >= 1, "implicit G(n,p) needs n >= 1");
    RADNET_REQUIRE(p >= 0.0 && p <= 1.0, "p must be in [0,1]");
    n_ = n;
    key_ = StreamKey::from_rng(rng);
    begin_round(0);
    set_p(p);
  }

  /// Serial blocks when null (the default); sharded sweeps on `pool`
  /// otherwise. Either way the output is bit-identical.
  void set_parallelism(ThreadPool* pool) { pool_ = pool; }

  /// The dynamic backend turns this off when it is not tracking pair
  /// states (churn == 1): its Record hook is then a runtime no-op, and
  /// buffering resolutions for it would be pure overhead. Purely a
  /// buffering knob — the serial path calls the hook either way.
  void set_records_enabled(bool enabled) {
    blocks_.set_records_enabled(enabled);
  }

  /// Forks the round's key; must be called once per round before deliver.
  void begin_round(std::uint32_t round) {
    round_key_ = key_.fork(round);
    lane_rng_ = round_key_.fork(kAuxLane).make_rng();
  }

  void set_p(double p) {
    p_ = p;
    inv_log1m_p_ = (p_ > 0.0 && p_ < 1.0) ? 1.0 / std::log1p(-p_) : 0.0;
  }

  [[nodiscard]] NodeId n() const noexcept { return n_; }
  [[nodiscard]] double p() const noexcept { return p_; }

  /// Per-round listener outcome probabilities for a common eligible
  /// transmitter count c: P[hear nothing] = (1-p)^c, P[hear exactly one] =
  /// c p (1-p)^{c-1}, everything else collides. The engine's semantics only
  /// distinguish these three classes, so the exact hit count never needs to
  /// be drawn in dense rounds.
  struct OutcomeProbs {
    double silent = 1.0;  ///< P[X = 0]
    double single = 0.0;  ///< P[X = 1]

    [[nodiscard]] double hit() const { return 1.0 - silent; }
    /// P[exactly one | at least one].
    [[nodiscard]] double single_given_hit() const {
      const double q = hit();
      return q > 0.0 ? single / q : 0.0;
    }
  };

  [[nodiscard]] OutcomeProbs outcome_probs(std::uint64_t count) const {
    // Threshold evaluations are O(1) per round (hoisted out of the block
    // loops into dense_plan / the attentive preamble); the counter pins
    // that in a regression test. Only touched on the coordinating thread —
    // parallel callers with per-listener eligible counts (the dynamic
    // backend's sharded classify phase) use outcome_probs_for() instead.
    ++outcome_probs_evals_;
    return outcome_probs_for(count);
  }

  /// The pure outcome law for `count` eligible transmitters — no eval
  /// counter, so it is safe to call concurrently from sharded phases whose
  /// per-listener counts genuinely vary (nothing to hoist there).
  [[nodiscard]] OutcomeProbs outcome_probs_for(std::uint64_t count) const {
    OutcomeProbs probs;
    if (count == 0 || p_ <= 0.0) return probs;
    if (p_ >= 1.0) {  // degenerate complete graph
      probs.silent = 0.0;
      probs.single = count == 1 ? 1.0 : 0.0;
      return probs;
    }
    const double cd = static_cast<double>(count);
    probs.silent = std::exp(cd * std::log1p(-p_));
    probs.single = cd * p_ * std::exp((cd - 1.0) * std::log1p(-p_));
    return probs;
  }

  /// Total outcome_probs evaluations so far — a regression hook: the
  /// per-round thresholds are computed once per sweep, never per block.
  [[nodiscard]] std::uint64_t outcome_probs_evals() const {
    return outcome_probs_evals_;
  }

  /// Everything a dense (non-sparse) round's blocks need, computed once
  /// per sweep from round-global quantities — every block sees the same
  /// plan, so the strategy choice and thresholds are shared, not
  /// recomputed per block.
  struct DensePlan {
    OutcomeProbs probs;     ///< non-transmitting listener outcome law
    OutcomeProbs probs_tx;  ///< transmitting listener law (silent=1 half-dup)
    bool plain = false;     ///< q > 0.5: vectorised plain sweep
    double q = 0.0;         ///< P[hear >= 1] for a non-transmitting listener
    // Skip-walk constants (only filled when !plain):
    double q_tx = 0.0;
    double single_given_hit = 0.0;
    double single_given_hit_tx = 0.0;
    double inv_log1m_q = 0.0;
    // Plain-sweep thresholds (only meaningful when plain):
    simd::DenseClassifyParams params{};
  };

  [[nodiscard]] DensePlan dense_plan(std::uint64_t k, bool half_duplex) const {
    DensePlan plan;
    plan.probs = outcome_probs(k);
    plan.probs_tx = half_duplex ? OutcomeProbs{} : outcome_probs(k - 1);
    plan.q = plan.probs.hit();
    plan.plain = plan.q > 0.5;
    if (plan.plain) {
      plan.params = simd::DenseClassifyParams{
          plan.probs.silent, plan.probs.silent + plan.probs.single,
          plan.probs_tx.silent, plan.probs_tx.silent + plan.probs_tx.single};
    } else {
      plan.q_tx = plan.probs_tx.hit();
      plan.single_given_hit = plan.probs.single_given_hit();
      plan.single_given_hit_tx = plan.probs_tx.single_given_hit();
      plan.inv_log1m_q = 1.0 / std::log1p(-plan.q);
    }
    return plan;
  }

  /// The full static-backend round: attentive fast path when the protocol
  /// declared few listeners attentive, sparse pair grid or dense binomial
  /// classification otherwise. `universe_nontx` / `universe_tx` size the
  /// aggregate groups of the attentive path (the static backend passes
  /// n - k and k; the dynamic backend subtracts failed and pinned nodes).
  template <class Sink, class Skip, class Record>
  void round(std::span<const NodeId> transmitters,
             const std::vector<char>& is_tx, bool half_duplex,
             const std::optional<std::span<const NodeId>>& attentive,
             bool collisions_inert, Sink& sink, Skip&& skip, Record&& record,
             std::uint64_t universe_nontx, std::uint64_t universe_tx) {
    const std::uint64_t k = transmitters.size();
    if (k == 0 || p_ <= 0.0) return;
    const double expected_events =
        static_cast<double>(n_) *
        std::min(1.0, static_cast<double>(k) * p_);  // ~ listeners with hits
    // When the protocol has declared most listeners inert and enumerating
    // just those is cheaper than enumerating every hit listener, classify
    // the attentive listeners individually and fold the rest into exact
    // aggregate counts: O(|attentive| + k) per round.
    if (attentive.has_value() &&
        static_cast<double>(attentive->size()) < expected_events) {
      attentive_round(transmitters, is_tx, half_duplex, *attentive,
                      collisions_inert, sink, skip, record, universe_nontx,
                      universe_tx);
      return;
    }
    sweep(transmitters, is_tx, half_duplex, attentive, collisions_inert, sink,
          skip, record);
  }

  /// Per-listener enumeration in ascending listener order, block-sharded:
  /// the listener range splits into kShardBlockSize blocks, each drawing
  /// from its own (round, block) counter-keyed Rng into a private buffer;
  /// blocks run on the pool (or serially — same bits either way) and the
  /// buffers merge into the sink in block order. Per block, the sparse
  /// pair grid runs when well under one expected hit per listener, the
  /// binomial classification otherwise (the strategy choice depends only
  /// on round-global quantities, so all blocks agree). When an attentive
  /// hint accompanies a swept round (the hint was too large for the
  /// attentive fast path), deliveries to listeners outside it fold into
  /// per-block bulk counts — their callbacks are declared no-ops — which
  /// keeps the serial merge O(attentive deliveries).
  template <class Sink, class Skip, class Record>
  void sweep(std::span<const NodeId> transmitters,
             const std::vector<char>& is_tx, bool half_duplex,
             const std::optional<std::span<const NodeId>>& attentive,
             bool collisions_inert, Sink& sink, Skip&& skip,
             Record&& record) {
    const std::uint64_t k = transmitters.size();
    if (k == 0 || p_ <= 0.0) return;
    // Expected hits per listener is k*p. Sparse rounds (well under one hit
    // per listener) enumerate the Bernoulli(p) pair grid by geometric
    // skipping — O(expected hits). Dense rounds classify each listener as
    // silent / single / collided straight from the round's Binomial outcome
    // probabilities — O(event listeners) via a skip-walk, O(n) at worst.
    // Both laws are independent across listeners (and pairs), so the block
    // decomposition is exact, not approximate.
    const bool sparse = p_ < 1.0 && static_cast<double>(k) * p_ < 0.25;
    // Round-global thresholds and strategy, computed exactly once per sweep
    // (never per block — pinned by outcome_probs_evals()).
    DensePlan plan;
    if (!sparse && p_ < 1.0) plan = dense_plan(k, half_duplex);
    blocks_.run(pool_, block_count(n_, kShardBlockSize), collisions_inert,
                attentive, n_, sink, record, [&](std::uint64_t b, auto& em) {
                  const auto [lo, hi] = block_range(b, kShardBlockSize, n_);
                  const StreamKey block_key = round_key_.fork(b);
                  if (sparse) {
                    Rng rng = block_key.make_rng();
                    pair_grid_block(lo, hi, rng, transmitters, is_tx,
                                    half_duplex, em, skip);
                  } else {
                    binomial_block(lo, hi, block_key, plan, transmitters,
                                   is_tx, half_duplex, em, skip);
                  }
                });
  }

  /// O(|attentive| + k) round, block-sharded over the hint's span:
  /// contiguous chunks of kShardBlockSize attentive listeners classify on
  /// their own (round, attentive-lane, chunk) counter-keyed streams, the
  /// buffers merge in chunk order (preserving the hint-order event
  /// contract), and every other listener's outcome folds into the two-draw
  /// aggregate below. For Algorithm-1-style protocols the heavy
  /// mid-broadcast rounds live here, so this path shards exactly like the
  /// full sweep.
  template <class Sink, class Skip, class Record>
  void attentive_round(std::span<const NodeId> transmitters,
                       const std::vector<char>& is_tx, bool half_duplex,
                       std::span<const NodeId> attentive,
                       bool collisions_inert, Sink& sink, Skip&& skip,
                       Record&& record, std::uint64_t universe_nontx,
                       std::uint64_t universe_tx) {
    const std::uint64_t k = transmitters.size();
    const OutcomeProbs probs = outcome_probs(k);
    const OutcomeProbs probs_tx =
        half_duplex ? OutcomeProbs{} : outcome_probs(k - 1);

    const std::uint64_t m = attentive.size();
    const std::uint64_t blocks = block_count(m, kShardBlockSize);
    if (att_counts_.size() < blocks) att_counts_.resize(blocks);
    const StreamKey att_key = round_key_.fork(kAttentiveLane);
    blocks_.run(
        pool_, blocks, collisions_inert, std::nullopt, n_, sink, record,
        [&](std::uint64_t b, auto& em) {
          Rng rng = att_key.fork(b).make_rng();
          const auto [lo, hi] = block_range(b, kShardBlockSize, m);
          std::uint64_t nontx = 0, txc = 0;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const NodeId v = attentive[static_cast<std::size_t>(i)];
            if (skip(v)) continue;
            const bool tx = is_tx[v] != 0;
            if (tx && half_duplex) continue;
            ++(tx ? txc : nontx);
            classify(v, tx, probs, probs_tx, transmitters, em, rng);
          }
          att_counts_[b] = {nontx, txc};
        });
    std::uint64_t att_nontx = 0, att_tx = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      att_nontx += att_counts_[b].first;
      att_tx += att_counts_[b].second;
    }
    // The silent majority: all remaining listeners, by eligible
    // transmitter count.
    RADNET_CHECK(att_nontx <= universe_nontx,
                 "attentive span exceeds the listener universe");
    aggregate_group(universe_nontx - att_nontx, probs, sink);
    if (!half_duplex) {
      RADNET_CHECK(att_tx <= universe_tx,
                   "attentive span exceeds the transmitter universe");
      aggregate_group(universe_tx - att_tx, probs_tx, sink);
    }
  }

  /// Aggregate outcome accounting for `count` exchangeable listeners the
  /// protocol declared inert: the number of single-hit listeners is
  /// Binomial(count, P1) and, conditioned on it, the number of collided
  /// listeners is Binomial(count - singles, P2 / (1 - P1)) — exactly the
  /// marginal the per-listener enumeration would produce, in two draws
  /// from the round's reserved lane.
  template <class Sink>
  void aggregate_group(std::uint64_t count, const OutcomeProbs& probs,
                       Sink& sink) {
    if (count == 0 || probs.hit() <= 0.0) return;
    const std::uint64_t singles = lane_rng_.binomial(count, probs.single);
    const double collide_given_not_single =
        probs.single >= 1.0
            ? 0.0
            : std::min(1.0, (1.0 - probs.silent - probs.single) /
                                (1.0 - probs.single));
    const std::uint64_t collisions =
        lane_rng_.binomial(count - singles, collide_given_not_single);
    sink.deliver_bulk(singles);
    sink.collide_bulk(collisions);
  }

 private:
  /// Draws one listener's outcome from its three-way distribution and
  /// emits the matching event (nothing / delivery / collision). The single
  /// classification step shared by the attentive path and the dense sweep;
  /// the caller supplies the stream (a block rng or the serial lane).
  template <class Emitter>
  void classify(NodeId v, bool tx, const OutcomeProbs& probs,
                const OutcomeProbs& probs_tx,
                std::span<const NodeId> transmitters, Emitter& em, Rng& rng) {
    const OutcomeProbs& pr = tx ? probs_tx : probs;
    const double u = rng.next_double();
    if (u < pr.silent) return;
    if (u < pr.silent + pr.single)
      deliver_uniform(v, tx, transmitters, em, rng);
    else
      em.on_collide(v);
  }

  /// Delivers to listener v from a uniformly chosen eligible transmitter
  /// (by symmetry, conditioned on exactly one hit the sender is uniform).
  /// A full-duplex transmitter listener excludes itself by swapping the
  /// last slot in for a draw that lands on v.
  template <class Emitter>
  void deliver_uniform(NodeId v, bool tx, std::span<const NodeId> transmitters,
                       Emitter& em, Rng& rng) {
    const std::uint64_t k = transmitters.size();
    const std::uint64_t eligible = k - (tx ? 1u : 0u);
    const std::uint64_t j = rng.uniform_below(eligible);
    NodeId sender = transmitters[static_cast<std::size_t>(j)];
    if (tx && sender == v) sender = transmitters[static_cast<std::size_t>(k - 1)];
    em.on_record(sender, v);
    em.on_deliver(v, sender);
  }

  /// Skip-samples one block's slice of the listener-major grid of
  /// (listener, transmitter) ordered pairs — pair indices
  /// [lo * k, hi * k) — each present with probability p; pairs whose
  /// transmitter is the listener itself (self-loops) or, under
  /// half-duplex, whose listener transmits (its radio cannot hear) are
  /// discarded. Listener-major layout groups a listener's pair samples
  /// consecutively, so events stream out in ascending listener order with
  /// no counter arrays and no sort, and a listener never spans two blocks.
  /// Expected cost O(k * (hi - lo) * p). Every retained hit is an
  /// individually resolved present pair and is passed to on_record.
  template <class Emitter, class Skip>
  void pair_grid_block(NodeId lo, NodeId hi, Rng& rng,
                       std::span<const NodeId> transmitters,
                       const std::vector<char>& is_tx, bool half_duplex,
                       Emitter& em, Skip&& skip) {
    const std::uint64_t k = transmitters.size();
    const std::uint64_t limit = static_cast<std::uint64_t>(hi) * k;
    NodeId cur = hi;  // listener whose hits are being accumulated
    std::uint32_t cur_hits = 0;
    NodeId cur_sender = 0;
    const auto flush = [&] {
      if (cur_hits == 0) return;
      if (cur_hits == 1)
        em.on_deliver(cur, cur_sender);
      else
        em.on_collide(cur);
      cur_hits = 0;
    };
    for (std::uint64_t idx = static_cast<std::uint64_t>(lo) * k +
                             rng.geometric_inv(inv_log1m_p_) - 1;
         idx < limit; idx += rng.geometric_inv(inv_log1m_p_)) {
      const NodeId v = static_cast<NodeId>(idx / k);
      const NodeId t = transmitters[static_cast<std::size_t>(idx % k)];
      if (v == t || (half_duplex && is_tx[v]) || skip(v)) continue;
      if (v != cur) {
        flush();
        cur = v;
      }
      em.on_record(t, v);
      ++cur_hits;
      cur_sender = t;
    }
    flush();
  }

  /// Listeners classified per call to the dispatched dense kernel: large
  /// enough to amortise the dispatch and keep lane state in registers,
  /// small enough for the code buffer to live in L1. A multiple of
  /// LaneRng::kLanes, so partial lane batches only occur at block ends.
  static constexpr NodeId kDenseChunk = 2048;

  /// Classifies one block's listeners as silent / single-hit / collided
  /// directly from Binomial(k', p) outcome probabilities, where k'
  /// excludes the listener itself when it is transmitting (no self-loops).
  /// Thresholds and strategy come precomputed in `plan` (round-global, so
  /// every block agrees). Two regimes:
  ///
  ///   * plain (q > 0.5): most listeners hear something, so every listener
  ///     draws one classification uniform. This is the vectorised path:
  ///     the block's LaneRng (seeded from the block key's lane counters)
  ///     produces the uniforms positionally — listener offset i consumes
  ///     lane i % kLanes — and simd::classify_dense turns a whole chunk
  ///     into outcome codes branch-free; only the (rare in this regime)
  ///     silent gaps and the emit calls remain scalar. Skipped and
  ///     half-duplex-transmitting listeners consume their positional draw
  ///     like everyone else (outcome discarded), keeping the draw schedule
  ///     a pure function of the block span. Sender draws on delivery come
  ///     from the block's dedicated kSenderSubLane stream in ascending
  ///     listener order.
  ///   * skip-walk (q <= 0.5): geometric skip-sampling over the listeners
  ///     with >= 1 hit at rate q, on the block key's direct Rng — a
  ///     transmitter listener's true hit probability q' (from
  ///     Binomial(k-1, p)) is below the walk's rate q, so those landings
  ///     are thinned by q'/q — exact rejection, preserving per-listener
  ///     independence. O(event listeners), inherently branchy, left scalar.
  template <class Emitter, class Skip>
  void binomial_block(NodeId lo, NodeId hi, const StreamKey& block_key,
                      const DensePlan& plan,
                      std::span<const NodeId> transmitters,
                      const std::vector<char>& is_tx, bool half_duplex,
                      Emitter& em, Skip&& skip) {
    const std::uint64_t k = transmitters.size();
    if (p_ >= 1.0) {
      // Degenerate complete graph: every listener hears every eligible
      // transmitter deterministically.
      for (NodeId v = lo; v < hi; ++v) {
        const bool tx = is_tx[v] != 0;
        if ((half_duplex && tx) || skip(v)) continue;
        const std::uint64_t eligible = k - (tx ? 1u : 0u);
        if (eligible == 0) continue;
        if (eligible >= 2) {
          em.on_collide(v);
          continue;
        }
        NodeId sender = transmitters[0];
        if (tx && sender == v) sender = transmitters[k - 1];
        em.on_deliver(v, sender);
      }
      return;
    }

    if (plan.plain) {
      LaneRng lanes(block_key);
      Rng sender_rng = block_key.fork(kSenderSubLane).make_rng();
      unsigned char codes[kDenseChunk];
      const NodeId span = hi - lo;
      for (NodeId base = 0; base < span; base += kDenseChunk) {
        const NodeId m = std::min<NodeId>(kDenseChunk, span - base);
        simd::classify_dense(lanes, is_tx.data() + lo + base, m, codes,
                             plan.params);
        for (NodeId i = 0; i < m; ++i) {
          if (codes[i] == simd::kOutcomeSilent) continue;
          const NodeId v = lo + base + i;
          if (skip(v)) continue;
          const bool tx = is_tx[v] != 0;
          // Half-duplex transmitters classify against silent_tx = 1 and
          // never reach here; full-duplex ones carry the probs_tx law.
          if (codes[i] == simd::kOutcomeDeliver)
            deliver_uniform(v, tx, transmitters, em, sender_rng);
          else
            em.on_collide(v);
        }
      }
      return;
    }

    Rng rng = block_key.make_rng();
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo;
    for (std::uint64_t o = rng.geometric_inv(plan.inv_log1m_q) - 1; o < span;
         o += rng.geometric_inv(plan.inv_log1m_q)) {
      const NodeId v = lo + static_cast<NodeId>(o);
      if (skip(v)) continue;
      const bool tx = is_tx[v] != 0;
      double single_prob = plan.single_given_hit;
      if (tx) {
        if (half_duplex) continue;
        if (rng.next_double() * plan.q >= plan.q_tx) continue;
        single_prob = plan.single_given_hit_tx;
      }
      if (rng.next_double() < single_prob)
        deliver_uniform(v, tx, transmitters, em, rng);
      else
        em.on_collide(v);
    }
  }

  NodeId n_ = 0;
  double p_ = 0.0;
  double inv_log1m_p_ = 0.0;
  /// Regression hook (see outcome_probs): bumped only on the coordinating
  /// thread — all per-block work receives precomputed thresholds.
  mutable std::uint64_t outcome_probs_evals_ = 0;
  StreamKey key_;        ///< backend randomness root (from the spec's rng)
  StreamKey round_key_;  ///< key_.fork(round), re-forked every begin_round
  Rng lane_rng_;         ///< serial attentive/aggregate stream for the round
  ThreadPool* pool_ = nullptr;
  BlockSweep blocks_;  ///< the block fan-out and its per-block scratch
  /// Per-chunk (non-tx, tx) attentive-listener counts, merged serially.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> att_counts_;
};

}  // namespace detail

/// The implicit G(n,p) backend: per-round delivery outcomes are sampled
/// directly from the transmitter count, the graph never exists. See the
/// file comment for the model and exactness conditions.
class ImplicitGnpTopology {
 public:
  explicit ImplicitGnpTopology(const ImplicitGnp& spec) {
    sampler_.init(spec.n, spec.p, spec.rng);
  }

  [[nodiscard]] NodeId num_nodes() const { return sampler_.n(); }
  void begin_round(std::uint32_t round) { sampler_.begin_round(round); }
  void set_parallelism(ThreadPool* pool) { sampler_.set_parallelism(pool); }

  template <class Sink>
  void deliver(std::span<const NodeId> transmitters,
               const std::vector<char>& is_tx, bool half_duplex,
               DeliveryPath /*path*/,
               const std::optional<std::span<const NodeId>>& attentive,
               bool collisions_inert, Sink& sink) {
    const std::uint64_t k = transmitters.size();
    sampler_.round(transmitters, is_tx, half_duplex, attentive,
                   collisions_inert, sink, detail::SkipNone{},
                   detail::RecordNone{},
                   static_cast<std::uint64_t>(sampler_.n()) - k, k);
  }

 private:
  detail::GnpSampler sampler_;
};

}  // namespace radnet::sim
