// The protocol interface every communication algorithm implements.
//
// The paper's model (Section 1.2) is a synchronous radio network: in each
// round every node independently decides whether to transmit; a node
// *receives* a message iff exactly one of its in-neighbours transmitted
// (two or more collide and nothing is heard; the node cannot distinguish
// collision from silence). Algorithms are *oblivious*: every node runs the
// same code, knowing only n (and, for Section 4, the diameter D) — never the
// topology.
//
// The engine/protocol split enforces that obliviousness mechanically: the
// protocol never sees the graph's edges, only per-node callbacks
// (`wants_transmit`, `on_delivered`). `reset` receives the node count and a
// private Rng; the engine owns the topology and computes who hears whom.
//
// Exactness contract of the optional hints: every hook below that lets a
// backend skip work (`sample_transmitters`, `attentive_listeners`,
// `collisions_inert`) must leave the executed *law* unchanged — the
// transmit-set distribution, the ledger totals' distribution and every
// callback that can still change protocol state are identical with or
// without the hint; only randomness consumption, callback granularity and
// per-event order (see each hook's comment) may differ. Backends fold
// hinted-away events into exact per-block bulk ledger counts through the
// sharded-sweep layer (sim/sharding.hpp), whose block-merge ordering
// invariant keeps protocol callbacks single-threaded and in ascending
// listener order — except the deliveries of a protocol that declared them
// receiver-local (deliveries_receiver_local), which run inside the
// parallel blocks; trace-recording runs drop the hints entirely so a trace
// is always complete. Sampling backends key their draws by
// StreamKey(round, block) (support/rng.hpp), so none of this depends on
// thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "support/rng.hpp"

namespace radnet::sim {

using graph::NodeId;
using Round = std::uint32_t;

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Prepares per-node state for a fresh execution on `num_nodes` nodes.
  /// `rng` is the protocol's private randomness for the whole run.
  virtual void reset(NodeId num_nodes, Rng rng) = 0;

  /// Start-of-round hook, called once per round before any transmit query.
  /// Protocols that share a global coin across nodes (Algorithm 3 draws the
  /// round's sequence value I_r here) override this.
  virtual void begin_round(Round r) { (void)r; }

  /// The set of nodes that could possibly transmit this round. The engine
  /// queries wants_transmit exactly for these, in the order given, which
  /// fixes the randomness consumption order and hence makes runs
  /// reproducible. The span must stay valid until end_round returns.
  [[nodiscard]] virtual std::span<const NodeId> candidates() const = 0;

  /// Whether node v transmits in round r. Called once per candidate per
  /// round, in candidates() order.
  [[nodiscard]] virtual bool wants_transmit(NodeId v, Round r) = 0;

  /// Optional bulk transmitter selection for rounds whose rule is "each
  /// candidate transmits independently with a common probability tau":
  /// querying wants_transmit per candidate costs O(|candidates|) coin flips,
  /// while geometric skip-sampling the transmitter subset costs
  /// O(|transmitters|) — the engine hot-loop win that makes sparse Phase-3
  /// tails cheap. Overrides fill `out` (passed in empty) with the
  /// transmitting nodes in candidates() order, apply exactly the state
  /// updates wants_transmit would have applied to those nodes, and return
  /// true; the default returns false and the engine falls back to
  /// per-candidate wants_transmit. The sampled transmit-set law must equal
  /// the per-candidate one (randomness *consumption* may differ). Both
  /// Engine and ReferenceEngine honour the hook, so cross-engine runs stay
  /// comparable.
  [[nodiscard]] virtual bool sample_transmitters(Round r,
                                                 std::vector<NodeId>& out) {
    (void)r;
    (void)out;
    return false;
  }

  /// Optional: the listeners whose delivery/collision callbacks can still
  /// change protocol state. A protocol where events at some nodes are
  /// provably no-ops (broadcast: already-informed nodes ignore further
  /// deliveries, and collisions are ignored everywhere) can expose the
  /// complement here; sampling backends (the implicit G(n,p) topology) then
  /// enumerate per-listener events only for these nodes and account for the
  /// rest in aggregate — ledger totals stay exactly distributed, but the
  /// skipped listeners receive no callbacks and per-event order follows the
  /// span's order rather than ascending node id. Every backend family
  /// (explicit CSR included) additionally folds deliveries landing outside
  /// the hint into exact per-block bulk ledger counts during swept rounds,
  /// skipping those no-op callbacks. std::nullopt (the default) means every
  /// listener matters. The span must stay valid and unchanged until
  /// end_round returns; trace-recording runs ignore the hint entirely.
  [[nodiscard]] virtual std::optional<std::span<const NodeId>>
  attentive_listeners() const {
    return std::nullopt;
  }

  /// Node `receiver` heard exactly one transmitter, `sender`, in round r.
  virtual void on_delivered(NodeId receiver, NodeId sender, Round r) = 0;

  /// Adversarial delivery (sim/adversary.hpp): like on_delivered, but the
  /// adversary layer flagged `sender` as a Byzantine relay, so the copy
  /// that arrived is corrupted. Nodes cannot authenticate messages, so the
  /// receiver's *behaviour* must match a genuine delivery exactly — only
  /// the omniscient provenance bookkeeping may differ. Provenance-tracking
  /// protocols (BroadcastState-based: Algorithm 1, the gossip marginal,
  /// and GeneralBroadcastProtocol — Algorithm 3, Czumaj–Rytter, Decay,
  /// Elsässer–Gasieniec, flooding, fixed q) override this to mark the
  /// receiver's copy invalid; the copy's invalidity then propagates along
  /// every further relay, and is_complete counts only valid copies. The default forwards to on_delivered: a
  /// protocol without provenance treats the corrupted copy as genuine, so
  /// Byzantine runs of such a protocol measure spread, not validity
  /// (documented per protocol in README's adversary matrix).
  virtual void on_delivered_corrupted(NodeId receiver, NodeId sender,
                                      Round r) {
    on_delivered(receiver, sender, r);
  }

  /// Two or more in-neighbours of `receiver` transmitted in round r. In the
  /// paper's model nodes cannot detect collisions, so the default ignores
  /// it; the engine still counts collisions for diagnostics.
  virtual void on_collision(NodeId receiver, Round r) {
    (void)receiver;
    (void)r;
  }

  /// Declares that on_collision is a no-op for this protocol, so backends
  /// may fold collision events into exact bulk ledger counts instead of
  /// per-receiver callbacks — the block-mergeable sink aggregation the
  /// sharded sweeps use to keep their serial merge O(deliveries) rather
  /// than O(all events). The paper's nodes cannot detect collisions, so
  /// this is true for every model-faithful protocol; the conservative
  /// default is false for the sake of diagnostic probes that do override
  /// on_collision (e.g. the test protocols). Trace-recording runs always
  /// get per-event collisions regardless.
  [[nodiscard]] virtual bool collisions_inert() const { return false; }

  /// Declares on_delivered *receiver-local*: on_delivered(v, s, r) writes
  /// only v's own state, reads only sender state fixed at the start of
  /// round r, and draws no randomness. Deliveries to distinct receivers
  /// then commute and may run concurrently, so when no trace is recorded
  /// and no adversary is active the sharded sweeps call on_delivered from
  /// inside their parallel blocks (counting those deliveries in bulk)
  /// instead of buffering them for the serial block merge — see
  /// sim/sharding.hpp. Anything the protocol aggregates across nodes must
  /// therefore settle in end_round, and the callbacks run in no particular
  /// order. on_delivered_corrupted and on_collision are unaffected (they
  /// only fire on paths that keep the serial merge). The conservative
  /// default is false; forwarding decorators that do not override it keep
  /// the buffered path.
  [[nodiscard]] virtual bool deliveries_receiver_local() const {
    return false;
  }

  /// End-of-round hook, called after all deliveries of round r.
  virtual void end_round(Round r) { (void)r; }

  /// Whether the protocol's goal is reached (all nodes informed for
  /// broadcast; all rumors everywhere for gossip). The engine checks this
  /// after every round and stops early. This is an omniscient-observer
  /// predicate used for measurement only — the nodes themselves never see it.
  [[nodiscard]] virtual bool is_complete() const = 0;

  /// Measurement-side concession for adversarial runs: the engine declares
  /// nodes whose copies can never count toward the goal (jammers — always
  /// transmitting, hence never receiving under half-duplex). Called at most
  /// once per run, after reset and before the first round. Like
  /// is_complete, this is omniscient measurement only — the nodes never
  /// see it, so obliviousness is untouched. The default ignores it: the
  /// goal then keeps requiring all n nodes and a jammed run simply never
  /// completes (use fixed horizons and stranded counts instead).
  virtual void set_goal_exclusions(std::span<const NodeId> nodes) {
    (void)nodes;
  }

  /// Omniscient robustness metric: how many in-goal nodes do not yet hold a
  /// valid copy of the goal content. nullopt (the default) means the
  /// protocol does not track a single-content goal (e.g. full n-rumor
  /// gossip). Used by the robustness benches' stranded-fraction curves.
  [[nodiscard]] virtual std::optional<NodeId> stranded_count() const {
    return std::nullopt;
  }

  /// Display name used in result tables.
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace radnet::sim
