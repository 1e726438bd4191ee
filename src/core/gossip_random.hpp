// Algorithm 2 — gossip for random networks (§3).
//
// Every node starts with its own rumor. In every round, every node transmits
// with probability 1/d (d = np), sending the *join* of every rumor it knows
// (the combined-message model of [8,11]: a message can carry any set of
// rumors and still fits in one round). A node that hears a clean
// transmission joins the incoming rumor set into its own.
//
// Theorem 3.2: with p > delta log n / n, gossip completes in O(d log n)
// rounds w.h.p. and every node performs O(log n) transmissions w.h.p. —
// nodes never become passive here; the energy bound comes from the round
// budget 128 d log n times the 1/d transmit probability.
//
// Rumor sets are bitsets of size n; delivery merges are word-parallel. The
// protocol tracks the global count of (node, rumor) pairs known so the
// engine's completion check is O(1).
//
// Topology note: gossip nodes transmit repeatedly, so on the implicit
// G(n,p) backend (sim/topology.hpp) the same ordered pair can be examined
// in several rounds and is resampled each time — the run then models the
// per-round-resampled G(n,p) (the churn = 1 mobility model of
// graph/dynamics.hpp), not one fixed graph. sim::ImplicitDynamicGnp
// extends this to partial churn (persistent pair-state sketches), node
// failures and p(t) schedules; use the CSR path when the fixed-graph
// reading of Theorem 3.2 is the point of the experiment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/broadcast_state.hpp"
#include "sim/protocol.hpp"
#include "support/bitset.hpp"

namespace radnet::core {

using graph::NodeId;

struct GossipRandomParams {
  /// Edge probability the protocol is tuned for (nodes know n and p).
  double p = 0.0;
  /// The protocol's round budget is ceil(round_factor * d * log2 n). The
  /// paper's constant is 128; the engine stops at completion, so this only
  /// bounds the worst case.
  double round_factor = 128.0;
};

class GossipRandomProtocol final : public sim::Protocol {
 public:
  explicit GossipRandomProtocol(GossipRandomParams params);

  void reset(NodeId num_nodes, Rng rng) override;
  [[nodiscard]] std::span<const NodeId> candidates() const override;
  [[nodiscard]] bool wants_transmit(NodeId v, sim::Round r) override;
  /// Bulk path: every node transmits independently with probability 1/d
  /// every round, so the transmitter subset is skip-sampled in
  /// O(transmitters) instead of n coin flips per round.
  [[nodiscard]] bool sample_transmitters(sim::Round r,
                                         std::vector<NodeId>& out) override;
  void on_delivered(NodeId receiver, NodeId sender, sim::Round r) override;
  [[nodiscard]] bool is_complete() const override;
  [[nodiscard]] std::string name() const override { return "alg2"; }

  /// ceil(round_factor * d * log2 n): pass to RunOptions::max_rounds.
  [[nodiscard]] sim::Round round_budget() const noexcept { return budget_; }

  /// Number of rumors node v currently knows.
  [[nodiscard]] std::size_t rumors_known(NodeId v) const;

  /// Total (node, rumor) pairs known, out of n * n.
  [[nodiscard]] std::uint64_t pairs_known() const noexcept { return known_; }

  [[nodiscard]] double degree() const noexcept { return d_; }

 private:
  GossipRandomParams params_;
  Rng rng_;
  NodeId n_ = 0;
  double d_ = 0.0;
  double tx_prob_ = 0.0;
  sim::Round budget_ = 0;
  std::vector<NodeId> everyone_;
  std::vector<Bitset> rumors_;
  std::uint64_t known_ = 0;
};

/// The single-rumor *marginal* of Algorithm 2, for graph-free scaling runs.
///
/// In Algorithm 2, whether a node transmits never depends on its rumor set,
/// so the spread of any one fixed rumor is a Markov chain on its knower
/// set alone: a clean delivery teaches the listener the rumor iff the
/// sender already knew it. Simulating that marginal needs O(n) state
/// instead of Algorithm 2's n^2-bit rumor matrix, which is what lets a
/// gossip trial run at n = 10^7 (bench E16). Under the engine's default
/// half-duplex semantics the marginal is *exactly* the law of
/// `rumor_source`'s rumor inside a full Algorithm 2 execution: a
/// transmitting node cannot simultaneously receive, so no intra-round
/// relay chain exists and a sender's knowledge is its start-of-round state.
/// Under full duplex the callback enforces that reading explicitly — a
/// sender relays only what it knew before the round — so the rumor never
/// travels two hops in one round, whatever order deliveries run in.
/// Full-gossip completion is the maximum of the n per-rumor marginals.
struct GossipRumorMarginalParams {
  /// Edge probability the protocol is tuned for (tx prob = 1/(np)).
  double p = 0.0;
  /// Whose rumor the marginal follows.
  NodeId rumor_source = 0;
  /// Round budget factor, as in GossipRandomParams.
  double round_factor = 128.0;
};

class GossipRumorMarginalProtocol final : public sim::Protocol {
 public:
  explicit GossipRumorMarginalProtocol(GossipRumorMarginalParams params);

  void reset(NodeId num_nodes, Rng rng) override;
  [[nodiscard]] std::span<const NodeId> candidates() const override;
  [[nodiscard]] bool wants_transmit(NodeId v, sim::Round r) override;
  [[nodiscard]] bool sample_transmitters(sim::Round r,
                                         std::vector<NodeId>& out) override;
  /// Deliveries only matter at nodes that do not know the rumor yet.
  [[nodiscard]] std::optional<std::span<const NodeId>> attentive_listeners()
      const override;
  /// Nodes cannot detect collisions; backends may bulk-count them.
  [[nodiscard]] bool collisions_inert() const override { return true; }
  /// A delivery writes only the receiver's BroadcastState slot and reads
  /// the sender's start-of-round knowledge (informed_time <= r).
  [[nodiscard]] bool deliveries_receiver_local() const override {
    return true;
  }
  void on_delivered(NodeId receiver, NodeId sender, sim::Round r) override;
  /// Byzantine relay delivery: the receiver still learns "the rumor" when
  /// the sender knew it, but the copy is recorded as invalid (provenance
  /// propagates along every further relay).
  void on_delivered_corrupted(NodeId receiver, NodeId sender,
                              sim::Round r) override;
  void end_round(sim::Round r) override;
  /// Every in-goal node holds a *valid* copy of the tracked rumor
  /// (== all_informed without an adversary).
  [[nodiscard]] bool is_complete() const override;
  void set_goal_exclusions(std::span<const NodeId> nodes) override {
    state_.exclude_from_goal(nodes);
  }
  [[nodiscard]] std::optional<NodeId> stranded_count() const override {
    return state_.stranded_count();
  }
  [[nodiscard]] std::string name() const override { return "alg2-marginal"; }

  /// ceil(round_factor * d * log2 n): pass to RunOptions::max_rounds.
  [[nodiscard]] sim::Round round_budget() const noexcept { return budget_; }

  /// Nodes currently knowing the tracked rumor.
  [[nodiscard]] NodeId knowers() const noexcept {
    return state_.informed_count();
  }

 private:
  GossipRumorMarginalParams params_;
  Rng rng_;
  NodeId n_ = 0;
  double tx_prob_ = 0.0;
  sim::Round budget_ = 0;
  std::vector<NodeId> everyone_;
  BroadcastState state_;
};

}  // namespace radnet::core
