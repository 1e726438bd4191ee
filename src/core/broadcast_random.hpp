// Algorithm 1 — the energy-efficient broadcast for random networks (§2).
//
// Three phases over a G(n,p) network with expected degree d = np:
//
//   Phase 1 (rounds 0 .. T-1, T = floor(log n / log d)):
//     every active node transmits (probability 1) and becomes passive;
//     a node receiving the message for the first time becomes active.
//     Active sets grow by a factor Theta(d) per round (Lemma 2.3), reaching
//     Theta(d^T) nodes (Lemma 2.4).
//
//   Phase 2 (one round, only when p <= n^{-2/5}):
//     every active node transmits with probability 1/(d^T p) and, if it
//     transmitted, becomes passive. Informs Theta(n) nodes (Lemma 2.5).
//
//   Phase 3 (Theta(log n) rounds):
//     every active node transmits with probability 1/d (or 1/(dp) when
//     p > n^{-2/5}) and becomes passive after transmitting. Mops up the
//     remaining uninformed nodes (Lemma 2.6).
//
// The headline property (Theorem 2.1): O(log n) rounds w.h.p., **at most one
// transmission per node** (nodes become passive exactly when they transmit),
// and O(log n / p) total transmissions in expectation.
//
// "Becomes passive" is implemented as passive-after-transmitting in every
// phase; in Phase 1 transmission is certain so the two readings coincide,
// and in Phases 2/3 the analysis (Observation 2.2(3), Lemma 2.6's remark
// that active nodes persist) requires nodes that did not transmit to stay
// active. Nodes first informed *during Phase 3* never become active — the
// pseudocode's Phase 3 has no activation clause — which is what caps the
// total transmissions at O(log n / p). Both facts are asserted by the
// property tests over every seed.
//
// Finite-size note: the dense branch (p > n^{-2/5}, Phase-3 probability
// 1/(dp)) is proven for n -> infinity, where each uninformed node has
// dp = np^2 >> log n active neighbours. At laptop scales np^2 >> log n only
// holds well above the threshold (e.g. p >= 0.2), so completion probability
// degrades in the crossover band p ~ n^{-2/5}; the benches report this
// honestly via their success-rate column (see EXPERIMENTS.md).
//
// Topology note: because every node transmits at most once, no ordered
// pair of nodes is ever examined twice, so running this protocol on the
// implicit G(n,p) backend (sim/topology.hpp) is *exactly* distributed as a
// run on a materialised G(n,p) graph — the backend of choice for large-n
// sweeps (asserted by tests/sim/topology_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "core/broadcast_state.hpp"
#include "sim/protocol.hpp"

namespace radnet::core {

struct BroadcastRandomParams {
  /// Edge probability of the G(n,p) the protocol is tuned for. Nodes know
  /// n and p (the paper's model: the network class is known, the topology
  /// is not).
  double p = 0.0;
  /// Broadcast originator.
  NodeId source = 0;
  /// Phase 3 runs for ceil(phase3_factor * log2 n) rounds. The paper's
  /// proof constant is enormous (128/c with c from Lemma 2.5); empirically
  /// single digits suffice, and the engine stops at completion anyway.
  double phase3_factor = 32.0;

  // --- ablation switches (defaults = the paper's algorithm) --------------
  // Used by bench_a1_ablation to price each design decision; see DESIGN.md.

  /// Ablation: disable the Phase-2 boost round even in the sparse regime.
  bool enable_phase2 = true;
  /// Ablation: activate nodes first informed during Phase 3 (the paper
  /// deliberately does NOT — this is what caps total energy at
  /// O(log n / p); turning it on shows the cost).
  bool phase3_activation = false;
  /// Ablation: Phase-1 nodes transmit in *every* Phase-1 round instead of
  /// going passive after one shot — the Elsässer–Gasieniec behaviour that
  /// Algorithm 1 improves on.
  bool phase1_repeat = false;
};

class BroadcastRandomProtocol final : public sim::Protocol {
 public:
  explicit BroadcastRandomProtocol(BroadcastRandomParams params);

  void reset(NodeId num_nodes, Rng rng) override;
  [[nodiscard]] std::span<const NodeId> candidates() const override;
  [[nodiscard]] bool wants_transmit(NodeId v, sim::Round r) override;
  /// Bulk path: every phase is "transmit independently with a common
  /// probability, passive iff transmitted", so the transmitter subset is
  /// skip-sampled in O(transmitters) instead of one coin flip per active
  /// node — this is what keeps sparse Phase-3 tail rounds cheap at n ~ 10^7.
  [[nodiscard]] bool sample_transmitters(sim::Round r,
                                         std::vector<NodeId>& out) override;
  /// Only uninformed nodes react to deliveries (informed nodes ignore
  /// repeats and collisions are ignored everywhere), so sampling backends
  /// may account for every other listener in aggregate.
  [[nodiscard]] std::optional<std::span<const NodeId>> attentive_listeners()
      const override {
    return state_.uninformed();
  }
  /// The paper's nodes cannot detect collisions; backends may bulk-count
  /// them (block-mergeable sink aggregation).
  [[nodiscard]] bool collisions_inert() const override { return true; }
  /// A delivery writes only the receiver's BroadcastState slot and reads
  /// the sender's provenance bit, which a transmitter (active, hence
  /// informed before this round) cannot change mid-round.
  [[nodiscard]] bool deliveries_receiver_local() const override {
    return true;
  }
  void on_delivered(NodeId receiver, NodeId sender, sim::Round r) override;
  /// Byzantine relay delivery: same behaviour, but the copy is recorded as
  /// invalid and the corruption propagates along every further relay.
  void on_delivered_corrupted(NodeId receiver, NodeId sender,
                              sim::Round r) override;
  void end_round(sim::Round r) override;
  /// Every in-goal node holds a *valid* copy (== all_informed without an
  /// adversary; see core/broadcast_state.hpp).
  [[nodiscard]] bool is_complete() const override;
  void set_goal_exclusions(std::span<const NodeId> nodes) override {
    state_.exclude_from_goal(nodes);
  }
  [[nodiscard]] std::optional<NodeId> stranded_count() const override {
    return state_.stranded_count();
  }
  [[nodiscard]] std::string name() const override;

  // --- introspection for experiments (E2/E3) -------------------------------

  /// T = floor(log n / log d): the number of Phase-1 rounds.
  [[nodiscard]] sim::Round phase1_end() const noexcept { return t_; }
  /// True iff the p <= n^{-2/5} regime applies and Phase 2 runs.
  [[nodiscard]] bool has_phase2() const noexcept { return use_phase2_; }
  /// First round of Phase 3.
  [[nodiscard]] sim::Round phase3_begin() const noexcept {
    return t_ + (use_phase2_ ? 1u : 0u);
  }
  /// Rounds after which the protocol gives up transmitting entirely; use as
  /// the engine's max_rounds.
  [[nodiscard]] sim::Round round_budget() const noexcept {
    return phase3_begin() + phase3_len_;
  }
  [[nodiscard]] NodeId informed_count() const noexcept {
    return state_.informed_count();
  }
  [[nodiscard]] NodeId active_count() const noexcept {
    return state_.active_count();
  }
  [[nodiscard]] double degree() const noexcept { return d_; }

 private:
  BroadcastRandomParams params_;
  Rng rng_;
  BroadcastState state_;
  NodeId n_ = 0;
  double d_ = 0.0;          // np
  sim::Round t_ = 0;        // T = floor(log n / log d)
  bool use_phase2_ = false; // p <= n^{-2/5}
  double phase2_prob_ = 0.0;
  double phase3_prob_ = 0.0;
  sim::Round phase3_len_ = 0;
};

}  // namespace radnet::core
