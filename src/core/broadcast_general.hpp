// Algorithm 3 — energy-efficient broadcast for arbitrary networks with
// known diameter D (§4.1) — and the oblivious scheduled broadcasts the
// paper compares it with.
//
// A shared random sequence I = <I_0, I_1, ...> is drawn with
// Pr[I_r = k] = alpha_k (see core/distributions.hpp); in round r every
// *active* node transmits with probability 2^{-I_r}. A node stays active for
// a window of beta * log^2 n rounds after it is informed (the paper's
// "if r <= t_u + beta log^2 n"), then goes passive for good.
//
// Theorem 4.1: with the distribution alpha(n, D), broadcasting completes in
// O(D log(n/D) + log^2 n) rounds w.h.p. and costs an expected
// O(log^2 n / log(n/D)) transmissions per node.
//
// Theorem 4.2 (trade-off): with alpha_with_lambda(n, lambda) for
// log(n/D) <= lambda <= log n, time becomes O(D lambda + log^2 n) and energy
// O(log^2 n / lambda) per node — the same protocol class, so the trade-off
// bench just sweeps the distribution.
//
// The class is any broadcast whose active nodes all transmit with one
// probability per round: the RoundSchedule, evaluated once in
// begin_round(r). Algorithm 3 and Czumaj–Rytter draw it from a sequence
// distribution (sequence_schedule); flooding, the fixed-probability
// schedules of §4.2, Decay and Elsässer–Gasieniec 2005 compute it from r
// alone. Besides the per-node window, a protocol may silence every node
// from a horizon round on and stop activating receivers after a round
// (Elsässer–Gasieniec's late informees never transmit). The parameter
// builders live in baselines/broadcast_baselines.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "core/broadcast_state.hpp"
#include "core/distributions.hpp"
#include "sim/protocol.hpp"

namespace radnet::core {

/// The transmit probability every active node uses in round r. Evaluated
/// once per round, before any wants_transmit, with the protocol's RNG.
using RoundSchedule = std::function<double(sim::Round, Rng&)>;

/// Algorithm 3's schedule: one shared draw I_r from `distribution` per
/// round (common randomness, as in the selection sequences of [11]); the
/// probability is 2^{-I_r}, or 0 in a silent round.
[[nodiscard]] RoundSchedule sequence_schedule(
    SequenceDistribution distribution);

struct GeneralBroadcastParams {
  /// Per-round transmit probability shared by every active node.
  RoundSchedule schedule;
  /// Active window in rounds: a node informed at time t transmits only while
  /// r < t + window. 0 means unlimited (never passive).
  sim::Round window = 0;
  /// Every node goes passive in round `horizon`. 0 means no horizon.
  sim::Round horizon = 0;
  /// A delivery in round r activates its receiver only while
  /// r <= activate_through; later informees stay silent.
  sim::Round activate_through = std::numeric_limits<sim::Round>::max();
  /// Broadcast originator.
  NodeId source = 0;
  /// Display name for result tables; empty reads "alg3".
  std::string label{};
};

/// The paper's window beta * log2(n)^2, rounded up.
[[nodiscard]] sim::Round general_window(std::uint64_t n, double beta);

/// A generous engine round budget c * (D * lambda + log2(n)^2) matching the
/// Theorem 4.1/4.2 time bound.
[[nodiscard]] sim::Round general_round_budget(std::uint64_t n, std::uint64_t diameter,
                                              double lambda, double c);

class GeneralBroadcastProtocol final : public sim::Protocol {
 public:
  explicit GeneralBroadcastProtocol(GeneralBroadcastParams params);

  void reset(NodeId num_nodes, Rng rng) override;
  void begin_round(sim::Round r) override;
  [[nodiscard]] std::span<const NodeId> candidates() const override;
  [[nodiscard]] bool wants_transmit(NodeId v, sim::Round r) override;
  /// The paper's nodes cannot detect collisions; backends may bulk-count
  /// them.
  [[nodiscard]] bool collisions_inert() const override { return true; }
  /// A delivery writes only the receiver's BroadcastState slot and reads
  /// the sender's provenance bit, which a transmitter (active, hence
  /// informed before this round) cannot change mid-round.
  [[nodiscard]] bool deliveries_receiver_local() const override {
    return true;
  }
  void on_delivered(NodeId receiver, NodeId sender, sim::Round r) override;
  void on_delivered_corrupted(NodeId receiver, NodeId sender,
                              sim::Round r) override;
  void end_round(sim::Round r) override;
  [[nodiscard]] bool is_complete() const override;
  void set_goal_exclusions(std::span<const NodeId> nodes) override {
    state_.exclude_from_goal(nodes);
  }
  [[nodiscard]] std::optional<NodeId> stranded_count() const override {
    return state_.stranded_count();
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] NodeId informed_count() const noexcept {
    return state_.informed_count();
  }
  [[nodiscard]] NodeId active_count() const noexcept {
    return state_.active_count();
  }

 private:
  GeneralBroadcastParams params_;
  Rng rng_;
  BroadcastState state_;
  double round_prob_ = 0.0;
};

}  // namespace radnet::core
