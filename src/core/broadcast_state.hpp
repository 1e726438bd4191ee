// Shared informed/active bookkeeping for broadcast-style protocols.
//
// All the paper's broadcast algorithms share the same node life-cycle:
// uninformed -> informed+active -> passive. This helper maintains the
// informed flags, the time a node was informed (the paper's t_u), and the
// candidate list handed to the engine, with *deferred* mutation so the
// candidate span stays valid for the whole round:
//   - activations requested during on_delivered take effect next round,
//   - deactivations requested during wants_transmit or sample_transmitters
//     take effect next round (the node still transmitted its current
//     message this round).
// Call commit() from the protocol's end_round.
//
// Layout: one flags byte per node (informed, valid, excluded, deactivated,
// activate) plus informed_time_. deliver() touches only the receiver's
// flags byte and its informed_time_ slot, so deliveries to distinct
// receivers may run concurrently (the engine's in-block delivery path,
// Protocol::deliveries_receiver_local) and in any order. Everything that
// aggregates over nodes settles at commit(), in two passes:
//   - The active list drops the round's deactivations, keeping its order.
//     Drops made by position (deactivate_at, from a skip-sampler that
//     already holds each pick's index) are slid out run by run: one
//     memmove per run between consecutive drops, starting at the first
//     drop, with no flag read. Rounds that also saw per-node deactivate(v)
//     calls mark the positional drops' flags and filter the whole list by
//     the kDeactivated flag instead. deactivate_all() empties the list.
//   - One compaction pass over the ascending uninformed list drops the
//     newly informed, bumps informed_count() and valid_count(), and
//     appends the round's activations in ascending node order (runs of 16
//     entries that no delivery touched are shifted whole; the others
//     settle entry by entry without data-dependent branches).
// Counts therefore read the state as of the last commit(), never a
// half-applied round.
//
// Adversary support (sim/adversary.hpp): alongside the informed flag the
// state keeps one per-copy *provenance* bit — valid iff the copy descends
// from the source through honest relays only. deliver() takes the copy's
// validity (callers pass copy_is_valid(sender), and false for deliveries
// routed through on_delivered_corrupted); a node first informed by a
// corrupted copy is informed-but-invalid, behaves identically (it cannot
// authenticate the message, so it stops listening and relays the
// corruption onward), and never upgrades. exclude_from_goal() shrinks the
// measured goal (jammers can never hold any copy); goal_reached() — "every
// non-excluded node holds a valid copy" — is what adversary-aware
// protocols return from is_complete. Without an adversary every copy is
// valid and nothing is excluded, so goal_reached() == all_informed() and
// the bookkeeping is inert.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "sim/protocol.hpp"

namespace radnet::core {

using graph::NodeId;
using sim::Round;

class BroadcastState {
 public:
  /// informed_time() of a node that holds no copy yet.
  static constexpr Round kNotInformed = std::numeric_limits<Round>::max();

  /// Resets for n nodes with `source` informed (at time 0) and active.
  void reset(NodeId n, NodeId source);

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  /// Includes nodes informed in the current, not yet committed round.
  [[nodiscard]] bool informed(NodeId v) const {
    return (flags_[v] & kInformed) != 0;
  }
  /// As of the last commit().
  [[nodiscard]] NodeId informed_count() const noexcept { return informed_count_; }
  [[nodiscard]] bool all_informed() const noexcept { return informed_count_ == n_; }

  /// The paper's t_u: 0 for the source, r+1 for a node first reached in
  /// engine round r (it participates from the following round on), and
  /// kNotInformed before that. `informed_time(v) <= r` therefore reads
  /// "v held a copy before round r", and is safe to evaluate while another
  /// thread delivers to v in round r (the slot moves from kNotInformed to
  /// r+1, both > r).
  [[nodiscard]] Round informed_time(NodeId v) const {
    // atomic_ref<const T> is C++26; the load never writes.
    return std::atomic_ref<Round>(const_cast<Round&>(informed_time_[v]))
        .load(std::memory_order_relaxed);
  }

  /// Current candidate set (active nodes), stable within a round.
  [[nodiscard]] std::span<const NodeId> active() const noexcept {
    return {active_.get(), active_count_};
  }
  [[nodiscard]] NodeId active_count() const noexcept { return active_count_; }

  /// Nodes not informed as of the last commit(), in ascending node order.
  /// Stable within a round, matching the contract of
  /// Protocol::attentive_listeners — these are the only nodes whose
  /// delivery callbacks still change protocol state.
  [[nodiscard]] std::span<const NodeId> uninformed() const noexcept {
    return {uninformed_.data(), uninformed_.size()};
  }

  /// Marks v informed (if new) and, when `activate` is true, schedules
  /// activation for the next round. Algorithm 1's Phase 3 passes
  /// activate = false: its pseudocode has no activation clause, so nodes
  /// informed there never transmit — the source of the O(log n / p) total-
  /// transmission bound. `copy_valid` is the provenance bit of the copy
  /// that arrived (pass copy_is_valid(sender); false when the delivery was
  /// routed through on_delivered_corrupted). Returns true iff v was newly
  /// informed. Touches only v's own state.
  bool deliver(NodeId v, Round round, bool activate = true,
               bool copy_valid = true);

  /// Provenance bit of v's copy: true iff v holds the genuine content
  /// (the source starts valid; relays preserve validity, Byzantine relays
  /// destroy it). False for uninformed nodes.
  [[nodiscard]] bool copy_is_valid(NodeId v) const {
    return (flags_[v] & kValid) != 0;
  }

  /// Non-excluded nodes holding valid copies, as of the last commit().
  [[nodiscard]] NodeId valid_count() const noexcept { return valid_count_; }

  /// Removes `nodes` from the measured goal (e.g. jammers, which can never
  /// receive). Purely measurement — their informed/valid state keeps being
  /// tracked, it just stops counting toward goal_reached(). Call between
  /// rounds (the engine calls it once, before round 0).
  void exclude_from_goal(std::span<const NodeId> nodes);

  /// Every non-excluded node holds a valid copy — the adversary-aware
  /// completion predicate. Equals all_informed() when no adversary acted.
  [[nodiscard]] bool goal_reached() const noexcept {
    return valid_count_ == n_ - excluded_count_;
  }

  /// Non-excluded nodes still lacking a valid copy (the robustness curves'
  /// stranded count).
  [[nodiscard]] NodeId stranded_count() const noexcept {
    return n_ - excluded_count_ - valid_count_;
  }

  /// Schedules v's removal from the active set at end of round. Sets v's
  /// kDeactivated flag, which is sticky: a deactivated node never
  /// (re)activates, even when delivered this round. commit() then filters
  /// the whole active list by that flag. For per-node callers, which hold
  /// node ids rather than positions (wants_transmit).
  void deactivate(NodeId v);

  /// Schedules the removal of active()[i] at end of round. Positions must
  /// strictly ascend within a round. Writes no flag byte: kDeactivated is
  /// only read for uninformed-list nodes (the activation settle) and by
  /// per-node rounds, and an active node is informed, so it is never on the
  /// uninformed list and can never re-activate. For samplers that pick
  /// transmitters by their index in active() (sample_transmitters).
  void deactivate_at(NodeId i);

  /// Schedules the removal of every active node at end of round (the
  /// round's positional drops become moot).
  void deactivate_all() noexcept { deactivate_all_ = true; }

  /// Applies the round's deliveries, activations and deactivations. Call
  /// from end_round.
  void commit();

 private:
  enum : std::uint8_t {
    kInformed = 1u << 0,
    kValid = 1u << 1,        // per-copy provenance bit
    kExcluded = 1u << 2,     // outside the measured goal
    kDeactivated = 1u << 3,  // removed from the active set at commit
    kActivate = 1u << 4,     // joins the active set at commit
  };

  NodeId n_ = 0;
  NodeId informed_count_ = 0;
  NodeId valid_count_ = 0;     // valid copies held by non-excluded nodes
  NodeId excluded_count_ = 0;  // nodes outside the measured goal
  std::vector<std::uint8_t> flags_;
  std::vector<Round> informed_time_;
  // Active list: a node activates at most once, so n slots always suffice
  // and commit() can append without a capacity check.
  std::unique_ptr<NodeId[]> active_;
  NodeId active_capacity_ = 0;
  NodeId active_count_ = 0;
  std::vector<NodeId> uninformed_;  // ascending; compacted at commit()
  std::vector<NodeId> drops_;  // this round's deactivate_at positions
  bool has_deactivations_ = false;  // some deactivate(v) this round
  bool deactivate_all_ = false;
};

}  // namespace radnet::core
