#include "core/broadcast_random.hpp"

#include <algorithm>
#include <cmath>

#include "support/math.hpp"
#include "support/require.hpp"

namespace radnet::core {

BroadcastRandomProtocol::BroadcastRandomProtocol(BroadcastRandomParams params)
    : params_(params) {
  RADNET_REQUIRE(params_.p > 0.0 && params_.p <= 1.0, "p must be in (0,1]");
  RADNET_REQUIRE(params_.phase3_factor > 0.0, "phase3_factor must be positive");
}

void BroadcastRandomProtocol::reset(NodeId num_nodes, Rng rng) {
  RADNET_REQUIRE(num_nodes >= 2, "Algorithm 1 needs n >= 2");
  n_ = num_nodes;
  rng_ = rng;
  d_ = static_cast<double>(n_) * params_.p;
  RADNET_REQUIRE(d_ > 1.0, "Algorithm 1 needs expected degree d = np > 1");
  RADNET_REQUIRE(params_.source < n_, "source out of range");

  t_ = phase1_rounds(n_, d_);
  use_phase2_ = params_.enable_phase2 &&
                params_.p <= std::pow(static_cast<double>(n_), -0.4);
  // Phase 2 probability 1/(d^T p); clamp into (0, 1].
  const double dT = std::pow(d_, static_cast<double>(t_));
  phase2_prob_ = std::min(1.0, 1.0 / (dT * params_.p));
  // Phase 3 probability 1/d in the sparse regime, 1/(dp) in the dense one.
  phase3_prob_ = use_phase2_ ? 1.0 / d_ : std::min(1.0, 1.0 / (d_ * params_.p));
  phase3_len_ = static_cast<sim::Round>(
      std::ceil(params_.phase3_factor * log2d(static_cast<double>(n_))));

  state_.reset(n_, params_.source);
}

std::span<const NodeId> BroadcastRandomProtocol::candidates() const {
  return state_.active();
}

bool BroadcastRandomProtocol::wants_transmit(NodeId v, sim::Round r) {
  if (r < t_) {
    // Phase 1: certain transmission, then passive (unless the ablation
    // keeps nodes shouting through all of Phase 1, EG-style).
    if (!params_.phase1_repeat) state_.deactivate(v);
    return true;
  }
  if (use_phase2_ && r == t_) {
    // Phase 2: one shot with probability 1/(d^T p); passive iff transmitted.
    if (rng_.bernoulli(phase2_prob_)) {
      state_.deactivate(v);
      return true;
    }
    return false;
  }
  if (r >= round_budget()) {  // budget exhausted: go passive for good
    state_.deactivate(v);
    return false;
  }
  // Phase 3: probability 1/d (or 1/(dp)); passive iff transmitted.
  if (rng_.bernoulli(phase3_prob_)) {
    state_.deactivate(v);
    return true;
  }
  return false;
}

bool BroadcastRandomProtocol::sample_transmitters(sim::Round r,
                                                  std::vector<NodeId>& out) {
  const std::span<const NodeId> active = state_.active();
  // Resolve the round's common transmit probability; mirrors wants_transmit
  // exactly (the per-node path remains the reference semantics).
  double prob;
  bool deactivate_on_tx = true;
  if (r < t_) {
    prob = 1.0;
    deactivate_on_tx = !params_.phase1_repeat;
  } else if (use_phase2_ && r == t_) {
    prob = phase2_prob_;
  } else if (r >= round_budget()) {
    // Budget exhausted: everyone goes passive for good, nobody transmits.
    state_.deactivate_all();
    return true;
  } else {
    prob = phase3_prob_;
  }

  if (prob >= 1.0) {
    if (deactivate_on_tx) state_.deactivate_all();
    out.insert(out.end(), active.begin(), active.end());
    return true;
  }
  // Independent Bernoulli(prob) per active node == geometric skip-sampling
  // of the active list: O(transmitters) instead of O(active) coin flips.
  // Picks come in ascending position order, so commit() drops them by
  // position without testing every active entry.
  const double inv_log1m = 1.0 / std::log1p(-prob);
  for (std::uint64_t i = rng_.geometric_inv(inv_log1m) - 1; i < active.size();
       i += rng_.geometric_inv(inv_log1m)) {
    state_.deactivate_at(static_cast<NodeId>(i));
    out.push_back(active[static_cast<std::size_t>(i)]);
  }
  return true;
}

void BroadcastRandomProtocol::on_delivered(NodeId receiver, NodeId sender,
                                           sim::Round r) {
  // Activation clauses exist only in Phases 1 and 2 of the paper's
  // pseudocode: a node first reached during Phase 3 is informed but never
  // becomes active (it will never transmit). The copy inherits the
  // sender's provenance: an honest relay of a corrupted copy stays
  // corrupted.
  const bool in_phase3 = r >= phase3_begin();
  state_.deliver(receiver, r,
                 /*activate=*/!in_phase3 || params_.phase3_activation,
                 /*copy_valid=*/state_.copy_is_valid(sender));
}

void BroadcastRandomProtocol::on_delivered_corrupted(NodeId receiver,
                                                     NodeId /*sender*/,
                                                     sim::Round r) {
  // Byzantine sender: identical node behaviour, invalid provenance.
  const bool in_phase3 = r >= phase3_begin();
  state_.deliver(receiver, r,
                 /*activate=*/!in_phase3 || params_.phase3_activation,
                 /*copy_valid=*/false);
}

void BroadcastRandomProtocol::end_round(sim::Round /*r*/) { state_.commit(); }

bool BroadcastRandomProtocol::is_complete() const {
  return state_.goal_reached();
}

std::string BroadcastRandomProtocol::name() const {
  std::string n = "alg1";
  if (!params_.enable_phase2) n += "[-phase2]";
  if (params_.phase3_activation) n += "[+p3act]";
  if (params_.phase1_repeat) n += "[+p1rep]";
  return n;
}

}  // namespace radnet::core
