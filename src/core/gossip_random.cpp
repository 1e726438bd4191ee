#include "core/gossip_random.hpp"

#include <cmath>
#include <numeric>

#include "support/math.hpp"
#include "support/require.hpp"

namespace radnet::core {

GossipRandomProtocol::GossipRandomProtocol(GossipRandomParams params)
    : params_(params) {
  RADNET_REQUIRE(params_.p > 0.0 && params_.p <= 1.0, "p must be in (0,1]");
  RADNET_REQUIRE(params_.round_factor > 0.0, "round_factor must be positive");
}

void GossipRandomProtocol::reset(NodeId num_nodes, Rng rng) {
  RADNET_REQUIRE(num_nodes >= 2, "Algorithm 2 needs n >= 2");
  n_ = num_nodes;
  rng_ = rng;
  d_ = static_cast<double>(n_) * params_.p;
  RADNET_REQUIRE(d_ > 1.0, "Algorithm 2 needs expected degree d = np > 1");
  tx_prob_ = 1.0 / d_;
  budget_ = static_cast<sim::Round>(std::ceil(
      params_.round_factor * d_ * log2d(static_cast<double>(n_))));

  everyone_.resize(n_);
  std::iota(everyone_.begin(), everyone_.end(), NodeId{0});
  rumors_.assign(n_, Bitset(n_));
  for (NodeId v = 0; v < n_; ++v) rumors_[v].set(v);
  known_ = n_;
}

std::span<const NodeId> GossipRandomProtocol::candidates() const {
  return {everyone_.data(), everyone_.size()};
}

bool GossipRandomProtocol::wants_transmit(NodeId /*v*/, sim::Round r) {
  if (r >= budget_) return false;
  return rng_.bernoulli(tx_prob_);
}

bool GossipRandomProtocol::sample_transmitters(sim::Round r,
                                               std::vector<NodeId>& out) {
  if (r >= budget_) return true;  // out stays empty
  // tx_prob_ = 1/d < 1 always (reset enforces d > 1).
  const double inv_log1m = 1.0 / std::log1p(-tx_prob_);
  for (std::uint64_t i = rng_.geometric_inv(inv_log1m) - 1;
       i < everyone_.size(); i += rng_.geometric_inv(inv_log1m))
    out.push_back(everyone_[static_cast<std::size_t>(i)]);
  return true;
}

void GossipRandomProtocol::on_delivered(NodeId receiver, NodeId sender,
                                        sim::Round /*r*/) {
  // Half-duplex semantics (engine default) guarantee the sender received
  // nothing this round, so its current set equals the set it transmitted.
  known_ += rumors_[receiver].unite(rumors_[sender]);
}

bool GossipRandomProtocol::is_complete() const {
  return known_ == static_cast<std::uint64_t>(n_) * n_;
}

std::size_t GossipRandomProtocol::rumors_known(NodeId v) const {
  RADNET_REQUIRE(v < n_, "node out of range");
  return rumors_[v].count();
}

GossipRumorMarginalProtocol::GossipRumorMarginalProtocol(
    GossipRumorMarginalParams params)
    : params_(params) {
  RADNET_REQUIRE(params_.p > 0.0 && params_.p <= 1.0, "p must be in (0,1]");
  RADNET_REQUIRE(params_.round_factor > 0.0, "round_factor must be positive");
}

void GossipRumorMarginalProtocol::reset(NodeId num_nodes, Rng rng) {
  RADNET_REQUIRE(num_nodes >= 2, "Algorithm 2 needs n >= 2");
  RADNET_REQUIRE(params_.rumor_source < num_nodes, "rumor_source out of range");
  n_ = num_nodes;
  rng_ = rng;
  const double d = static_cast<double>(n_) * params_.p;
  RADNET_REQUIRE(d > 1.0, "Algorithm 2 needs expected degree d = np > 1");
  tx_prob_ = 1.0 / d;
  budget_ = static_cast<sim::Round>(std::ceil(
      params_.round_factor * d * log2d(static_cast<double>(n_))));
  everyone_.resize(n_);
  std::iota(everyone_.begin(), everyone_.end(), NodeId{0});
  state_.reset(n_, params_.rumor_source);
}

std::span<const NodeId> GossipRumorMarginalProtocol::candidates() const {
  return {everyone_.data(), everyone_.size()};
}

bool GossipRumorMarginalProtocol::wants_transmit(NodeId /*v*/, sim::Round r) {
  if (r >= budget_) return false;
  return rng_.bernoulli(tx_prob_);
}

bool GossipRumorMarginalProtocol::sample_transmitters(
    sim::Round r, std::vector<NodeId>& out) {
  if (r >= budget_) return true;  // out stays empty
  // tx_prob_ = 1/d < 1 always (reset enforces d > 1).
  const double inv_log1m = 1.0 / std::log1p(-tx_prob_);
  for (std::uint64_t i = rng_.geometric_inv(inv_log1m) - 1;
       i < everyone_.size(); i += rng_.geometric_inv(inv_log1m))
    out.push_back(everyone_[static_cast<std::size_t>(i)]);
  return true;
}

std::optional<std::span<const NodeId>>
GossipRumorMarginalProtocol::attentive_listeners() const {
  return state_.uninformed();
}

void GossipRumorMarginalProtocol::on_delivered(NodeId receiver, NodeId sender,
                                               sim::Round r) {
  // The sender transmitted its start-of-round state: a copy it received
  // earlier in this round (possible under full duplex) was not in the
  // message. The copy inherits the sender's provenance bit.
  if (state_.informed_time(sender) <= r)
    (void)state_.deliver(receiver, r, false,
                         /*copy_valid=*/state_.copy_is_valid(sender));
}

void GossipRumorMarginalProtocol::on_delivered_corrupted(NodeId receiver,
                                                         NodeId sender,
                                                         sim::Round r) {
  // A Byzantine relay corrupts what it forwards; it only has something
  // rumor-shaped to forward once it knew the rumor at the round's start.
  if (state_.informed_time(sender) <= r)
    (void)state_.deliver(receiver, r, false, /*copy_valid=*/false);
}

void GossipRumorMarginalProtocol::end_round(sim::Round /*r*/) {
  state_.commit();
}

bool GossipRumorMarginalProtocol::is_complete() const {
  return state_.goal_reached();
}

}  // namespace radnet::core
