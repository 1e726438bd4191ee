#include "baselines/gossip_baselines.hpp"

#include "support/math.hpp"
#include "support/require.hpp"

namespace radnet::baselines {

void TdmaGossipProtocol::reset(NodeId num_nodes, Rng /*rng*/) {
  RADNET_REQUIRE(num_nodes >= 2, "TDMA gossip needs n >= 2");
  n_ = num_nodes;
  slot_.assign(1, 0);
  rumors_.assign(n_, Bitset(n_));
  for (NodeId v = 0; v < n_; ++v) rumors_[v].set(v);
  known_ = n_;
}

void TdmaGossipProtocol::begin_round(sim::Round r) {
  slot_[0] = static_cast<NodeId>(r % n_);
}

std::span<const NodeId> TdmaGossipProtocol::candidates() const {
  return {slot_.data(), slot_.size()};
}

bool TdmaGossipProtocol::wants_transmit(NodeId /*v*/, sim::Round /*r*/) {
  return true;  // the slot owner always uses its slot
}

void TdmaGossipProtocol::on_delivered(NodeId receiver, NodeId sender,
                                      sim::Round /*r*/) {
  known_ += rumors_[receiver].unite(rumors_[sender]);
}

bool TdmaGossipProtocol::is_complete() const {
  return known_ == static_cast<std::uint64_t>(n_) * n_;
}

void DecayGossipProtocol::reset(NodeId num_nodes, Rng rng) {
  RADNET_REQUIRE(num_nodes >= 2, "decay gossip needs n >= 2");
  n_ = num_nodes;
  rng_ = rng;
  phase_len_ = ilog2_ceil(num_nodes) + 1;
  everyone_.resize(n_);
  for (NodeId v = 0; v < n_; ++v) everyone_[v] = v;
  rumors_.assign(n_, Bitset(n_));
  for (NodeId v = 0; v < n_; ++v) rumors_[v].set(v);
  known_ = n_;
}

std::span<const NodeId> DecayGossipProtocol::candidates() const {
  return {everyone_.data(), everyone_.size()};
}

bool DecayGossipProtocol::wants_transmit(NodeId /*v*/, sim::Round r) {
  return rng_.bernoulli(pow2_neg(r % phase_len_));
}

void DecayGossipProtocol::on_delivered(NodeId receiver, NodeId sender,
                                       sim::Round /*r*/) {
  known_ += rumors_[receiver].unite(rumors_[sender]);
}

bool DecayGossipProtocol::is_complete() const {
  return known_ == static_cast<std::uint64_t>(n_) * n_;
}

}  // namespace radnet::baselines
