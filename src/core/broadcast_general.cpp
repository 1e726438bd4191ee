#include "core/broadcast_general.hpp"

#include <cmath>

#include "support/math.hpp"
#include "support/require.hpp"

namespace radnet::core {

sim::Round general_window(std::uint64_t n, double beta) {
  RADNET_REQUIRE(n >= 2, "general_window needs n >= 2");
  RADNET_REQUIRE(beta > 0.0, "beta must be positive");
  const double l = log2d(static_cast<double>(n));
  return static_cast<sim::Round>(std::ceil(beta * l * l));
}

sim::Round general_round_budget(std::uint64_t n, std::uint64_t diameter,
                                double lambda, double c) {
  RADNET_REQUIRE(n >= 2, "general_round_budget needs n >= 2");
  RADNET_REQUIRE(diameter >= 1, "diameter must be >= 1");
  RADNET_REQUIRE(lambda >= 1.0, "lambda must be >= 1");
  RADNET_REQUIRE(c > 0.0, "c must be positive");
  const double l = log2d(static_cast<double>(n));
  const double bound = c * (static_cast<double>(diameter) * lambda + l * l);
  return static_cast<sim::Round>(std::ceil(bound));
}

RoundSchedule sequence_schedule(SequenceDistribution distribution) {
  return [d = std::move(distribution)](sim::Round /*r*/, Rng& rng) {
    const std::optional<std::uint32_t> k = d.sample(rng);
    return k ? pow2_neg(*k) : 0.0;
  };
}

GeneralBroadcastProtocol::GeneralBroadcastProtocol(GeneralBroadcastParams params)
    : params_(std::move(params)) {}

void GeneralBroadcastProtocol::reset(NodeId num_nodes, Rng rng) {
  RADNET_REQUIRE(num_nodes >= 2, "Algorithm 3 needs n >= 2");
  rng_ = rng;
  RADNET_REQUIRE(params_.source < num_nodes, "source out of range");
  state_.reset(num_nodes, params_.source);
  round_prob_ = 0.0;
}

void GeneralBroadcastProtocol::begin_round(sim::Round r) {
  round_prob_ = params_.schedule(r, rng_);
}

std::span<const NodeId> GeneralBroadcastProtocol::candidates() const {
  return state_.active();
}

bool GeneralBroadcastProtocol::wants_transmit(NodeId v, sim::Round r) {
  if ((params_.horizon != 0 && r >= params_.horizon) ||
      (params_.window != 0 && r >= state_.informed_time(v) + params_.window)) {
    state_.deactivate(v);  // the paper's "u becomes passive"
    return false;
  }
  // bernoulli draws nothing at probability 0 or 1, so flooding and silent
  // rounds consume no randomness.
  return rng_.bernoulli(round_prob_);
}

void GeneralBroadcastProtocol::on_delivered(NodeId receiver, NodeId sender,
                                            sim::Round r) {
  state_.deliver(receiver, r, r <= params_.activate_through,
                 state_.copy_is_valid(sender));
}

void GeneralBroadcastProtocol::on_delivered_corrupted(NodeId receiver,
                                                      NodeId /*sender*/,
                                                      sim::Round r) {
  state_.deliver(receiver, r, r <= params_.activate_through,
                 /*copy_valid=*/false);
}

void GeneralBroadcastProtocol::end_round(sim::Round /*r*/) { state_.commit(); }

bool GeneralBroadcastProtocol::is_complete() const {
  return state_.goal_reached();
}

std::string GeneralBroadcastProtocol::name() const {
  return params_.label.empty() ? "alg3" : params_.label;
}

}  // namespace radnet::core
