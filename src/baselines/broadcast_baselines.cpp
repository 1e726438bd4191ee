#include "baselines/broadcast_baselines.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/math.hpp"
#include "support/require.hpp"

namespace radnet::baselines {

core::GeneralBroadcastParams flooding_params(NodeId source) {
  return {.schedule = [](sim::Round, Rng&) { return 1.0; },
          .source = source,
          .label = "flooding"};
}

core::GeneralBroadcastParams fixed_params(std::uint64_t n, double q,
                                          NodeId source, sim::Round window) {
  RADNET_REQUIRE(q > 0.0 && q <= 1.0, "q must be in (0,1]");
  RADNET_REQUIRE(n >= 2, "FixedProb needs n >= 2");
  std::ostringstream label;
  label << "fixed(q=" << q << ")";
  return {.schedule = [q](sim::Round, Rng&) { return q; },
          .window = window,
          .source = source,
          .label = label.str()};
}

sim::Round decay_phase_length(std::uint64_t n) { return ilog2_ceil(n) + 1; }

core::GeneralBroadcastParams decay_params(std::uint64_t n, NodeId source,
                                          std::uint32_t active_phases) {
  RADNET_REQUIRE(n >= 2, "Decay needs n >= 2");
  const sim::Round phase_len = decay_phase_length(n);
  return {.schedule = [phase_len](sim::Round r,
                                  Rng&) { return pow2_neg(r % phase_len); },
          .window = active_phases * phase_len,
          .source = source,
          .label = "decay"};
}

core::GeneralBroadcastParams eg2005_params(std::uint64_t n, double p,
                                           NodeId source,
                                           double phase3_factor) {
  RADNET_REQUIRE(p > 0.0 && p <= 1.0, "p must be in (0,1]");
  RADNET_REQUIRE(phase3_factor > 0.0, "phase3_factor must be positive");
  RADNET_REQUIRE(n >= 2, "EG needs n >= 2");
  const double d = static_cast<double>(n) * p;
  RADNET_REQUIRE(d > 1.0, "EG needs expected degree d = np > 1");
  const sim::Round t = phase1_rounds(n, d);  // phase-1 length = D - 1 = T
  const double dT = std::pow(d, static_cast<double>(t));
  const double phase2_prob = std::min(1.0, 1.0 / (dT * p));  // = n / d^{T+1}
  const double phase3_prob = std::min(1.0, 1.0 / d);
  const auto phase3_len = static_cast<sim::Round>(
      std::ceil(phase3_factor * log2d(static_cast<double>(n))));
  return {.schedule =
              [t, phase2_prob, phase3_prob](sim::Round r, Rng&) {
                return r < t ? 1.0 : r == t ? phase2_prob : phase3_prob;
              },
          .horizon = t + 1 + phase3_len,
          .activate_through = t,
          .source = source,
          .label = "eg2005"};
}

sim::Round czumaj_rytter_window(std::uint64_t n, std::uint64_t diameter,
                                double beta) {
  RADNET_REQUIRE(n >= 4, "czumaj_rytter_window needs n >= 4");
  RADNET_REQUIRE(beta > 0.0, "beta must be positive");
  const double l = log2d(static_cast<double>(n));
  const double lambda = lambda_of(n, diameter);
  return static_cast<sim::Round>(std::ceil(beta * lambda * l * l));
}

core::GeneralBroadcastParams czumaj_rytter_params(std::uint64_t n,
                                                 std::uint64_t diameter,
                                                 double beta, NodeId source) {
  return {.schedule = core::sequence_schedule(
              core::SequenceDistribution::alpha_prime(n, diameter)),
          .window = czumaj_rytter_window(n, diameter, beta),
          .source = source,
          .label = "czumaj-rytter"};
}

}  // namespace radnet::baselines
