#include "baselines/czumaj_rytter.hpp"

#include <cmath>

#include "support/math.hpp"
#include "support/require.hpp"

namespace radnet::baselines {

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
                                                 double beta,
                                                 graph::NodeId source) {
  return {.distribution = core::SequenceDistribution::alpha_prime(n, diameter),
          .window = czumaj_rytter_window(n, diameter, beta),
          .source = source,
          .label = "czumaj-rytter"};
}

}  // namespace radnet::baselines
