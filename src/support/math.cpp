#include "support/math.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/require.hpp"

namespace radnet {

std::uint32_t ilog2_floor(std::uint64_t x) {
  RADNET_REQUIRE(x >= 1, "ilog2_floor needs x >= 1");
  return 63u - static_cast<std::uint32_t>(std::countl_zero(x));
}

std::uint32_t ilog2_ceil(std::uint64_t x) {
  RADNET_REQUIRE(x >= 1, "ilog2_ceil needs x >= 1");
  const std::uint32_t fl = ilog2_floor(x);
  return (x == (std::uint64_t{1} << fl)) ? fl : fl + 1;
}

double ln(double x) {
  RADNET_REQUIRE(x > 0.0, "ln needs x > 0");
  return std::log(x);
}

double log2d(double x) {
  RADNET_REQUIRE(x > 0.0, "log2d needs x > 0");
  return std::log2(x);
}

double delta_link_probability(std::uint64_t n, double delta) {
  return std::min(1.0, delta * std::log(static_cast<double>(n)) /
                           static_cast<double>(n));
}

std::uint32_t phase1_rounds(std::uint64_t n, double d) {
  RADNET_REQUIRE(n >= 2, "phase1_rounds needs n >= 2");
  RADNET_REQUIRE(d > 1.0, "phase1_rounds needs expected degree d > 1");
  const double t = std::floor(std::log(static_cast<double>(n)) / std::log(d));
  if (t < 1.0) return 1;
  return static_cast<std::uint32_t>(t);
}

double lambda_of(std::uint64_t n, std::uint64_t diameter) {
  RADNET_REQUIRE(n >= 2, "lambda_of needs n >= 2");
  RADNET_REQUIRE(diameter >= 1, "lambda_of needs diameter >= 1");
  const double l = std::log2(static_cast<double>(n) / static_cast<double>(diameter));
  const double max_l = std::log2(static_cast<double>(n));
  if (l < 1.0) return 1.0;
  if (l > max_l) return max_l;
  return l;
}

std::uint64_t ipow_sat(std::uint64_t base, std::uint32_t exp) {
  std::uint64_t r = 1;
  for (std::uint32_t i = 0; i < exp; ++i) {
    if (base != 0 && r > std::numeric_limits<std::uint64_t>::max() / base)
      return std::numeric_limits<std::uint64_t>::max();
    r *= base;
  }
  return r;
}

double pow2_neg(std::uint32_t k) {
  if (k > 1023) return 0.0;
  return std::ldexp(1.0, -static_cast<int>(k));
}

}  // namespace radnet
