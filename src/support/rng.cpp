#include "support/rng.hpp"

#include <bit>
#include <cmath>

#include "support/require.hpp"
#include "support/simd.hpp"

namespace radnet {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : s_) w = splitmix64(s);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but keep the guard for clarity.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ull;
}

Rng Rng::split(std::uint64_t a) const {
  std::uint64_t h = s_[0] ^ mix64(a + 0x100ull);
  return Rng(mix64(h));
}

Rng Rng::split(std::uint64_t a, std::uint64_t b) const {
  std::uint64_t h = s_[0] ^ mix64(a + 0x100ull);
  h = mix64(h ^ mix64(b + 0x200ull));
  return Rng(h);
}

Rng Rng::split(std::uint64_t a, std::uint64_t b, std::uint64_t c) const {
  std::uint64_t h = s_[0] ^ mix64(a + 0x100ull);
  h = mix64(h ^ mix64(b + 0x200ull));
  h = mix64(h ^ mix64(c + 0x300ull));
  return Rng(h);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) {
  RADNET_REQUIRE(bound >= 1, "uniform_below needs bound >= 1");
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RADNET_REQUIRE(lo <= hi, "uniform_int needs lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Rng::uniform_real(double lo, double hi) {
  RADNET_REQUIRE(lo < hi, "uniform_real needs lo < hi");
  return lo + (hi - lo) * next_double();
}

std::uint64_t Rng::geometric(double p) {
  RADNET_REQUIRE(p > 0.0 && p <= 1.0, "geometric needs p in (0,1]");
  if (p >= 1.0) return 1;
  // Single source of truth for the inversion: callers with a round-constant
  // p precompute the inverse log themselves and call geometric_inv directly.
  return geometric_inv(1.0 / std::log1p(-p));
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double np = static_cast<double>(n) * p;
  if (n <= 64 || np <= 16.0) {
    // Direct simulation / geometric skipping for the sparse case.
    if (p < 0.1) {
      std::uint64_t count = 0;
      std::uint64_t i = 0;
      while (true) {
        i += geometric(p);
        if (i > n) break;
        ++count;
      }
      return count;
    }
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) count += bernoulli(p) ? 1u : 0u;
    return count;
  }
  // Mode-centred inversion for large n*p: exact for any (n, p), expected
  // O(sqrt(n p (1-p))) steps. Start at the mode, walk outward alternately
  // above/below, subtracting pmf mass until the uniform is consumed; the
  // pmf is advanced by its two-term recurrences from a single lgamma-based
  // evaluation at the mode.
  const double q = 1.0 - p;
  const double nd = static_cast<double>(n);
  std::uint64_t m = static_cast<std::uint64_t>((nd + 1.0) * p);
  if (m > n) m = n;
  const double md = static_cast<double>(m);
  const double log_pm = std::lgamma(nd + 1.0) - std::lgamma(md + 1.0) -
                        std::lgamma(nd - md + 1.0) + md * std::log(p) +
                        (nd - md) * std::log1p(-p);
  const double pm = std::exp(log_pm);
  const double up_ratio = p / q;
  const double down_ratio = q / p;
  double u = next_double();
  u -= pm;
  if (u < 0.0) return m;
  std::uint64_t lo = m, hi = m;
  double lo_p = pm, hi_p = pm;
  while (lo > 0 || hi < n) {
    if (hi < n) {
      hi_p *= static_cast<double>(n - hi) / static_cast<double>(hi + 1) *
              up_ratio;
      ++hi;
      u -= hi_p;
      if (u < 0.0) return hi;
    }
    if (lo > 0) {
      lo_p *= static_cast<double>(lo) / static_cast<double>(n - lo + 1) *
              down_ratio;
      --lo;
      u -= lo_p;
      if (u < 0.0) return lo;
    }
  }
  // Floating-point leftovers (mass ~1e-16) land on the mode.
  return m;
}

LaneRng::LaneRng(const StreamKey& key) {
  for (unsigned l = 0; l < kLanes; ++l) {
    // Exactly key.fork(l).make_rng()'s seeding: four splitmix64 steps from
    // the forked key, with the same (unreachable) all-zero guard.
    std::uint64_t s = key.fork(l).value();
    for (unsigned w = 0; w < 4; ++w) s_[w][l] = splitmix64(s);
    if ((s_[0][l] | s_[1][l] | s_[2][l] | s_[3][l]) == 0)
      s_[0][l] = 0x9e3779b97f4a7c15ull;
  }
}

std::uint64_t LaneRng::next_u64_lane(unsigned lane) {
  const std::uint64_t s1 = s_[1][lane];
  const std::uint64_t result = std::rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s_[2][lane] ^= s_[0][lane];
  s_[3][lane] ^= s1;
  s_[1][lane] ^= s_[2][lane];
  s_[0][lane] ^= s_[3][lane];
  s_[2][lane] ^= t;
  s_[3][lane] = std::rotl(s_[3][lane], 45);
  return result;
}

void LaneRng::next_u64_lanes_scalar(std::uint64_t* out) {
  for (unsigned l = 0; l < kLanes; ++l) out[l] = next_u64_lane(l);
}

void LaneRng::next_u64_lanes(std::uint64_t* out) {
  simd::lane_step(*this, out);
}

void LaneRng::uniform_lanes(double* out) {
  std::uint64_t bits[kLanes];
  next_u64_lanes(bits);
  for (unsigned l = 0; l < kLanes; ++l)
    out[l] = static_cast<double>(bits[l] >> 11) * 0x1.0p-53;
}

std::uint64_t LaneRng::bernoulli_lanes(double p) {
  double u[kLanes];
  uniform_lanes(u);
  std::uint64_t mask = 0;
  for (unsigned l = 0; l < kLanes; ++l) mask |= (u[l] < p ? 1ull : 0ull) << l;
  return mask;
}

StreamKey StreamKey::from_rng(const Rng& rng) {
  const std::array<std::uint64_t, 4> s = rng.state();
  std::uint64_t k = mix64(s[0] ^ 0x517cc1b727220a95ull);
  k = mix64(k ^ s[1]);
  k = mix64(k ^ s[2]);
  k = mix64(k ^ s[3]);
  return StreamKey(k);
}

std::uint64_t Rng::sample_cdf(const double* cdf, std::uint64_t size,
                              std::uint64_t miss) {
  RADNET_REQUIRE(size >= 1, "sample_cdf needs a non-empty cdf");
  const double u = next_double();
  if (u >= cdf[size - 1]) return miss;
  // Binary search for the first index with cdf[i] > u.
  std::uint64_t lo = 0, hi = size - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] > u)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

}  // namespace radnet
