#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "sim/topology.hpp"

namespace radnet {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitStreamsAreIndependentAndStable) {
  const Rng root(7);
  Rng s1 = root.split(0);
  Rng s1_again = root.split(0);
  Rng s2 = root.split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  // Streams from distinct paths should not collide in their prefixes.
  Rng s1b = root.split(0);
  std::set<std::uint64_t> prefix;
  for (int i = 0; i < 16; ++i) prefix.insert(s1b.next_u64());
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(prefix.count(s2.next_u64()));
}

TEST(RngTest, MultiComponentSplitDistinguishesPaths) {
  const Rng root(9);
  // (a=1, b=2) and (a=2, b=1) must give different streams.
  Rng x = root.split(1, 2);
  Rng y = root.split(2, 1);
  EXPECT_NE(x.next_u64(), y.next_u64());
  Rng z1 = root.split(1, 2, 3);
  Rng z2 = root.split(1, 2, 4);
  EXPECT_NE(z1.next_u64(), z2.next_u64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  const double p = 0.3;
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, UniformBelowRangeAndCoverage) {
  Rng rng(8);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform_below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (const int c : counts) EXPECT_GT(c, 800);  // each ~1000 expected
  EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, GeometricMeanMatchesOneOverP) {
  Rng rng(11);
  const double p = 0.125;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t g = rng.geometric(p);
    ASSERT_GE(g, 1u);
    sum += static_cast<double>(g);
  }
  EXPECT_NEAR(sum / n, 1.0 / p, 0.15);
}

TEST(RngTest, GeometricWithPOneIsAlwaysOne) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(RngTest, GeometricGapSaturatesAtTwoToThe62) {
  // p = 1e-300 puts almost every gap near 1e300, and a subnormal p makes
  // 1 / log1p(-p) infinite; both saturate instead of leaving the range of
  // the cast.
  Rng rng(14);
  const double tiny = 1.0 / std::log1p(-1e-300);
  const double subnormal = 1.0 / std::log1p(-1e-320);
  ASSERT_TRUE(std::isinf(subnormal));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.geometric_inv(tiny), std::uint64_t{1} << 62);
    EXPECT_EQ(rng.geometric_inv(subnormal), std::uint64_t{1} << 62);
  }
  // Below the cap nothing moves: p = 1e-18 gives gaps near 1e18 < 2^62.
  const double large = 1.0 / std::log1p(-1e-18);
  Rng a(15), b(15);
  int below = 0;
  for (int i = 0; i < 100; ++i) {
    const double g = std::ceil(std::log(1.0 - b.next_double()) * large);
    const std::uint64_t gap = a.geometric_inv(large);
    if (g >= 0x1p62) continue;
    ++below;
    EXPECT_EQ(gap, static_cast<std::uint64_t>(std::max(g, 1.0)));
  }
  EXPECT_GT(below, 90);
}

TEST(RngTest, BinomialMoments) {
  Rng rng(13);
  const std::uint64_t n = 40;
  const double p = 0.25;
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t b = rng.binomial(n, p);
    ASSERT_LE(b, n);
    sum += static_cast<double>(b);
  }
  EXPECT_NEAR(sum / trials, static_cast<double>(n) * p, 0.15);
}

TEST(RngTest, BinomialLargeModeInversionMoments) {
  Rng rng(14);
  const std::uint64_t n = 1000000;
  const double p = 0.01;  // np = 10^4, mode-centred inversion path
  double sum = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i)
    sum += static_cast<double>(rng.binomial(n, p));
  EXPECT_NEAR(sum / trials, 10000.0, 50.0);
}

TEST(RngTest, BinomialLargeMatchesExactCdf) {
  // The implicit-topology backend relies on binomial() being *exact* in the
  // large-np regime (the old normal approximation would bias collision
  // counts). One-sample KS against the true Binomial(400, 0.1) CDF; the
  // 20k-draw critical value at alpha ~ 0.001 is 1.95/sqrt(20000) ~ 0.014.
  Rng rng(99);
  const std::uint64_t n = 400;
  const double p = 0.1;  // np = 40 > 16: inversion-from-the-mode path
  const int draws = 20000;
  std::vector<std::uint32_t> counts(n + 1, 0);
  for (int i = 0; i < draws; ++i) ++counts[rng.binomial(n, p)];

  // Exact pmf by the same recurrence the sampler uses, seeded at k = 0.
  std::vector<double> pmf(n + 1, 0.0);
  pmf[0] = std::pow(1.0 - p, static_cast<double>(n));
  for (std::uint64_t k = 0; k < n; ++k)
    pmf[k + 1] = pmf[k] * static_cast<double>(n - k) /
                 static_cast<double>(k + 1) * (p / (1.0 - p));

  double cdf = 0.0, ecdf = 0.0, d = 0.0;
  for (std::uint64_t k = 0; k <= n; ++k) {
    cdf += pmf[k];
    ecdf += static_cast<double>(counts[k]) / draws;
    d = std::max(d, std::abs(ecdf - cdf));
  }
  EXPECT_LT(d, 0.014);
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(15);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.binomial(100, 1.0), 100u);
}

TEST(RngTest, SampleCdfRespectsWeightsAndMiss) {
  Rng rng(16);
  // Mass 0.5 total: {0.2, 0.5} cumulative; 50% misses.
  const double cdf[] = {0.2, 0.5};
  int c0 = 0, c1 = 0, miss = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.sample_cdf(cdf, 2, 99);
    if (v == 0)
      ++c0;
    else if (v == 1)
      ++c1;
    else if (v == 99)
      ++miss;
    else
      FAIL() << "unexpected sample " << v;
  }
  EXPECT_NEAR(static_cast<double>(c0) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(c1) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(miss) / n, 0.5, 0.01);
}

TEST(RngTest, DynamicBackendStreamPathsDoNotCollide) {
  // Stream-path audit for the implicit dynamic topology. The harness
  // derives the per-trial streams (seed, trial, 0) for edge randomness and
  // (seed, trial, 1) for the protocol; the dynamic backend further splits
  // the former into edge-classification, pair-sketch (churn) and failure
  // sub-streams. Every draw in a run comes from one of these four stream
  // families, consumed along (node, phase, round) — so no two families may
  // ever share output prefixes, or a sketch persistence draw could silently
  // correlate with a binomial edge draw of another consumer. The audit
  // checks pairwise-distinct prefixes across many trials.
  const Rng root(0x5eed);
  std::set<std::uint64_t> seen;
  std::size_t inserted = 0;
  const auto drain = [&](Rng rng) {
    for (int i = 0; i < 64; ++i) {
      seen.insert(rng.next_u64());
      ++inserted;
    }
  };
  for (std::uint64_t trial = 0; trial < 16; ++trial) {
    const Rng graph_stream = root.split(trial, 0);
    drain(graph_stream.split(radnet::sim::ImplicitDynamicGnp::kEdgeStream));
    drain(graph_stream.split(radnet::sim::ImplicitDynamicGnp::kChurnStream));
    drain(graph_stream.split(radnet::sim::ImplicitDynamicGnp::kFailStream));
    drain(root.split(trial, 1));  // the protocol stream
    drain(graph_stream);          // the static implicit backend's stream
  }
  // Any collision between any two of the 16 * 5 streams' 64-value prefixes
  // would deduplicate the set.
  EXPECT_EQ(seen.size(), inserted);
}

TEST(RngTest, Mix64AvalanchesSingleBit) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int cases = 64;
  for (int b = 0; b < cases; ++b) {
    const std::uint64_t x = 0x123456789abcdef0ull;
    const std::uint64_t y = x ^ (std::uint64_t{1} << b);
    total_flips += __builtin_popcountll(mix64(x) ^ mix64(y));
  }
  const double mean_flips = static_cast<double>(total_flips) / cases;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

TEST(StreamKeyTest, CounterKeyedStreamsAreDeterministicAndDistinct) {
  // The sharded sweeps key every block's randomness as
  // root.fork(round).fork(block); determinism across re-derivation and
  // pairwise-distinct output prefixes are what make the parallel sweep
  // bit-identical to the serial one.
  const StreamKey root = StreamKey::from_rng(Rng(0x5eed));
  std::set<std::uint64_t> seen;
  std::size_t inserted = 0;
  for (std::uint64_t round = 0; round < 8; ++round) {
    const StreamKey round_key = root.fork(round);
    for (std::uint64_t block = 0; block < 8; ++block) {
      Rng a = round_key.fork(block).make_rng();
      Rng b = StreamKey::from_rng(Rng(0x5eed)).fork(round).fork(block).make_rng();
      for (int i = 0; i < 32; ++i) {
        const std::uint64_t va = a.next_u64();
        ASSERT_EQ(va, b.next_u64());  // pure function of (root, round, block)
        seen.insert(va);
        ++inserted;
      }
    }
  }
  EXPECT_EQ(seen.size(), inserted);  // no cross-stream prefix collisions
}

TEST(StreamKeyTest, DistinctRootRngsGiveDistinctKeys) {
  std::set<std::uint64_t> keys;
  for (std::uint64_t seed = 0; seed < 256; ++seed)
    keys.insert(StreamKey::from_rng(Rng(seed)).value());
  EXPECT_EQ(keys.size(), 256u);
}

TEST(RngTest, RejectsInvalidArguments) {
  Rng rng(17);
  EXPECT_THROW(rng.uniform_below(0), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
  EXPECT_THROW(rng.uniform_real(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace radnet
