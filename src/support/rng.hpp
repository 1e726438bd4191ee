// Deterministic, splittable random number generation.
//
// Every randomised quantity in the reproduction is a pure function of a
// 64-bit root seed plus a logical stream path (trial index, node id, phase...).
// This gives three properties the experiment harness depends on:
//
//   1. Reproducibility: re-running a bench with the same seed regenerates the
//      same tables bit-for-bit.
//   2. Schedule independence: Monte-Carlo trials produce identical results
//      whether they run serially or on a thread pool, because each trial owns
//      a generator derived only from (root, trial), never from shared state.
//   3. Independence-by-construction: streams derived with distinct paths are
//      produced by hashing with splitmix64, the standard seeding method for
//      xoshiro-family generators.
//
// The generator is xoshiro256** (Blackman & Vigna), which is small, fast and
// passes BigCrush; the standard library engines are deliberately avoided for
// distribution generation because their results differ across standard library
// implementations.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace radnet {

/// splitmix64 step: the finaliser used for seeding and stream derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// One-shot avalanche hash of a value (splitmix64 finaliser).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// xoshiro256** PRNG with helpers for the distributions the simulator needs.
class Rng {
 public:
  /// Seeds the four state words by running splitmix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent generator for a logical sub-stream. The path
  /// values are hashed into the seed one by one; distinct paths give
  /// (empirically) independent streams.
  [[nodiscard]] Rng split(std::uint64_t a) const;
  [[nodiscard]] Rng split(std::uint64_t a, std::uint64_t b) const;
  [[nodiscard]] Rng split(std::uint64_t a, std::uint64_t b, std::uint64_t c) const;

  /// Next raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double();

  /// Bernoulli trial: true with probability p (p clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform integer in [0, bound) ; bound >= 1. Uses Lemire rejection.
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi); requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Geometric: number of Bernoulli(p) trials up to and including the first
  /// success, i.e. support {1, 2, ...}. Requires 0 < p <= 1.
  std::uint64_t geometric(double p);

  /// Geometric draw with the 1 / log1p(-p) constant precomputed by the
  /// caller — skip-sampling loops draw millions of these per run with a
  /// fixed p, and hoisting the log out of the draw is the dominant win of
  /// the sparse paths (see sim/topology.hpp and the bulk transmitter
  /// samplers). Requires inv_log1m_p = 1.0 / log1p(-p) for p in (0, 1).
  /// Saturates at 2^62: every caller adds the gap to an index far below
  /// that, so a saturated gap ends its loop exactly as the true one would,
  /// and the cast stays defined for any p a spec accepts (a NaN from
  /// 0 · inf at subnormal p saturates too).
  std::uint64_t geometric_inv(double inv_log1m_p) {
    const double u = 1.0 - next_double();  // (0, 1]
    double g = std::ceil(std::log(u) * inv_log1m_p);
    g = g < 0x1p62 ? g : 0x1p62;
    return g < 1.0 ? 1u : static_cast<std::uint64_t>(g);
  }

  /// Binomial(n, p) sample, exact for all (n, p): geometric skipping /
  /// direct simulation for small n*p, mode-centred inversion (expected
  /// O(sqrt(n p (1-p))) steps) otherwise. The implicit G(n,p) topology
  /// backend draws one of these per listener per dense round, so both
  /// exactness and speed matter here.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Samples an index from a discrete distribution given cumulative weights
  /// `cdf` (non-decreasing, cdf.back() == total mass <= 1 is allowed: with
  /// probability 1 - total the sentinel `miss` is returned).
  std::uint64_t sample_cdf(const double* cdf, std::uint64_t size, std::uint64_t miss);

  /// The internal 256-bit state, for checkpoint tests.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const { return s_; }

 private:
  std::array<std::uint64_t, 4> s_;
};

class StreamKey;

/// Eight independent xoshiro256** generators stepped in lockstep — the
/// batched lane generator behind the SIMD round sweeps (support/simd.hpp).
///
/// Lane l is seeded from key.fork(l), i.e. from *consecutive StreamKey fork
/// counters*, and every lane's output sequence is byte-identical to what
/// `key.fork(l).make_rng()` would draw on its own. The bulk draws
/// (next_u64_lanes / uniform_lanes / bernoulli_lanes) advance every lane by
/// exactly one step; the per-lane accessors advance a single lane. Both
/// views share the same state words, so a fused vector kernel and a scalar
/// replay of the same draw schedule consume the same streams — that is the
/// whole bit-identity argument of the vectorised sweeps, pinned by
/// tests/support/simd_test.cpp.
///
/// State is stored word-major (s_[word][lane]) so the AVX2 path can load
/// one state word of four lanes as a single 256-bit register; the scalar
/// fallback walks the same layout. The bulk draws dispatch at runtime
/// (support/simd.hpp) and are byte-identical in every mode.
class LaneRng {
 public:
  /// Lane count. Fixed — part of the dense sweep's randomness contract:
  /// listener position i consumes lane i % kLanes, independent of the
  /// vector width the host happens to execute with.
  static constexpr unsigned kLanes = 8;

  LaneRng() = default;

  /// Seeds lane l from key.fork(l) for l in [0, kLanes).
  explicit LaneRng(const StreamKey& key);

  /// One lockstep step: out[l] = lane l's next 64 random bits.
  /// Runtime-dispatched; byte-identical to kLanes next_u64_lane calls.
  void next_u64_lanes(std::uint64_t* out);

  /// One lockstep step: out[l] = lane l's next uniform double in [0, 1).
  void uniform_lanes(double* out);

  /// One lockstep step: bit l of the result is set iff lane l's uniform
  /// draw is < p (the same `u < p` comparison Rng::bernoulli uses).
  std::uint64_t bernoulli_lanes(double p);

  /// Advances a single lane (shares state with the lockstep steps).
  std::uint64_t next_u64_lane(unsigned lane);

  /// Portable reference implementation of next_u64_lanes — the scalar
  /// fallback the dispatched path must match byte-for-byte.
  void next_u64_lanes_scalar(std::uint64_t* out);

  /// Raw state row for word w (kLanes values) — the fused SIMD kernels in
  /// support/simd_avx2.cpp operate on these in place.
  [[nodiscard]] std::uint64_t* word(unsigned w) noexcept { return s_[w]; }
  [[nodiscard]] const std::uint64_t* word(unsigned w) const noexcept {
    return s_[w];
  }

 private:
  alignas(32) std::uint64_t s_[4][kLanes] = {};
};

/// Counter-keyed sub-stream derivation, the randomness backbone of the
/// block-sharded round sweeps (sim/topology.hpp).
///
/// A StreamKey is a single avalanche-mixed 64-bit key; `fork(i)` derives the
/// child key for counter i, and `make_rng()` materialises a generator seeded
/// from the key. Every draw made from a key chain like
///
///     root.fork(round).fork(block).make_rng()
///
/// is a pure function of (root, round, block) — never of which thread ran
/// the block, or in what order, or what any other block drew. That is what
/// makes the sharded sweeps bit-identical for any thread count: determinism
/// by construction rather than by locking. Forking costs two mix64 calls
/// and materialisation four splitmix64 steps, cheap enough to re-key every
/// (round, block) pair of a 10^8-listener sweep.
class StreamKey {
 public:
  StreamKey() = default;

  /// Derives the key from a generator's full 256-bit state, so distinct
  /// seed Rngs (and distinct split() streams) yield distinct key roots.
  [[nodiscard]] static StreamKey from_rng(const Rng& rng);

  /// Child key for sub-stream `counter`; distinct counters give
  /// (empirically) independent streams, same guarantee as Rng::split.
  [[nodiscard]] StreamKey fork(std::uint64_t counter) const {
    return StreamKey(mix64(key_ ^ mix64(counter + 0x9e3779b97f4a7c15ull)));
  }

  /// Materialises the generator for this key.
  [[nodiscard]] Rng make_rng() const { return Rng(key_); }

  /// The raw key, for audits and tests.
  [[nodiscard]] std::uint64_t value() const noexcept { return key_; }

 private:
  explicit StreamKey(std::uint64_t key) : key_(key) {}

  std::uint64_t key_ = 0;
};

}  // namespace radnet
