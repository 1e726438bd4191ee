// Small integer/real math helpers used throughout the reproduction.
//
// The paper's quantities are all in terms of log n, log d, log(n/D) and d = np;
// these helpers centralise the conventions (log base 2 unless stated, floors
// and ceilings as in the paper's definitions of T and lambda).
#pragma once

#include <cmath>
#include <cstdint>

namespace radnet {

/// floor(log2(x)) for x >= 1. ilog2(1) == 0.
[[nodiscard]] std::uint32_t ilog2_floor(std::uint64_t x);

/// ceil(log2(x)) for x >= 1. ilog2_ceil(1) == 0.
[[nodiscard]] std::uint32_t ilog2_ceil(std::uint64_t x);

/// Natural log of n as a double; requires n >= 1.
[[nodiscard]] double ln(double x);

/// log base 2 as a double; requires x > 0.
[[nodiscard]] double log2d(double x);

/// The paper's Phase-1 round count T = floor(log n / log d) for d > 1.
/// Saturates at 1 from below (a single round) so callers need not special-case
/// very dense graphs where d >= n.
[[nodiscard]] std::uint32_t phase1_rounds(std::uint64_t n, double d);

/// The paper's lambda = log2(n / D), clamped to [1, log2 n]. Used by
/// Algorithm 3 and the Theorem 4.2 trade-off.
[[nodiscard]] double lambda_of(std::uint64_t n, std::uint64_t diameter);

/// The delta-parameterised link probability p = delta * ln(n) / n,
/// saturated at 1: dense small-n corners of a delta sweep reach the
/// complete graph instead of an invalid p. Shared by batch specs and the
/// CLI so both resolve --delta / delta= to the same p.
[[nodiscard]] double delta_link_probability(std::uint64_t n, double delta);

/// Integer power with saturation at std::uint64_t max.
[[nodiscard]] std::uint64_t ipow_sat(std::uint64_t base, std::uint32_t exp);

/// 2^-k as a double for k in [0, 1023]; k beyond that returns 0.
[[nodiscard]] double pow2_neg(std::uint32_t k);

}  // namespace radnet
