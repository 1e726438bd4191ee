// Runtime-dispatched SIMD kernels for the two hot per-round sweeps.
//
// Design rule: the vector paths are *transcriptions* of the scalar
// reference, not approximations. Every kernel here has a portable scalar
// implementation and (on x86-64) an AVX2 implementation compiled in its own
// translation unit with -mavx2; the two produce byte-identical results:
//
//   * lane_step / classify_dense reproduce the xoshiro256** recurrence with
//     exact 64-bit integer ops, and convert u64 -> double with the
//     magic-constant trick, which is exact for values below 2^53 — the
//     (bits >> 11) * 0x1.0p-53 uniform is therefore bit-equal to the scalar
//     static_cast. Threshold comparisons use ordered `<`, same as scalar.
//   * rgg_scan keeps every squared distance in the exact same double form
//     as the scalar sweep (mul, mul, add — never FMA; the AVX2 TU is built
//     with -mavx2 only, so the compiler cannot contract either path), and
//     visits hits in ascending index order with the same early exit.
//
// Mode selection: CPUID at first use, overridable by the RADNET_SIMD
// environment variable (`off` or `scalar` pins the portable path, `avx2`
// requests the vector path and falls back with a warning when the CPU
// lacks it) and programmatically by set_mode() for benches and tests.
// Because every mode emits the same bytes, the override is a debugging and
// benchmarking knob, never a correctness knob.
#pragma once

#include <cstdint>

#include "support/rng.hpp"

namespace radnet::simd {

enum class Mode : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// True when the CPU (and the build) can execute the AVX2 kernels.
[[nodiscard]] bool cpu_has_avx2();

/// The mode all dispatched kernels currently run in. Resolved on first use:
/// RADNET_SIMD override if set, else AVX2 when available, else scalar.
[[nodiscard]] Mode active_mode();

/// Programmatic override (benches, tests). Requests for kAvx2 on a host
/// without it degrade to kScalar.
void set_mode(Mode mode);

/// "scalar" / "avx2" — the spelling used by RADNET_SIMD and the BENCH JSON.
[[nodiscard]] const char* mode_name(Mode mode);

// ---------------------------------------------------------------------------
// Lane generator step (LaneRng bulk draw backend).
// ---------------------------------------------------------------------------

/// Advances all LaneRng lanes by one step; out[l] = lane l's next u64.
void lane_step(LaneRng& lanes, std::uint64_t* out);
void lane_step_scalar(LaneRng& lanes, std::uint64_t* out);
void lane_step_avx2(LaneRng& lanes, std::uint64_t* out);

// ---------------------------------------------------------------------------
// Dense G(n,p) outcome classification (GnpSampler's plain dense sweep).
// ---------------------------------------------------------------------------

/// Per-round outcome thresholds, precomputed once per sweep (see
/// GnpSampler::outcome_probs): a listener's uniform u classifies as silent
/// when u < silent, as a single-sender delivery when u < edge, else as a
/// collision. Transmitting listeners use the *_tx pair (silent_tx = 1 under
/// half-duplex, so they always classify silent).
struct DenseClassifyParams {
  double silent;
  double edge;
  double silent_tx;
  double edge_tx;
};

inline constexpr unsigned char kOutcomeSilent = 0;
inline constexpr unsigned char kOutcomeDeliver = 1;
inline constexpr unsigned char kOutcomeCollide = 2;

/// Classifies `count` consecutive listeners: codes[i] for the listener at
/// position i, whose uniform is lane (i % kLanes)'s draw number (i / kLanes).
/// Every batch of kLanes positions advances all lanes once — including the
/// final partial batch, so stream consumption is a function of count alone.
/// is_tx must have `count` valid bytes (nonzero = transmitting listener);
/// the kernels never read past is_tx + count.
void classify_dense(LaneRng& lanes, const char* is_tx, std::uint32_t count,
                    unsigned char* codes, const DenseClassifyParams& params);
void classify_dense_scalar(LaneRng& lanes, const char* is_tx,
                           std::uint32_t count, unsigned char* codes,
                           const DenseClassifyParams& params);
void classify_dense_avx2(LaneRng& lanes, const char* is_tx,
                         std::uint32_t count, unsigned char* codes,
                         const DenseClassifyParams& params);

// ---------------------------------------------------------------------------
// RGG neighbourhood distance scan (ImplicitRggTopology's delivery sweep).
// ---------------------------------------------------------------------------

/// One round's bucketed transmitters in SoA form (sim/backends/
/// implicit_rgg.hpp). xs/ys/ids hold the coordinates and node ids of all
/// transmitters, cell-segmented by the CSR arrays: cell c's entries are
/// [cell_begin[c], cell_end[c]). The layout is *cell-ordered*: segments
/// follow ascending cell index with no gaps, so cell_end[c] ==
/// cell_begin[c + 1] for every c below cells² − 1 (the topology passes one
/// start array as both, offset by one). The cells x0..x1 of one grid row
/// therefore form the single span [cell_begin[row + x0], cell_end[row +
/// x1]), and a scan walks a listener's 3x3 neighbourhood as three such row
/// spans. The arrays carry >= kRggPad sentinel entries (coordinates far
/// outside the unit square) past the last real transmitter so the vector
/// path may load full 4-wide chunks that overhang a span end.
struct RggScanCtx {
  const double* xs;
  const double* ys;
  const std::uint32_t* ids;
  const std::uint32_t* cell_begin;
  const std::uint32_t* cell_end;
  std::uint32_t cells;  ///< grid side length
  double r2;            ///< squared delivery radius
};

/// Sentinel padding the SoA arrays must carry past the final entry.
inline constexpr std::uint32_t kRggPad = 4;

/// Counts transmitters within radius of listener (px, py) over the 3x3 cell
/// neighbourhood of (cx, cy), clamped at the grid edges and scanned as (up
/// to) three row spans, skipping id == self, early-exiting once two are
/// seen. Returns the hit count capped at 2; when it is exactly 1, *sender
/// is the unique transmitter's id. Both are functions of the set of
/// transmitters in range alone, so every mode returns the same result.
std::uint32_t rgg_scan(const RggScanCtx& ctx, double px, double py,
                       std::uint32_t cx, std::uint32_t cy, std::uint32_t self,
                       std::uint32_t* sender);
std::uint32_t rgg_scan_scalar(const RggScanCtx& ctx, double px, double py,
                              std::uint32_t cx, std::uint32_t cy,
                              std::uint32_t self, std::uint32_t* sender);
std::uint32_t rgg_scan_avx2(const RggScanCtx& ctx, double px, double py,
                            std::uint32_t cx, std::uint32_t cy,
                            std::uint32_t self, std::uint32_t* sender);

}  // namespace radnet::simd
