// Mode resolution and the portable scalar kernels. The AVX2 twins live in
// simd_avx2.cpp (own TU, built with -mavx2); byte-identity between the two
// is pinned by tests/support/simd_test.cpp and the sweep_simd_modes
// sections of tests/sim/thread_invariance_test.cpp.
#include "support/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace radnet::simd {

namespace {

// Lazily resolved active mode. kUnresolved until the first active_mode()
// call (or an explicit set_mode), so tests can pin a mode before any sweep
// runs and the env override is read exactly once.
constexpr int kUnresolved = -1;
std::atomic<int> g_mode{kUnresolved};

Mode resolve_default() {
  if (const char* env = std::getenv("RADNET_SIMD")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0)
      return Mode::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      if (cpu_has_avx2()) return Mode::kAvx2;
      std::fprintf(stderr,
                   "radnet: RADNET_SIMD=avx2 requested but AVX2 is "
                   "unavailable; using the scalar path (same bytes)\n");
      return Mode::kScalar;
    }
    std::fprintf(stderr,
                 "radnet: unknown RADNET_SIMD value '%s' "
                 "(want off|scalar|avx2); auto-selecting\n",
                 env);
  }
  return cpu_has_avx2() ? Mode::kAvx2 : Mode::kScalar;
}

}  // namespace

Mode active_mode() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m == kUnresolved) {
    m = static_cast<int>(resolve_default());
    int expected = kUnresolved;
    // Racing first calls agree on the resolved value, so either store wins.
    g_mode.compare_exchange_strong(expected, m, std::memory_order_relaxed);
  }
  return static_cast<Mode>(m);
}

void set_mode(Mode mode) {
  if (mode == Mode::kAvx2 && !cpu_has_avx2()) mode = Mode::kScalar;
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

const char* mode_name(Mode mode) {
  return mode == Mode::kAvx2 ? "avx2" : "scalar";
}

void lane_step(LaneRng& lanes, std::uint64_t* out) {
  if (active_mode() == Mode::kAvx2)
    lane_step_avx2(lanes, out);
  else
    lane_step_scalar(lanes, out);
}

void lane_step_scalar(LaneRng& lanes, std::uint64_t* out) {
  lanes.next_u64_lanes_scalar(out);
}

void classify_dense(LaneRng& lanes, const char* is_tx, std::uint32_t count,
                    unsigned char* codes, const DenseClassifyParams& params) {
  if (active_mode() == Mode::kAvx2)
    classify_dense_avx2(lanes, is_tx, count, codes, params);
  else
    classify_dense_scalar(lanes, is_tx, count, codes, params);
}

void classify_dense_scalar(LaneRng& lanes, const char* is_tx,
                           std::uint32_t count, unsigned char* codes,
                           const DenseClassifyParams& params) {
  constexpr unsigned kW = LaneRng::kLanes;
  std::uint64_t bits[kW];
  for (std::uint32_t base = 0; base < count; base += kW) {
    lanes.next_u64_lanes_scalar(bits);  // all lanes step, even on the tail
    const std::uint32_t m = std::min<std::uint32_t>(kW, count - base);
    for (std::uint32_t l = 0; l < m; ++l) {
      const double u = static_cast<double>(bits[l] >> 11) * 0x1.0p-53;
      const bool tx = is_tx[base + l] != 0;
      const double silent = tx ? params.silent_tx : params.silent;
      const double edge = tx ? params.edge_tx : params.edge;
      codes[base + l] = u < silent  ? kOutcomeSilent
                        : u < edge ? kOutcomeDeliver
                                   : kOutcomeCollide;
    }
  }
}

std::uint32_t rgg_scan(const RggScanCtx& ctx, double px, double py,
                       std::uint32_t cx, std::uint32_t cy, std::uint32_t self,
                       std::uint32_t* sender) {
  if (active_mode() == Mode::kAvx2)
    return rgg_scan_avx2(ctx, px, py, cx, cy, self, sender);
  return rgg_scan_scalar(ctx, px, py, cx, cy, self, sender);
}

std::uint32_t rgg_scan_scalar(const RggScanCtx& ctx, double px, double py,
                              std::uint32_t cx, std::uint32_t cy,
                              std::uint32_t self, std::uint32_t* sender) {
  const std::uint32_t x0 = cx > 0 ? cx - 1 : 0;
  const std::uint32_t x1 = std::min(cx + 1, ctx.cells - 1);
  const std::uint32_t y0 = cy > 0 ? cy - 1 : 0;
  const std::uint32_t y1 = std::min(cy + 1, ctx.cells - 1);
  std::uint32_t hits = 0;
  for (std::uint32_t y = y0; y <= y1; ++y) {
    // Cells x0..x1 of row y are one contiguous span (cell-ordered CSR).
    const std::uint32_t row = y * ctx.cells;
    const std::uint32_t end = ctx.cell_end[row + x1];
    for (std::uint32_t i = ctx.cell_begin[row + x0]; i < end; ++i) {
      const std::uint32_t id = ctx.ids[i];
      if (id == self) continue;
      const double ddx = px - ctx.xs[i];
      const double ddy = py - ctx.ys[i];
      if (ddx * ddx + ddy * ddy > ctx.r2) continue;
      *sender = id;
      if (++hits >= 2) return 2;
    }
  }
  return hits;
}

}  // namespace radnet::simd
