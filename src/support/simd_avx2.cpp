// AVX2 implementations of the dispatched kernels (support/simd.hpp). This
// TU is the only one compiled with -mavx2 (plus -ffp-contract=off, shared
// with simd.cpp, so neither side of the identity contract can fuse
// mul+add); everything here must stay byte-identical to the scalar
// reference in simd.cpp — see the header for the exactness argument.
#include "support/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace radnet::simd {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

namespace {

inline __m256i rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

inline __m256i mul5(__m256i x) {
  return _mm256_add_epi64(x, _mm256_slli_epi64(x, 2));
}

inline __m256i mul9(__m256i x) {
  return _mm256_add_epi64(x, _mm256_slli_epi64(x, 3));
}

/// Exact u64 -> double for values below 2^53 (all our inputs are
/// 53-bit: bits >> 11). Split into 32-bit halves, rebias via the
/// 2^84 / 2^52 exponent constants, recombine; every step is exact, so the
/// result equals the scalar static_cast<double> bit-for-bit.
inline __m256d u64_to_pd_exact(__m256i v) {
  const __m256i hi_magic = _mm256_set1_epi64x(0x4530000000000000ll);  // 2^84
  const __m256i lo_magic = _mm256_set1_epi64x(0x4330000000000000ll);  // 2^52
  const __m256d hi_bias = _mm256_set1_pd(0x1.00000001p84);  // 2^84 + 2^52
  __m256i x_hi = _mm256_or_si256(_mm256_srli_epi64(v, 32), hi_magic);
  __m256i x_lo = _mm256_blend_epi32(v, lo_magic, 0xAA);
  __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(x_hi), hi_bias);
  return _mm256_add_pd(f, _mm256_castsi256_pd(x_lo));
}

/// One xoshiro256** step of four lanes held in registers; returns the
/// output word. Same recurrence as Rng::next_u64, exact 64-bit integer ops.
inline __m256i xoshiro_step4(__m256i& s0, __m256i& s1, __m256i& s2,
                             __m256i& s3) {
  const __m256i result = mul9(rotl64(mul5(s1), 7));
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl64(s3, 45);
  return result;
}

}  // namespace

void lane_step_avx2(LaneRng& lanes, std::uint64_t* out) {
  static_assert(LaneRng::kLanes == 8, "two 4-wide halves per step");
  for (unsigned h = 0; h < 2; ++h) {
    // s_[w] rows are 32-byte aligned and each half offset is 32 bytes.
    auto* w0 = reinterpret_cast<__m256i*>(lanes.word(0) + 4 * h);
    auto* w1 = reinterpret_cast<__m256i*>(lanes.word(1) + 4 * h);
    auto* w2 = reinterpret_cast<__m256i*>(lanes.word(2) + 4 * h);
    auto* w3 = reinterpret_cast<__m256i*>(lanes.word(3) + 4 * h);
    __m256i s0 = _mm256_load_si256(w0);
    __m256i s1 = _mm256_load_si256(w1);
    __m256i s2 = _mm256_load_si256(w2);
    __m256i s3 = _mm256_load_si256(w3);
    const __m256i r = xoshiro_step4(s0, s1, s2, s3);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * h), r);
    _mm256_store_si256(w0, s0);
    _mm256_store_si256(w1, s1);
    _mm256_store_si256(w2, s2);
    _mm256_store_si256(w3, s3);
  }
}

void classify_dense_avx2(LaneRng& lanes, const char* is_tx,
                         std::uint32_t count, unsigned char* codes,
                         const DenseClassifyParams& params) {
  constexpr unsigned kW = LaneRng::kLanes;
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256d silent = _mm256_set1_pd(params.silent);
  const __m256d edge = _mm256_set1_pd(params.edge);
  const __m256d silent_tx = _mm256_set1_pd(params.silent_tx);
  const __m256d edge_tx = _mm256_set1_pd(params.edge_tx);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one64 = _mm256_set1_epi64x(1);
  // Keep all lane state in registers across the whole chunk.
  __m256i s[2][4];
  for (unsigned h = 0; h < 2; ++h)
    for (unsigned w = 0; w < 4; ++w)
      s[h][w] =
          _mm256_load_si256(reinterpret_cast<__m256i*>(lanes.word(w) + 4 * h));
  for (std::uint32_t base = 0; base < count; base += kW) {
    const std::uint32_t m = std::min<std::uint32_t>(kW, count - base);
    unsigned char txb[8];
    if (m == kW) {
      std::memcpy(txb, is_tx + base, 8);
    } else {
      std::memset(txb, 0, 8);  // never read past is_tx + count
      std::memcpy(txb, is_tx + base, m);
    }
    const __m128i txv =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(txb));
    alignas(32) std::uint64_t codebuf[kW];
    for (unsigned h = 0; h < 2; ++h) {
      const __m256i r = xoshiro_step4(s[h][0], s[h][1], s[h][2], s[h][3]);
      const __m256d u =
          _mm256_mul_pd(u64_to_pd_exact(_mm256_srli_epi64(r, 11)), scale);
      // A lane is tx iff its byte is nonzero — match scalar `!= 0` for any
      // byte value, so test equality with zero and select the non-tx
      // thresholds where it holds.
      const __m128i tb = h ? _mm_srli_si128(txv, 4) : txv;
      const __m256i not_tx =
          _mm256_cmpeq_epi64(_mm256_cvtepi8_epi64(tb), zero);
      const __m256d sv =
          _mm256_blendv_pd(silent_tx, silent, _mm256_castsi256_pd(not_tx));
      const __m256d ev =
          _mm256_blendv_pd(edge_tx, edge, _mm256_castsi256_pd(not_tx));
      const __m256d lt_silent = _mm256_cmp_pd(u, sv, _CMP_LT_OQ);
      const __m256d lt_edge = _mm256_cmp_pd(u, ev, _CMP_LT_OQ);
      // code = !(u < silent) + !(u < edge): 0 silent, 1 deliver, 2 collide.
      const __m256i code = _mm256_add_epi64(
          _mm256_andnot_si256(_mm256_castpd_si256(lt_silent), one64),
          _mm256_andnot_si256(_mm256_castpd_si256(lt_edge), one64));
      _mm256_store_si256(reinterpret_cast<__m256i*>(codebuf + 4 * h), code);
    }
    for (std::uint32_t l = 0; l < m; ++l)
      codes[base + l] = static_cast<unsigned char>(codebuf[l]);
  }
  for (unsigned h = 0; h < 2; ++h)
    for (unsigned w = 0; w < 4; ++w)
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes.word(w) + 4 * h),
                         s[h][w]);
}

std::uint32_t rgg_scan_avx2(const RggScanCtx& ctx, double px, double py,
                            std::uint32_t cx, std::uint32_t cy,
                            std::uint32_t self, std::uint32_t* sender) {
  const __m256d pxv = _mm256_set1_pd(px);
  const __m256d pyv = _mm256_set1_pd(py);
  const __m256d r2v = _mm256_set1_pd(ctx.r2);
  const std::uint32_t x0 = cx > 0 ? cx - 1 : 0;
  const std::uint32_t x1 = std::min(cx + 1, ctx.cells - 1);
  const std::uint32_t y0 = cy > 0 ? cy - 1 : 0;
  const std::uint32_t y1 = std::min(cy + 1, ctx.cells - 1);
  std::uint32_t hits = 0;
  for (std::uint32_t y = y0; y <= y1; ++y) {
    // Cells x0..x1 of row y are one contiguous span (cell-ordered CSR).
    const std::uint32_t row = y * ctx.cells;
    const std::uint32_t end = ctx.cell_end[row + x1];
    for (std::uint32_t i = ctx.cell_begin[row + x0]; i < end; i += 4) {
      // Full-width loads may overhang the span (kRggPad sentinels make them
      // safe); the tail mask discards the overhang, and hits are consumed in
      // ascending index order — same order, same early exit, same sender as
      // the scalar scan.
      const __m256d xs = _mm256_loadu_pd(ctx.xs + i);
      const __m256d ys = _mm256_loadu_pd(ctx.ys + i);
      const __m256d dx = _mm256_sub_pd(pxv, xs);
      const __m256d dy = _mm256_sub_pd(pyv, ys);
      const __m256d d2 =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
      int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, r2v, _CMP_LE_OQ));
      const std::uint32_t rem = end - i;
      if (rem < 4) mask &= (1 << rem) - 1;
      while (mask) {
        const int lane = __builtin_ctz(static_cast<unsigned>(mask));
        mask &= mask - 1;
        const std::uint32_t id = ctx.ids[i + static_cast<std::uint32_t>(lane)];
        if (id == self) continue;
        *sender = id;
        if (++hits >= 2) return 2;
      }
    }
  }
  return hits;
}

}  // namespace radnet::simd

#else  // !__AVX2__ — non-x86 build or compiler without -mavx2 support.

namespace radnet::simd {

bool cpu_has_avx2() { return false; }

void lane_step_avx2(LaneRng& lanes, std::uint64_t* out) {
  lane_step_scalar(lanes, out);
}

void classify_dense_avx2(LaneRng& lanes, const char* is_tx,
                         std::uint32_t count, unsigned char* codes,
                         const DenseClassifyParams& params) {
  classify_dense_scalar(lanes, is_tx, count, codes, params);
}

std::uint32_t rgg_scan_avx2(const RggScanCtx& ctx, double px, double py,
                            std::uint32_t cx, std::uint32_t cy,
                            std::uint32_t self, std::uint32_t* sender) {
  return rgg_scan_scalar(ctx, px, py, cx, cy, self, sender);
}

}  // namespace radnet::simd

#endif
