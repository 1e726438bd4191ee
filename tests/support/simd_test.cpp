// Equivalence suite for the SIMD layer (support/simd.hpp): the lane
// generator must be byte-identical to scalar draws from the same StreamKey
// fork counters, and every dispatched kernel must emit the same bytes in
// every mode. These tests are the ground truth behind the claim that
// RADNET_SIMD is a speed knob, never a correctness knob.
#include "support/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace radnet {
namespace {

/// Pins the dispatch mode for a scope and restores the previous one.
class ModeGuard {
 public:
  explicit ModeGuard(simd::Mode mode) : prev_(simd::active_mode()) {
    simd::set_mode(mode);
  }
  ~ModeGuard() { simd::set_mode(prev_); }

 private:
  simd::Mode prev_;
};

StreamKey test_key(std::uint64_t seed) {
  Rng rng(seed);
  return StreamKey::from_rng(rng);
}

/// Reference: the kLanes independent scalar generators a LaneRng must match.
std::array<Rng, LaneRng::kLanes> forked_rngs(const StreamKey& key) {
  std::array<Rng, LaneRng::kLanes> rngs = {
      Rng(0), Rng(0), Rng(0), Rng(0), Rng(0), Rng(0), Rng(0), Rng(0)};
  static_assert(LaneRng::kLanes == 8);
  for (unsigned l = 0; l < LaneRng::kLanes; ++l)
    rngs[l] = key.fork(l).make_rng();
  return rngs;
}

TEST(LaneRngTest, LanesMatchForkedScalarRngs) {
  const StreamKey key = test_key(0x5eed);
  LaneRng lanes(key);
  auto ref = forked_rngs(key);
  // Per-lane draws, every lane width exercised individually.
  for (int step = 0; step < 64; ++step)
    for (unsigned l = 0; l < LaneRng::kLanes; ++l)
      ASSERT_EQ(lanes.next_u64_lane(l), ref[l].next_u64())
          << "lane " << l << " step " << step;
}

TEST(LaneRngTest, BulkStepMatchesForkedScalarRngs) {
  const StreamKey key = test_key(0xabcdef);
  LaneRng lanes(key);
  auto ref = forked_rngs(key);
  std::uint64_t out[LaneRng::kLanes];
  for (int step = 0; step < 256; ++step) {
    lanes.next_u64_lanes(out);
    for (unsigned l = 0; l < LaneRng::kLanes; ++l)
      ASSERT_EQ(out[l], ref[l].next_u64()) << "lane " << l << " step " << step;
  }
}

TEST(LaneRngTest, BulkAndPerLaneAccessShareState) {
  const StreamKey key = test_key(17);
  LaneRng lanes(key);
  auto ref = forked_rngs(key);
  std::uint64_t out[LaneRng::kLanes];
  // Interleave bulk steps with scattered per-lane draws; the shared state
  // must keep every lane equal to its scalar twin.
  for (int round = 0; round < 32; ++round) {
    lanes.next_u64_lanes(out);
    for (unsigned l = 0; l < LaneRng::kLanes; ++l)
      ASSERT_EQ(out[l], ref[l].next_u64());
    const unsigned l = static_cast<unsigned>(round) % LaneRng::kLanes;
    ASSERT_EQ(lanes.next_u64_lane(l), ref[l].next_u64());
  }
}

TEST(LaneRngTest, UniformLanesMatchNextDouble) {
  const StreamKey key = test_key(99);
  LaneRng lanes(key);
  auto ref = forked_rngs(key);
  double u[LaneRng::kLanes];
  for (int step = 0; step < 128; ++step) {
    lanes.uniform_lanes(u);
    for (unsigned l = 0; l < LaneRng::kLanes; ++l) {
      const double expect = ref[l].next_double();
      ASSERT_EQ(u[l], expect) << "lane " << l << " step " << step;
      ASSERT_GE(u[l], 0.0);
      ASSERT_LT(u[l], 1.0);
    }
  }
}

TEST(LaneRngTest, BernoulliLanesMatchScalarComparison) {
  const StreamKey key = test_key(5);
  LaneRng lanes(key);
  auto ref = forked_rngs(key);
  const double ps[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  for (int step = 0; step < 100; ++step) {
    const double p = ps[step % 5];
    const std::uint64_t mask = lanes.bernoulli_lanes(p);
    for (unsigned l = 0; l < LaneRng::kLanes; ++l) {
      const bool expect = ref[l].next_double() < p;
      ASSERT_EQ((mask >> l) & 1u, expect ? 1u : 0u)
          << "lane " << l << " p " << p;
    }
  }
}

TEST(LaneRngTest, ScalarAndAvx2ModesByteIdentical) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const StreamKey key = test_key(0xfeed);
  std::vector<std::uint64_t> scalar_draws, avx2_draws;
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAvx2}) {
    ModeGuard guard(mode);
    LaneRng lanes(key);
    std::uint64_t out[LaneRng::kLanes];
    auto& sink = mode == simd::Mode::kScalar ? scalar_draws : avx2_draws;
    for (int step = 0; step < 1024; ++step) {
      lanes.next_u64_lanes(out);
      sink.insert(sink.end(), out, out + LaneRng::kLanes);
    }
  }
  ASSERT_EQ(scalar_draws, avx2_draws);
}

/// Scalar reference for classify_dense built from first principles: the
/// listener at position i consumes lane (i % kLanes)'s draw number
/// (i / kLanes), every batch steps all lanes.
std::vector<unsigned char> classify_reference(
    const StreamKey& key, const std::vector<char>& is_tx,
    const simd::DenseClassifyParams& params) {
  auto ref = forked_rngs(key);
  std::vector<unsigned char> codes(is_tx.size());
  const std::uint32_t count = static_cast<std::uint32_t>(is_tx.size());
  for (std::uint32_t base = 0; base < count; base += LaneRng::kLanes) {
    for (unsigned l = 0; l < LaneRng::kLanes; ++l) {
      const double u = ref[l].next_double();
      const std::uint32_t i = base + l;
      if (i >= count) continue;  // tail draws consumed, outcomes discarded
      const bool tx = is_tx[i] != 0;
      const double silent = tx ? params.silent_tx : params.silent;
      const double edge = tx ? params.edge_tx : params.edge;
      codes[i] = u < silent  ? simd::kOutcomeSilent
                 : u < edge ? simd::kOutcomeDeliver
                            : simd::kOutcomeCollide;
    }
  }
  return codes;
}

TEST(ClassifyDenseTest, AllModesMatchReferenceIncludingTails) {
  const simd::DenseClassifyParams params{0.25, 0.6, 0.55, 0.8};
  Rng pattern_rng(123);
  // Counts straddling every tail shape plus a full chunk-sized sweep.
  const std::uint32_t counts[] = {1, 2, 7, 8, 9, 15, 16, 17, 100, 2048};
  for (const std::uint32_t count : counts) {
    std::vector<char> is_tx(count);
    for (auto& f : is_tx) f = pattern_rng.bernoulli(0.3) ? 1 : 0;
    const StreamKey key = test_key(0x1000 + count);
    const auto expect = classify_reference(key, is_tx, params);
    for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAvx2}) {
      if (mode == simd::Mode::kAvx2 && !simd::cpu_has_avx2()) continue;
      ModeGuard guard(mode);
      LaneRng lanes(key);
      std::vector<unsigned char> codes(count);
      simd::classify_dense(lanes, is_tx.data(), count, codes.data(), params);
      ASSERT_EQ(codes, expect)
          << "count " << count << " mode " << simd::mode_name(mode);
      // The lane state after the call must equal the reference schedule's:
      // ceil(count / kLanes) steps on every lane.
      auto ref = forked_rngs(key);
      const std::uint32_t batches =
          (count + LaneRng::kLanes - 1) / LaneRng::kLanes;
      for (std::uint32_t b = 0; b < batches; ++b)
        for (auto& r : ref) r.next_u64();
      for (unsigned l = 0; l < LaneRng::kLanes; ++l)
        ASSERT_EQ(lanes.next_u64_lane(l), ref[l].next_u64());
    }
  }
}

TEST(ClassifyDenseTest, HalfDuplexThresholdsSilenceTransmitters) {
  // silent_tx = edge_tx = 1 models half-duplex: every uniform is < 1, so a
  // transmitting listener must always classify silent.
  const simd::DenseClassifyParams params{0.0, 0.0, 1.0, 1.0};
  const std::uint32_t count = 512;
  std::vector<char> is_tx(count, 1);
  const StreamKey key = test_key(4);
  LaneRng lanes(key);
  std::vector<unsigned char> codes(count, 0xff);
  simd::classify_dense(lanes, is_tx.data(), count, codes.data(), params);
  for (const unsigned char c : codes) ASSERT_EQ(c, simd::kOutcomeSilent);
}

/// Builds a tiny cell grid over random transmitters, exactly like
/// ImplicitRggTopology::bucket_transmitters (first-touch CSR + sentinels).
struct GridFixture {
  std::vector<double> xs, ys;
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> begin, end;
  std::uint32_t cells;
  double r2;
  std::vector<std::pair<double, double>> raw;  // (x, y) by transmitter index

  GridFixture(std::uint32_t cells_per_axis, std::uint32_t k, double radius,
              std::uint64_t seed)
      : cells(cells_per_axis), r2(radius * radius) {
    Rng rng(seed);
    std::vector<std::uint32_t> cell_of(k);
    std::vector<std::uint32_t> count(static_cast<std::size_t>(cells) * cells,
                                     0);
    for (std::uint32_t t = 0; t < k; ++t) {
      const double x = rng.next_double();
      const double y = rng.next_double();
      raw.emplace_back(x, y);
      const auto cx = std::min(static_cast<std::uint32_t>(
                                   x * static_cast<double>(cells)),
                               cells - 1);
      const auto cy = std::min(static_cast<std::uint32_t>(
                                   y * static_cast<double>(cells)),
                               cells - 1);
      cell_of[t] = cy * cells + cx;
      ++count[cell_of[t]];
    }
    begin.assign(static_cast<std::size_t>(cells) * cells, 0);
    end.assign(static_cast<std::size_t>(cells) * cells, 0);
    std::uint32_t offset = 0;
    for (std::size_t c = 0; c < begin.size(); ++c) {
      begin[c] = offset;
      offset += count[c];
      end[c] = begin[c];
    }
    xs.assign(k + simd::kRggPad, 1e30);
    ys.assign(k + simd::kRggPad, 1e30);
    ids.assign(k + simd::kRggPad, 0xffffffffu);
    for (std::uint32_t t = 0; t < k; ++t) {
      const std::uint32_t slot = end[cell_of[t]]++;
      xs[slot] = raw[t].first;
      ys[slot] = raw[t].second;
      ids[slot] = t;
    }
  }

  [[nodiscard]] simd::RggScanCtx ctx() const {
    return simd::RggScanCtx{xs.data(),    ys.data(), ids.data(),
                            begin.data(), end.data(), cells,
                            r2};
  }
};

TEST(RggScanTest, ModesMatchEachOtherAndBruteForce) {
  const double radius = 0.11;
  GridFixture grid(/*cells_per_axis=*/9, /*k=*/150, radius, /*seed=*/31);
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    const double px = rng.next_double();
    const double py = rng.next_double();
    const auto cx = std::min(
        static_cast<std::uint32_t>(px * static_cast<double>(grid.cells)),
        grid.cells - 1);
    const auto cy = std::min(
        static_cast<std::uint32_t>(py * static_cast<double>(grid.cells)),
        grid.cells - 1);
    // Listener may coincide with a transmitter id to exercise self-skip.
    const std::uint32_t self = static_cast<std::uint32_t>(trial % 200);

    // Brute force over all transmitters (the grid is fine enough for the
    // 3x3 neighbourhood to cover the radius).
    std::uint32_t brute_hits = 0;
    std::uint32_t brute_sender = 0;
    for (std::uint32_t t = 0; t < grid.raw.size(); ++t) {
      if (t == self) continue;
      const double ddx = px - grid.raw[t].first;
      const double ddy = py - grid.raw[t].second;
      if (ddx * ddx + ddy * ddy > grid.r2) continue;
      ++brute_hits;
      if (brute_hits == 1) brute_sender = t;
    }

    std::uint32_t s_sender = 0, v_sender = 0;
    const std::uint32_t s_hits = simd::rgg_scan_scalar(
        grid.ctx(), px, py, cx, cy, self, &s_sender);
    ASSERT_EQ(s_hits, std::min<std::uint32_t>(brute_hits, 2));
    if (s_hits == 1) {
      ASSERT_EQ(s_sender, brute_sender);
    }

    if (simd::cpu_has_avx2()) {
      const std::uint32_t v_hits = simd::rgg_scan_avx2(
          grid.ctx(), px, py, cx, cy, self, &v_sender);
      ASSERT_EQ(v_hits, s_hits);
      if (s_hits == 1) {
        ASSERT_EQ(v_sender, s_sender);
      }
    }
  }
}

TEST(RggScanTest, EveryLaneOfAChunkDecidesAlone) {
  // One cell holding `size` transmitters, all out of range but one (the
  // `in`-th) or two (0 and `in`): the listener's outcome then hangs on that
  // entry's lane of a 4-wide chunk alone, including lane 3 and the partial
  // tail chunk.
  const double radius = 0.05;
  for (const std::uint32_t size : {4u, 5u, 7u, 8u}) {
    for (std::uint32_t in = 0; in < size; ++in) {
      for (const bool with_first : {false, true}) {
        if (with_first && in == 0) continue;
        std::vector<double> xs(size + simd::kRggPad, 1e30);
        std::vector<double> ys(size + simd::kRggPad, 1e30);
        std::vector<std::uint32_t> ids(size + simd::kRggPad, 0xffffffffu);
        for (std::uint32_t i = 0; i < size; ++i) {
          const bool hit = i == in || (with_first && i == 0);
          xs[i] = hit ? 0.5 + 0.001 * i : 0.9;
          ys[i] = hit ? 0.5 : 0.9;
          ids[i] = 100 + i;
        }
        const std::uint32_t begin = 0;
        const std::uint32_t end = size;
        const simd::RggScanCtx ctx{xs.data(), ys.data(), ids.data(), &begin,
                                   &end,      1,         radius * radius};
        const std::uint32_t want_hits = with_first ? 2 : 1;
        for (const bool avx2 : {false, true}) {
          if (avx2 && !simd::cpu_has_avx2()) continue;
          std::uint32_t sender = 0;
          const std::uint32_t hits =
              avx2 ? simd::rgg_scan_avx2(ctx, 0.5, 0.5, 0, 0, 0, &sender)
                   : simd::rgg_scan_scalar(ctx, 0.5, 0.5, 0, 0, 0, &sender);
          ASSERT_EQ(hits, want_hits)
              << (avx2 ? "avx2" : "scalar") << " size " << size << " entry "
              << in;
          if (want_hits == 1) {
            ASSERT_EQ(sender, 100 + in) << (avx2 ? "avx2" : "scalar");
          }
        }
      }
    }
  }
}

TEST(SimdModeTest, NamesAndOverrides) {
  EXPECT_STREQ(simd::mode_name(simd::Mode::kScalar), "scalar");
  EXPECT_STREQ(simd::mode_name(simd::Mode::kAvx2), "avx2");
  const simd::Mode before = simd::active_mode();
  simd::set_mode(simd::Mode::kScalar);
  EXPECT_EQ(simd::active_mode(), simd::Mode::kScalar);
  simd::set_mode(simd::Mode::kAvx2);
  // Requests for AVX2 degrade to scalar when the CPU lacks it.
  EXPECT_EQ(simd::active_mode(),
            simd::cpu_has_avx2() ? simd::Mode::kAvx2 : simd::Mode::kScalar);
  simd::set_mode(before);
}

}  // namespace
}  // namespace radnet
