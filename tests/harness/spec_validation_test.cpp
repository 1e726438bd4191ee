// McSpec::validate — contradictory and out-of-range Monte-Carlo specs must
// fail fast with std::invalid_argument (RADNET_REQUIRE) before any trial
// runs, instead of silently resolving by backend precedence or crashing
// mid-experiment inside a worker thread. The SpecLineTest cases run spec
// lines at the edges of what BatchSpec::validate accepts, where an
// unclamped float-to-integer cast would leave its range (the sanitizer CI
// job checks float-cast-overflow), and pin the one such line it rejects.
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "baselines/broadcast_baselines.hpp"
#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"

namespace radnet::harness {
namespace {

McSpec valid_spec() {
  McSpec spec;
  spec.trials = 4;
  spec.implicit_gnp = sim::ImplicitGnp{256, 0.05, Rng{}};
  spec.make_protocol = [](const graph::Digraph&, std::uint32_t) {
    return std::make_unique<core::GeneralBroadcastProtocol>(
        baselines::flooding_params());
  };
  return spec;
}

TEST(SpecValidationTest, AcceptsAWellFormedSpec) {
  EXPECT_NO_THROW(valid_spec().validate());
}

TEST(SpecValidationTest, RejectsZeroTrials) {
  McSpec spec = valid_spec();
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsTrialsBeyondSlotVectorBound) {
  // The harness pre-sizes one TrialOutcome slot per trial; a fat-fingered
  // trial count must fail validation loudly instead of attempting the
  // multi-GiB allocation (or overflowing the size computation).
  McSpec spec = valid_spec();
  spec.trials = McSpec::kMaxTrials;
  EXPECT_NO_THROW(spec.validate());
  spec.trials = McSpec::kMaxTrials + 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsMissingTopologySource) {
  McSpec spec = valid_spec();
  spec.implicit_gnp.reset();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsMissingProtocolFactory) {
  McSpec spec = valid_spec();
  spec.make_protocol = nullptr;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsTwoImplicitBackendsAtOnce) {
  McSpec spec = valid_spec();
  sim::ImplicitDynamicGnp dynamic;
  dynamic.n = 256;
  dynamic.p = 0.05;
  spec.implicit_dynamic = dynamic;  // contradicts implicit_gnp
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  McSpec rgg_too = valid_spec();
  rgg_too.implicit_rgg = sim::ImplicitRgg{256, 0.1, 0.01};
  EXPECT_THROW(rgg_too.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsOutOfRangeImplicitGnp) {
  McSpec spec = valid_spec();
  spec.implicit_gnp = sim::ImplicitGnp{0, 0.05, Rng{}};  // n = 0
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.implicit_gnp = sim::ImplicitGnp{256, 0.0, Rng{}};  // p out of (0, 1]
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.implicit_gnp = sim::ImplicitGnp{256, 1.5, Rng{}};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsZeroChurnDynamicSpec) {
  // churn = 0 would freeze a graph that was never drawn: the static model
  // is implicit_gnp, so a zero-churn dynamic spec — with or without
  // fail_prob — is contradictory, not a degenerate case.
  McSpec spec = valid_spec();
  spec.implicit_gnp.reset();
  sim::ImplicitDynamicGnp dynamic;
  dynamic.n = 256;
  dynamic.p = 0.05;
  dynamic.churn = 0.0;
  dynamic.fail_prob = 0.01;
  spec.implicit_dynamic = dynamic;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  dynamic.churn = 0.5;
  dynamic.fail_prob = 1.0;  // fail_prob must stay in [0, 1)
  spec.implicit_dynamic = dynamic;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsOutOfRangeRgg) {
  McSpec spec = valid_spec();
  spec.implicit_gnp.reset();
  spec.implicit_rgg = sim::ImplicitRgg{256, 0.0, 0.01};  // radius = 0
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.implicit_rgg = sim::ImplicitRgg{256, 0.1, 1.5};  // step > 1
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RejectsInvalidAdversary) {
  McSpec spec = valid_spec();
  spec.run_options.adversary.jammer_fraction = 1.0;  // nothing left to measure
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  McSpec sum = valid_spec();
  sum.run_options.adversary.jammer_fraction = 0.7;
  sum.run_options.adversary.byzantine_fraction = 0.7;
  EXPECT_THROW(sum.validate(), std::invalid_argument);
}

TEST(SpecValidationTest, RunMonteCarloCallsValidate) {
  McSpec spec = valid_spec();
  spec.run_options.adversary.budget_mean = 1.0;
  spec.run_options.adversary.budget_spread = 2.0;  // spread must be in [0, 1]
  EXPECT_THROW((void)run_monte_carlo(spec), std::invalid_argument);
}

McResult run_line(const std::string& line) {
  return run_monte_carlo(parse_batch_spec(line).to_mc_spec());
}

TEST(SpecLineTest, TinyChurnRunsWithTheSketchHorizonClamped) {
  // churn = 1e-20 puts the sketch's stale horizon near 2.8e21 rounds, past
  // the range of its cast; clamped to 2^32 - 1 it must run exactly as
  // churn = 1e-17, whose horizon (2.8e18) fits the cast. At both churns
  // every tracked pair survives every re-examination in double precision.
  const std::string rest = " n=64 trials=2 max-rounds=5";
  const McResult tiny =
      run_line("protocol=alg2m family=idgnp churn=1e-20" + rest);
  const McResult small =
      run_line("protocol=alg2m family=idgnp churn=1e-17" + rest);
  ASSERT_EQ(tiny.trials(), 2u);
  ASSERT_EQ(small.trials(), 2u);
  for (std::uint32_t t = 0; t < 2; ++t) {
    const TrialOutcome& a = tiny.outcomes[t];
    const TrialOutcome& b = small.outcomes[t];
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.total_tx, b.total_tx);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_GT(a.deliveries, 0u);
  }
}

TEST(SpecLineTest, TinyLinkProbabilityRuns) {
  // Skip-sampling gaps near 1e300 saturate instead of leaving the cast's
  // range; the graph has no edge, so nothing is delivered.
  const McResult r =
      run_line("protocol=flooding family=csr p=1e-300 n=64 trials=2 max-rounds=5");
  ASSERT_EQ(r.trials(), 2u);
  EXPECT_EQ(r.outcomes[0].deliveries, 0u);
  EXPECT_EQ(r.outcomes[1].deliveries, 0u);
}

TEST(SpecLineTest, RejectsARadiusTooSmallForAHopDiameter) {
  // radius-mult = 1e-300 makes the radius ~1e-150, so the resolved hop
  // diameter ceil(1.4143 / r) would not fit any integer.
  try {
    (void)parse_batch_spec("protocol=alg2m family=irgg radius-mult=1e-300 n=64");
    FAIL() << "radius-mult=1e-300 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("radius-mult"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(
      (void)parse_batch_spec("protocol=alg2m family=irgg radius-mult=0.5 n=64"));
}

}  // namespace
}  // namespace radnet::harness
