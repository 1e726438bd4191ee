#include "harness/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace radnet::harness {
namespace {

// Helper to scope environment-variable changes to a test.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) old_ = old;
    had_old_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(ExperimentTest, DefaultsWhenUnset) {
  ::unsetenv("RADNET_SCALE");
  ::unsetenv("RADNET_TRIALS");
  ::unsetenv("RADNET_CSV");
  const auto env = bench_env();
  EXPECT_DOUBLE_EQ(env.scale, 1.0);
  EXPECT_EQ(env.trials_override, 0u);
  EXPECT_TRUE(env.csv_dir.empty());
  EXPECT_EQ(env.trials(32), 32u);
  EXPECT_EQ(env.scaled(1000), 1000u);
}

TEST(ExperimentTest, EnvOverridesApply) {
  EnvGuard scale("RADNET_SCALE", "0.5");
  EnvGuard trials("RADNET_TRIALS", "7");
  EnvGuard seed("RADNET_SEED", "123");
  EnvGuard csv("RADNET_CSV", "/tmp");
  const auto env = bench_env();
  EXPECT_DOUBLE_EQ(env.scale, 0.5);
  EXPECT_EQ(env.trials(32), 7u);
  EXPECT_EQ(env.seed, 123u);
  EXPECT_EQ(env.csv_dir, "/tmp");
  EXPECT_EQ(env.scaled(1000), 500u);
}

TEST(ExperimentTest, ScaledRespectsMinimum) {
  BenchEnv env;
  env.scale = 0.001;
  EXPECT_EQ(env.scaled(100, 16), 16u);
}

TEST(ExperimentTest, InvalidEnvValuesIgnored) {
  EnvGuard scale("RADNET_SCALE", "-3");
  EnvGuard trials("RADNET_TRIALS", "bogus");
  const auto env = bench_env();
  EXPECT_DOUBLE_EQ(env.scale, 1.0);
  EXPECT_EQ(env.trials_override, 0u);
}

}  // namespace
}  // namespace radnet::harness
