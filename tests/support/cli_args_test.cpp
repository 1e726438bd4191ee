#include "support/cli_args.hpp"

#include <gtest/gtest.h>

namespace radnet {
namespace {

CliArgs parse(std::vector<const char*> argv,
              const std::vector<std::string>& known) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(), known);
}

TEST(CliArgsTest, SpaceAndEqualsForms) {
  const auto args =
      parse({"--n", "42", "--p=0.5", "--name", "hello"}, {"n", "p", "name"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get_string("p", ""), "0.5");
  EXPECT_EQ(args.get_string("name", ""), "hello");
}

TEST(CliArgsTest, BareFlagIsBooleanTrue) {
  const auto args = parse({"--verbose", "--n", "3"}, {"verbose", "n"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
}

TEST(CliArgsTest, DefaultsWhenAbsent) {
  const auto args = parse({}, {"n"});
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_EQ(args.get_string("n", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("n", false));
}

TEST(CliArgsTest, BooleanSpellings) {
  const auto args = parse({"--a", "yes", "--b", "0", "--c=off", "--d", "1"},
                          {"a", "b", "c", "d"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

TEST(CliArgsTest, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}, {"n"}), std::invalid_argument);
}

TEST(CliArgsTest, MalformedValuesThrow) {
  const auto args = parse({"--n", "abc", "--b", "maybe"}, {"n", "b"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_bool("b", false), std::invalid_argument);
}

TEST(CliArgsTest, NegativeToU64Throws) {
  const auto args = parse({"--n", "-5"}, {"n"});
  EXPECT_EQ(args.get_int("n", 0), -5);
  EXPECT_THROW((void)args.get_u64("n", 0), std::invalid_argument);
}

TEST(CliArgsTest, NonDashArgumentRejected) {
  EXPECT_THROW(parse({"loose"}, {"n"}), std::invalid_argument);
}

}  // namespace
}  // namespace radnet
