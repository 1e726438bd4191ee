#include "support/bitset.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace radnet {
namespace {

TEST(BitsetTest, StartsAllClear) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.all());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(BitsetTest, SetResetTest) {
  Bitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(BitsetTest, SetAllRespectsSizeTail) {
  // A size that is not a multiple of 64 must not count ghost bits.
  Bitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.all());
  b.reset_all();
  EXPECT_TRUE(b.none());
}

TEST(BitsetTest, ExactWordBoundarySizes) {
  for (const std::size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    Bitset b(size);
    b.set_all();
    EXPECT_EQ(b.count(), size) << "size=" << size;
    EXPECT_TRUE(b.all()) << "size=" << size;
  }
}

TEST(BitsetTest, UniteCountsAddedBits) {
  Bitset a(80), b(80);
  a.set(3);
  b.set(3);
  EXPECT_EQ(a.unite(b), 0u);  // nothing new
  b.set(70);
  b.set(64);
  EXPECT_EQ(a.unite(b), 2u);
  EXPECT_TRUE(a.test(70));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.unite(b), 0u);  // now saturated w.r.t. b
}

TEST(BitsetTest, UniteIsUnion) {
  Bitset a(200), b(200);
  for (std::size_t i = 0; i < 200; i += 3) a.set(i);
  for (std::size_t i = 0; i < 200; i += 5) b.set(i);
  const std::size_t before = a.count();
  const std::size_t added = a.unite(b);
  EXPECT_EQ(before + added, a.count());
  EXPECT_EQ(added, 40u - 14u);  // multiples of 5 that are not of 15
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_EQ(a.test(i), (i % 3 == 0) || (i % 5 == 0)) << i;
}

TEST(BitsetTest, IntersectAndContains) {
  Bitset a(64), b(64);
  a.set(1);
  a.set(2);
  a.set(3);
  b.set(2);
  b.set(3);
  EXPECT_TRUE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
  a.intersect(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.test(1));
  EXPECT_TRUE(a.test(2));
}

TEST(BitsetTest, ForEachVisitsAscending) {
  Bitset b(150);
  const std::vector<std::size_t> want{0, 1, 63, 64, 100, 149};
  for (const auto i : want) b.set(i);
  std::vector<std::size_t> got;
  b.for_each([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitsetTest, EqualityAndSizeMismatch) {
  Bitset a(32), b(32), c(33);
  a.set(5);
  b.set(5);
  EXPECT_EQ(a, b);
  b.set(6);
  EXPECT_NE(a, b);
  EXPECT_THROW(a.unite(c), std::invalid_argument);
  EXPECT_THROW(a.intersect(c), std::invalid_argument);
  EXPECT_THROW((void)a.contains(c), std::invalid_argument);
}

TEST(BitsetTest, OutOfRangeAccessThrows) {
  Bitset b(10);
  EXPECT_THROW(b.set(10), std::invalid_argument);
  EXPECT_THROW(b.reset(11), std::invalid_argument);
  EXPECT_THROW((void)b.test(10), std::invalid_argument);
}

}  // namespace
}  // namespace radnet
