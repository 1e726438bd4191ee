#include "support/bitset.hpp"

#include <bit>

#include "support/require.hpp"

namespace radnet {

Bitset::Bitset(std::size_t size) : size_(size), words_((size + 63) / 64, 0) {}

void Bitset::set(std::size_t i) {
  RADNET_REQUIRE(i < size_, "Bitset::set out of range");
  words_[i / 64] |= (std::uint64_t{1} << (i % 64));
}

void Bitset::reset(std::size_t i) {
  RADNET_REQUIRE(i < size_, "Bitset::reset out of range");
  words_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

bool Bitset::test(std::size_t i) const {
  RADNET_REQUIRE(i < size_, "Bitset::test out of range");
  return (words_[i / 64] >> (i % 64)) & 1u;
}

void Bitset::set_all() noexcept {
  for (auto& w : words_) w = ~std::uint64_t{0};
  zero_tail();
}

void Bitset::reset_all() noexcept {
  for (auto& w : words_) w = 0;
}

std::size_t Bitset::count() const noexcept {
  std::size_t c = 0;
  for (const auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
  return c;
}

bool Bitset::all() const noexcept { return count() == size_; }

bool Bitset::none() const noexcept {
  for (const auto w : words_)
    if (w != 0) return false;
  return true;
}

std::size_t Bitset::unite(const Bitset& other) {
  RADNET_REQUIRE(size_ == other.size_, "Bitset::unite size mismatch");
  std::size_t added = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t fresh = other.words_[i] & ~words_[i];
    words_[i] |= fresh;
    if (fresh != 0) added += static_cast<std::size_t>(std::popcount(fresh));
  }
  return added;
}

void Bitset::intersect(const Bitset& other) {
  RADNET_REQUIRE(size_ == other.size_, "Bitset::intersect size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

bool Bitset::contains(const Bitset& other) const {
  RADNET_REQUIRE(size_ == other.size_, "Bitset::contains size mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((other.words_[i] & ~words_[i]) != 0) return false;
  return true;
}

void Bitset::zero_tail() noexcept {
  const std::size_t tail = size_ % 64;
  if (tail != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << tail) - 1;
}

}  // namespace radnet
