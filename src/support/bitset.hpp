// Fixed-capacity dynamic bitset.
//
// Used for rumor sets in the gossip algorithms (Section 3 of the paper: nodes
// join messages, so each node carries the set of rumors it knows) and for
// visited/informed sets in graph algorithms. The hot operation is
// `unite` (word-parallel OR) which models the paper's "join messages
// originated from different nodes together to one large message".
#pragma once

#include <cstdint>
#include <vector>

namespace radnet {

class Bitset {
 public:
  Bitset() = default;

  /// Constructs a bitset of `size` bits, all clear.
  explicit Bitset(std::size_t size);

  /// Number of addressable bits.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Sets bit i. Requires i < size().
  void set(std::size_t i);

  /// Clears bit i. Requires i < size().
  void reset(std::size_t i);

  /// Reads bit i. Requires i < size().
  [[nodiscard]] bool test(std::size_t i) const;

  /// Sets every bit.
  void set_all() noexcept;

  /// Clears every bit.
  void reset_all() noexcept;

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True iff every bit is set.
  [[nodiscard]] bool all() const noexcept;

  /// True iff no bit is set.
  [[nodiscard]] bool none() const noexcept;

  /// this |= other. Requires identical sizes. Returns the number of bits
  /// new to us (0 iff this did not change) — the gossip algorithms add it
  /// to their known-rumor totals without recounting either set.
  std::size_t unite(const Bitset& other);

  /// this &= other. Requires identical sizes.
  void intersect(const Bitset& other);

  /// True iff all bits of `other` are contained in this.
  [[nodiscard]] bool contains(const Bitset& other) const;

  /// Invokes f(i) for each set bit i in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
        f(w * 64 + tz);
        bits &= bits - 1;
      }
    }
  }

  [[nodiscard]] bool operator==(const Bitset& other) const = default;

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;

  void zero_tail() noexcept;
};

}  // namespace radnet
