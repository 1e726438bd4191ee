// Canonical field hashing for specs-as-data.
//
// The batch sweep service (harness/batch.hpp) addresses every Monte-Carlo
// result by a stable 64-bit hash of its *canonicalised* spec — the
// validated, defaulted field set, never the source text — so two spec
// lines that differ only in key order, whitespace or spelled-out defaults
// collide onto the same cache entry. HashStream is FNV-1a over tagged
// field encodings with a splitmix64 avalanche finish: FNV gives cheap
// incremental bytes, the final mix removes FNV's weak low-bit diffusion
// so truncated hashes (cache shard prefixes) stay uniform.
//
// Field tags make the encoding self-delimiting: every put() feeds the
// field's tag before its payload, so adjacent fields can never alias
// (e.g. {a="xy", b="z"} vs {a="x", b="yz"}). Doubles hash their IEEE bit
// pattern with -0.0 canonicalised to +0.0; NaNs are rejected — a spec
// field that parsed to NaN is a validation bug, not a hashable value.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "support/require.hpp"
#include "support/rng.hpp"  // mix64

namespace radnet {

/// One-shot FNV-1a over raw bytes with the same avalanche finish
/// HashStream uses — the per-record checksum of journal records and cache
/// entries (support/journal.hpp). Not a MAC: it detects
/// torn writes and bit rot, not adversarial tampering.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return mix64(h);
}

/// 16 lower-case hex digits: hashes and checksums in lines and file names.
[[nodiscard]] inline std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class HashStream {
 public:
  /// Field tags; stable across sessions — append, never renumber, or every
  /// cached result is silently invalidated (bump the domain string instead
  /// when the encoding itself changes).
  using Tag = std::uint32_t;

  /// Starts a stream under a domain-separation string (e.g.
  /// "radnet-batch-spec-v1") so unrelated hash users never collide.
  explicit HashStream(std::string_view domain) { put_bytes(domain); }

  HashStream& put_u64(Tag tag, std::uint64_t v) {
    put_raw_u64(tag);
    put_raw_u64(v);
    return *this;
  }

  HashStream& put_double(Tag tag, double v) {
    RADNET_REQUIRE(!std::isnan(v), "cannot hash a NaN spec field");
    if (v == 0.0) v = 0.0;  // -0.0 == 0.0, canonicalise the bit pattern
    put_raw_u64(tag);
    put_raw_u64(std::bit_cast<std::uint64_t>(v));
    return *this;
  }

  HashStream& put_string(Tag tag, std::string_view s) {
    put_raw_u64(tag);
    put_raw_u64(s.size());
    put_bytes(s);
    return *this;
  }

  /// Avalanche-finished digest; the stream remains usable (more fields may
  /// be fed and value() taken again).
  [[nodiscard]] std::uint64_t value() const { return mix64(h_); }

 private:
  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

  void put_bytes(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<std::uint8_t>(c);
      h_ *= kFnvPrime;
    }
  }
  void put_raw_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= kFnvPrime;
    }
  }

  std::uint64_t h_ = kFnvOffset;
};

}  // namespace radnet
