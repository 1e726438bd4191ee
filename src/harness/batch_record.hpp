// The one record format of the batch layer, shared by the run journal, the
// cache entries and the isolate pipe. A spec's result is stored as its
// trial outcomes, never as its rendered line, so a field added to the line
// needs no format change. Payloads, each one checksummed line
// (support/journal.hpp):
//
//   header <kRecordVersion> <binding>
//   trials <spec-idx> <first> <count> <outcome> <outcome> ...
//   error <spec-idx> <crash|timeout|error> <attempts>
//
// A journal's header binds its spec set and grant schedule; a cache entry
// is a one-spec journal, a header bound to (spec hash, seed) plus one
// `trials 0 0 <G>` record. Decoders are strict — unsigned decimal fields
// range-checked against their types, no empty or extra fields — and throw
// std::invalid_argument naming what is wrong.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/monte_carlo.hpp"

namespace radnet::harness {

/// Carried by every header: older journals and cache entries are refused.
inline constexpr std::string_view kRecordVersion = "radnet-batch-record-v3";

/// `completed:rounds:total_tx:max_tx_node:mean_tx_node:deliveries:
/// collisions:nodes:stranded`; mean_tx_node is a %a hexfloat (bit-exact,
/// finite, non-negative) and an untracked `stranded` is -1.
[[nodiscard]] std::string encode_outcome(const TrialOutcome& o);
[[nodiscard]] TrialOutcome decode_outcome(std::string_view token);

[[nodiscard]] std::string header_record(std::string_view binding);
[[nodiscard]] std::string trials_record(std::size_t idx, std::uint32_t first,
                                        std::span<const TrialOutcome> outcomes);
[[nodiscard]] std::string error_record(std::size_t idx, std::string_view cause,
                                       std::uint32_t attempts);

struct TrialsRecord {
  std::size_t idx = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::vector<std::string_view> tokens;  ///< undecoded; view the payload
};
[[nodiscard]] TrialsRecord decode_trials(std::string_view payload);

/// Appends the outcomes of `rec` to `acc`, the first acc.trials() outcomes
/// of a spec of `trials` trials. Throws, leaving `acc` unchanged, unless
/// first == acc.trials(), 1 <= count <= trials - first (no sum can wrap)
/// and all `count` tokens decode.
void append_trials(const TrialsRecord& rec, std::uint32_t trials,
                   McResult& acc);

struct ErrorRecord {
  std::size_t idx = 0;
  std::string_view cause;  ///< a static "crash", "timeout" or "error"
  std::uint32_t attempts = 0;
};
[[nodiscard]] ErrorRecord decode_error(std::string_view payload);

[[nodiscard]] std::string cache_entry_path(const std::string& dir,
                                           std::uint64_t hash,
                                           std::uint64_t seed);
[[nodiscard]] std::string encode_cache_entry(
    std::uint64_t hash, std::uint64_t seed,
    std::span<const TrialOutcome> outcomes);
/// The outcomes of an entry holding exactly its header and one
/// `trials 0 0 <G>` record with 1 <= G <= trials, untorn. The stop rule at
/// G is the caller's to check.
[[nodiscard]] McResult decode_cache_entry(std::string_view text,
                                          std::uint64_t hash,
                                          std::uint64_t seed,
                                          std::uint32_t trials);

}  // namespace radnet::harness
