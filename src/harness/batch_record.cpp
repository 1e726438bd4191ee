#include "harness/batch_record.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/parse.hpp"
#include "support/require.hpp"

namespace radnet::harness {

namespace {

/// Splits at every `sep`; an empty or trailing field survives as an empty
/// field, which no field parser accepts.
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  for (std::size_t at; (at = text.find(sep)) != std::string_view::npos;
       text.remove_prefix(at + 1))
    fields.push_back(text.substr(0, at));
  fields.push_back(text);
  return fields;
}

template <typename T>
T parse_field(std::string_view text, const char* name) {
  const std::uint64_t v = parse_u64_strict(text, name);
  RADNET_REQUIRE(v <= std::numeric_limits<T>::max(),
                 std::string(name) + " is out of range: " + std::string(text));
  return static_cast<T>(v);
}

}  // namespace

std::string encode_outcome(const TrialOutcome& o) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%d:%u:%llu:%u:%a:%llu:%llu:%u:%lld",
                o.completed ? 1 : 0, o.rounds,
                static_cast<unsigned long long>(o.total_tx), o.max_tx_node,
                o.mean_tx_node,
                static_cast<unsigned long long>(o.deliveries),
                static_cast<unsigned long long>(o.collisions), o.nodes,
                o.stranded.has_value()
                    ? static_cast<long long>(*o.stranded)
                    : -1ll);
  return buf;
}

TrialOutcome decode_outcome(std::string_view token) {
  const auto f = split(token, ':');
  RADNET_REQUIRE(f.size() == 9, "an outcome has nine fields, got '" +
                                    std::string(token) + "'");
  TrialOutcome o;
  const auto completed = parse_field<std::uint8_t>(f[0], "completed");
  RADNET_REQUIRE(completed <= 1, "completed must be 0 or 1");
  o.completed = completed == 1;
  o.rounds = parse_field<sim::Round>(f[1], "rounds");
  o.total_tx = parse_field<std::uint64_t>(f[2], "total_tx");
  o.max_tx_node = parse_field<std::uint32_t>(f[3], "max_tx_node");
  // %a prints "0x<hex>p<exp>"; from_chars parses it without the prefix.
  const char* end = f[4].data() + f[4].size();
  const auto parsed =
      f[4].starts_with("0x")
          ? std::from_chars(f[4].data() + 2, end, o.mean_tx_node,
                            std::chars_format::hex)
          : std::from_chars_result{end, std::errc::invalid_argument};
  RADNET_REQUIRE(parsed.ec == std::errc{} && parsed.ptr == end &&
                     std::isfinite(o.mean_tx_node) &&
                     !std::signbit(o.mean_tx_node),
                 "mean_tx_node must be a finite, non-negative %a hexfloat, "
                 "got '" + std::string(f[4]) + "'");
  o.deliveries = parse_field<std::uint64_t>(f[5], "deliveries");
  o.collisions = parse_field<std::uint64_t>(f[6], "collisions");
  o.nodes = parse_field<graph::NodeId>(f[7], "nodes");
  if (f[8] != "-1") o.stranded = parse_field<graph::NodeId>(f[8], "stranded");
  return o;
}

std::string header_record(std::string_view binding) {
  return "header " + std::string(kRecordVersion) + ' ' + std::string(binding);
}

std::string trials_record(std::size_t idx, std::uint32_t first,
                          std::span<const TrialOutcome> outcomes) {
  std::string s = "trials " + std::to_string(idx) + ' ' +
                  std::to_string(first) + ' ' +
                  std::to_string(outcomes.size());
  for (const TrialOutcome& o : outcomes) s += ' ' + encode_outcome(o);
  return s;
}

std::string error_record(std::size_t idx, std::string_view cause,
                         std::uint32_t attempts) {
  return "error " + std::to_string(idx) + ' ' + std::string(cause) + ' ' +
         std::to_string(attempts);
}

TrialsRecord decode_trials(std::string_view payload) {
  const auto f = split(payload, ' ');
  RADNET_REQUIRE(f.size() >= 4 && f[0] == "trials", "not a trials record");
  return TrialsRecord{parse_field<std::size_t>(f[1], "spec index"),
                      parse_field<std::uint32_t>(f[2], "first"),
                      parse_field<std::uint32_t>(f[3], "count"),
                      {f.begin() + 4, f.end()}};
}

void append_trials(const TrialsRecord& rec, std::uint32_t trials,
                   McResult& acc) {
  // `count <= trials - first`, not `first + count <= trials`: a count near
  // 2^32 must not wrap past the bound.
  RADNET_REQUIRE(rec.first == acc.trials() && rec.first <= trials &&
                     rec.count >= 1 && rec.count <= trials - rec.first &&
                     rec.tokens.size() == rec.count,
                 "trials record does not continue the spec's prefix");
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(rec.count);
  for (const std::string_view token : rec.tokens)
    outcomes.push_back(decode_outcome(token));
  for (const TrialOutcome& o : outcomes) {
    if (o.completed) ++acc.successes;
    acc.outcomes.push_back(o);
  }
}

ErrorRecord decode_error(std::string_view payload) {
  const auto f = split(payload, ' ');
  RADNET_REQUIRE(f.size() == 4 && f[0] == "error", "not an error record");
  ErrorRecord rec;
  rec.idx = parse_field<std::size_t>(f[1], "spec index");
  for (const std::string_view cause : {"crash", "timeout", "error"})
    if (f[2] == cause) rec.cause = cause;
  rec.attempts = parse_field<std::uint32_t>(f[3], "attempts");
  RADNET_REQUIRE(!rec.cause.empty() && rec.attempts >= 1,
                 "error record needs a known cause and attempts >= 1");
  return rec;
}

std::string cache_entry_path(const std::string& dir, std::uint64_t hash,
                             std::uint64_t seed) {
  return dir + "/h" + hex16(hash) + "_s" + hex16(seed) + ".rbc";
}

std::string encode_cache_entry(std::uint64_t hash, std::uint64_t seed,
                               std::span<const TrialOutcome> outcomes) {
  return journal_line(header_record(hex16(hash) + ' ' + hex16(seed))) +
         journal_line(trials_record(0, 0, outcomes));
}

McResult decode_cache_entry(std::string_view text, std::uint64_t hash,
                            std::uint64_t seed, std::uint32_t trials) {
  const JournalReplay replay = parse_journal(text);
  RADNET_REQUIRE(!replay.torn_tail && replay.records.size() == 2 &&
                     replay.records[0].payload ==
                         header_record(hex16(hash) + ' ' + hex16(seed)),
                 "not a cache entry for this spec and record version");
  const TrialsRecord rec = decode_trials(replay.records[1].payload);
  RADNET_REQUIRE(rec.idx == 0, "cache entry trials record is not spec 0");
  McResult acc;
  append_trials(rec, trials, acc);
  return acc;
}

}  // namespace radnet::harness
