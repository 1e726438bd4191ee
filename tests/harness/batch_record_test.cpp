// Record codec pins (harness/batch_record.hpp), the one format the batch
// cache, the run journal and the isolate pipe share:
//
//   * outcome tokens round-trip bit-exactly, and every malformed token —
//     wrong field count, a field over its type's range, trailing bytes, a
//     non-finite or negative mean_tx_node — is rejected;
//   * a `trials` record applies only where it continues its spec's prefix
//     within its trial budget, without wrapping;
//   * a cache entry holds outcomes, never a rendered line: a hit re-renders
//     through batch_result_json, and an entry the stop rule or the budget
//     rejects is quarantined and recomputed.
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/batch.hpp"
#include "harness/batch_record.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"

namespace radnet::harness {
namespace {

namespace fs = std::filesystem;

void expect_same(const TrialOutcome& a, const TrialOutcome& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_tx, b.total_tx);
  EXPECT_EQ(a.max_tx_node, b.max_tx_node);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_tx_node),
            std::bit_cast<std::uint64_t>(b.mean_tx_node));
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.stranded, b.stranded);
}

void expect_round_trip(const TrialOutcome& o) {
  const std::string token = encode_outcome(o);
  SCOPED_TRACE(token);
  expect_same(decode_outcome(token), o);
}

TEST(BatchRecordTest, OutcomesRoundTripBitExactly) {
  TrialOutcome o{.completed = true,
                 .rounds = 17,
                 .total_tx = 301,
                 .max_tx_node = 3,
                 .mean_tx_node = 1.0 / 3.0,
                 .deliveries = 9,
                 .collisions = 2,
                 .nodes = 64,
                 .stranded = std::nullopt};
  for (const double mean :
       {1.0 / 3.0, 0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3.0, 1e300,
        std::numeric_limits<double>::max()}) {
    o.mean_tx_node = mean;
    expect_round_trip(o);
  }
  o.stranded = 0;  // tracked, none stranded: distinct from untracked
  expect_round_trip(o);
  TrialOutcome max{.completed = true,
                   .rounds = std::numeric_limits<sim::Round>::max(),
                   .total_tx = std::numeric_limits<std::uint64_t>::max(),
                   .max_tx_node = std::numeric_limits<std::uint32_t>::max(),
                   .mean_tx_node = std::numeric_limits<double>::max(),
                   .deliveries = std::numeric_limits<std::uint64_t>::max(),
                   .collisions = std::numeric_limits<std::uint64_t>::max(),
                   .nodes = std::numeric_limits<graph::NodeId>::max(),
                   .stranded = std::numeric_limits<graph::NodeId>::max()};
  expect_round_trip(max);
}

TEST(BatchRecordTest, MalformedOutcomeTokensAreRejected) {
  EXPECT_EQ(decode_outcome("1:4:12:3:0x1.8p+1:9:2:64:-1").mean_tx_node, 3.0);
  for (const char* token : {
           "",
           "1:4:12:3:0x1.8p+1:9:2:64",         // eight fields
           "1:4:12:3:0x1.8p+1:9:2:64:-1:0",    // ten fields
           "1:4:12:3:0x1.8p+1:9:2:64:-1:",     // trailing separator
           "1::12:3:0x1.8p+1:9:2:64:-1",       // empty field
           "2:4:12:3:0x1.8p+1:9:2:64:-1",      // completed is 0 or 1
           "1:4294967296:12:3:0x1.8p+1:9:2:64:-1",
           "1:4:18446744073709551616:3:0x1.8p+1:9:2:64:-1",
           "1:4:12:4294967296:0x1.8p+1:9:2:64:-1",
           "1:4:12:3:0x1.8p+1:18446744073709551616:2:64:-1",
           "1:4:12:3:0x1.8p+1:9:18446744073709551616:64:-1",
           "1:4:12:3:0x1.8p+1:9:2:4294967296:-1",
           "1:4:12:3:0x1.8p+1:9:2:64:4294967296",
           "1:4:12:3:0x1.8p+1:9:2:64:-2",
           "+1:4:12:3:0x1.8p+1:9:2:64:-1",     // signs and spaces
           " 1:4:12:3:0x1.8p+1:9:2:64:-1",
           "1:-4:12:3:0x1.8p+1:9:2:64:-1",
           "1:4:12:3:0x1.8p+1:9:2:64:-1x",     // trailing garbage
           "1:4:12:3:0x1.8p+1junk:9:2:64:-1",
           "1:4:12:3:nan:9:2:64:-1",           // non-finite or negative mean
           "1:4:12:3:inf:9:2:64:-1",
           "1:4:12:3:0xnan:9:2:64:-1",
           "1:4:12:3:0xinf:9:2:64:-1",
           "1:4:12:3:0x1p+99999:9:2:64:-1",
           "1:4:12:3:-0x1p+0:9:2:64:-1",
           "1:4:12:3:0x-1p+0:9:2:64:-1",
           "1:4:12:3:-0x0p+0:9:2:64:-1",
           "1:4:12:3:1.5:9:2:64:-1",           // decimal, not %a
       }) {
    EXPECT_THROW((void)decode_outcome(token), std::invalid_argument)
        << "'" << token << "'";
  }
}

TEST(BatchRecordTest, TrialsRecordsApplyOnlyWhereTheyContinueThePrefix) {
  const std::vector<TrialOutcome> four(4, TrialOutcome{.completed = true,
                                                       .rounds = 5,
                                                       .nodes = 8,
                                                       .stranded = 1});
  const std::string record = trials_record(3, 0, four);  // rec views it
  const TrialsRecord rec = decode_trials(record);
  EXPECT_EQ(rec.idx, 3u);
  EXPECT_EQ(rec.first, 0u);
  EXPECT_EQ(rec.count, 4u);

  McResult acc;
  EXPECT_THROW(append_trials(rec, 3, acc), std::invalid_argument);  // budget
  append_trials(rec, 4, acc);
  EXPECT_EQ(acc.trials(), 4u);
  EXPECT_EQ(acc.successes, 4u);
  EXPECT_THROW(append_trials(rec, 8, acc), std::invalid_argument);  // first

  const auto rejects = [&](const std::string& payload) {
    McResult into = acc;
    try {
      append_trials(decode_trials(payload), 8, into);
    } catch (const std::invalid_argument&) {
      EXPECT_EQ(into.trials(), acc.trials()) << payload;  // untouched
      return true;
    }
    return false;
  };
  const std::string token = encode_outcome(four[0]);
  EXPECT_FALSE(rejects("trials 3 4 1 " + token));
  EXPECT_TRUE(rejects("trials 3 4 0"));                       // empty range
  std::string five = "trials 3 4 5";
  for (int t = 0; t < 5; ++t) five += ' ' + token;
  EXPECT_TRUE(rejects(five));                                  // over budget
  // first + count wraps to 0 in 32 bits; the bound must still hold.
  EXPECT_TRUE(rejects("trials 3 4 4294967292 " + token));
  EXPECT_TRUE(rejects("trials 3 4 2 " + token));              // too few tokens
  EXPECT_TRUE(rejects("trials 3 4 1 " + token + ' ' + token));  // too many
  EXPECT_TRUE(rejects("trials 3 4 1 " + token + ' '));        // trailing space
  EXPECT_TRUE(rejects("trials 3 4 1  " + token));             // empty token
  EXPECT_TRUE(rejects("trials -3 4 1 " + token));
  EXPECT_TRUE(rejects("trials 3 4 1"));
  EXPECT_TRUE(rejects("trial 3 4 1 " + token));
}

TEST(BatchRecordTest, ErrorRecordsRoundTripAndRejectUnknownCauses) {
  for (const char* cause : {"crash", "timeout", "error"}) {
    const ErrorRecord rec = decode_error(error_record(7, cause, 3));
    EXPECT_EQ(rec.idx, 7u);
    EXPECT_EQ(rec.cause, cause);
    EXPECT_EQ(rec.attempts, 3u);
  }
  for (const char* payload :
       {"error 7 oops 3", "error 7 crash 0", "error 7 crash 3 4",
        "error 7 crash", "error 7 crash 3 ", "error x crash 3",
        "error 7 crash 4294967296"})
    EXPECT_THROW((void)decode_error(payload), std::invalid_argument)
        << payload;
}

// ---- Cache entries -------------------------------------------------------

/// An all-fail alg1 spec that stops early by its rate interval, so its
/// entry holds fewer outcomes than its budget.
BatchSpec early_stopping_spec() {
  return parse_batch_spec(
      "protocol=alg1 family=ignp n=512 delta=8 trials=96 seed=13");
}

struct TempDir {
  explicit TempDir(const std::string& tag) : path("batch_record_" + tag) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

std::string run_to_string(const BatchSpec& spec, const BatchOptions& options,
                          BatchOutcome* outcome = nullptr,
                          BatchStats* stats = nullptr) {
  std::ostringstream out;
  auto outcomes = run_batch({spec}, options, out, stats);
  if (outcome != nullptr) *outcome = outcomes.at(0);
  return out.str();
}

McResult first_outcomes(const BatchSpec& spec, std::uint32_t count) {
  McResult acc;
  run_monte_carlo_range(spec.to_mc_spec(), 0, count, acc);
  return acc;
}

TEST(BatchRecordTest, CacheEntryReplaysAsTheRenderOfItsOutcomes) {
  const BatchSpec spec = early_stopping_spec();
  BatchOutcome cold;
  const std::string cold_line = run_to_string(spec, BatchOptions{}, &cold);
  ASSERT_LT(cold.trials_granted, spec.trials);

  // An entry built by the codec alone, never by run_batch.
  const McResult acc = first_outcomes(spec, cold.trials_granted);
  const TempDir dir("replay");
  std::ofstream(cache_entry_path(dir.path, spec.hash(), spec.seed),
                std::ios::binary)
      << encode_cache_entry(spec.hash(), spec.seed, acc.outcomes);
  BatchOptions options;
  options.cache_dir = dir.path;
  BatchOutcome warm;
  BatchStats stats;
  const std::string warm_line = run_to_string(spec, options, &warm, &stats);
  EXPECT_EQ(warm_line, batch_result_json(spec, acc, cold.trials_granted,
                                         cold.converged) +
                           "\n");
  EXPECT_EQ(warm_line, cold_line);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.trials_run, 0u);
  EXPECT_TRUE(warm.from_cache);
}

TEST(BatchRecordTest, FilledCacheEntryHoldsOutcomesNotARenderedLine) {
  // The entry is a function of the outcomes alone, so a field added to the
  // rendered line changes no stored byte and needs no version bump.
  const BatchSpec spec = early_stopping_spec();
  const TempDir dir("filled");
  BatchOptions options;
  options.cache_dir = dir.path;
  BatchOutcome cold;
  (void)run_to_string(spec, options, &cold);
  const auto entry =
      io::read_file(cache_entry_path(dir.path, spec.hash(), spec.seed));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->find("{\"hash\""), std::string::npos);
  EXPECT_EQ(*entry,
            encode_cache_entry(spec.hash(), spec.seed,
                               first_outcomes(spec, cold.trials_granted)
                                   .outcomes));
  const JournalReplay replay = parse_journal(*entry);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_NE(replay.records[0].payload.find(kRecordVersion),
            std::string::npos);
}

TEST(BatchRecordTest, EntryTheStopRuleOrBudgetRejectsIsQuarantined) {
  const BatchSpec spec = early_stopping_spec();
  BatchOutcome cold;
  const std::string cold_line = run_to_string(spec, BatchOptions{}, &cold);
  ASSERT_GT(cold.trials_granted, 16u);  // so the stop rule fails at 16
  const McResult full = first_outcomes(spec, spec.trials);
  std::vector<TrialOutcome> over = full.outcomes;
  over.push_back(over.back());
  const std::vector<TrialOutcome> early(full.outcomes.begin(),
                                        full.outcomes.begin() + 16);
  const struct {
    const char* tag;
    std::string content;
  } variants[] = {
      {"stop rule fails", encode_cache_entry(spec.hash(), spec.seed, early)},
      {"G over trials", encode_cache_entry(spec.hash(), spec.seed, over)},
      {"G zero", encode_cache_entry(spec.hash(), spec.seed, {})},
      {"trailing record",
       encode_cache_entry(spec.hash(), spec.seed, early) +
           journal_line(trials_record(0, 16, early))},
      {"stale format",
       "radnet-batch-cache-v2 0123456789abcdef " + cold_line},
  };
  const TempDir dir("quarantine");
  const std::string path = cache_entry_path(dir.path, spec.hash(), spec.seed);
  BatchOptions options;
  options.cache_dir = dir.path;
  for (const auto& v : variants) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << v.content;
    BatchStats stats;
    EXPECT_EQ(run_to_string(spec, options, nullptr, &stats), cold_line)
        << v.tag;
    EXPECT_EQ(stats.cache_quarantined, 1u) << v.tag;
    EXPECT_EQ(stats.cache_hits, 0u) << v.tag;
    EXPECT_EQ(stats.cache_stores, 1u) << v.tag;
    EXPECT_TRUE(fs::exists(path + ".quarantine")) << v.tag;
    fs::remove(path + ".quarantine");
  }
}

}  // namespace
}  // namespace radnet::harness
