// Batched sweep service (harness/batch.hpp) contracts:
//
//   * spec canonicalisation — key order, spelled-out defaults and
//     delta-vs-explicit-p spellings hash identically; different
//     experiments hash differently; malformed lines are rejected naming
//     the key and line;
//   * determinism — the same spec file produces byte-identical output
//     streams at 1/2/8 threads and with no cache, a cold cache and a warm
//     cache;
//   * early stopping — an early-stopped result is bit-identical to a
//     prefix of the forced full run (the run_monte_carlo_range prefix
//     property, surfaced end-to-end);
//   * caching — repeated specs are answered from the in-run memo / disk
//     cache without re-running trials.
//   * streaming — each result line is flushed before the next spec is
//     granted.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/batch.hpp"
#include "harness/monte_carlo.hpp"
#include "harness/protocols.hpp"

namespace radnet::harness {
namespace {

namespace fs = std::filesystem;

/// A small mixed-family spec set that exercises every backend family while
/// staying tier-1 fast. Each of these runs its full trial budget.
constexpr const char* kSpecs[] = {
    "protocol=alg1 family=ignp n=256 delta=8 trials=96 seed=7",
    "protocol=flooding family=csr n=128 delta=6 trials=24 seed=9",
    "protocol=alg2m family=idgnp n=256 churn=0.5 trials=48 seed=11",
    "protocol=eg2005 family=irgg n=128 radius-mult=2 trials=32 seed=3",
};

/// kSpecs plus an all-fail alg1 spec that converges by its rate interval
/// at 64 of 96 trials, so the stream contracts cover an early-stopped
/// grant schedule too.
std::vector<BatchSpec> mixed_specs() {
  std::vector<BatchSpec> specs;
  for (const char* line : kSpecs) specs.push_back(parse_batch_spec(line));
  specs.push_back(parse_batch_spec(
      "protocol=alg1 family=ignp n=512 delta=8 trials=96 seed=13"));
  return specs;
}

std::string run_to_string(const std::vector<BatchSpec>& specs,
                          const BatchOptions& options,
                          std::vector<BatchOutcome>* outcomes = nullptr,
                          BatchStats* stats = nullptr) {
  std::ostringstream out;
  auto result = run_batch(specs, options, out, stats);
  if (outcomes != nullptr) *outcomes = std::move(result);
  return out.str();
}

/// RAII temp cache directory under the test's working directory.
struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag)
      : path("batch_test_cache_" + tag) {
    fs::remove_all(path);
  }
  ~TempCacheDir() { fs::remove_all(path); }
  std::string path;
};

TEST(BatchSpecHashTest, KeyOrderAndSpelledOutDefaultsAreCanonical) {
  const BatchSpec a =
      parse_batch_spec("protocol=alg1 family=ignp n=512 delta=8 seed=7");
  const BatchSpec b = parse_batch_spec(
      "seed=7 n=512 family=ignp delta=8 protocol=alg1 trials=256 q=0.5");
  EXPECT_EQ(a.hash(), b.hash());
  // source, diameter, lambda, p-amp and p-period hash only off their
  // defaults; p-period is inert while p-amp is 0.
  const BatchSpec c = parse_batch_spec(
      "protocol=alg1 family=ignp n=512 delta=8 seed=7 source=0 diameter=0 "
      "lambda=0 p-amp=0 p-period=32");
  EXPECT_EQ(a.hash(), c.hash());
}

TEST(BatchSpecHashTest, DeltaAndExplicitPResolveToTheSameHash) {
  BatchSpec delta_form;
  delta_form.p = 0.0;
  delta_form.delta = 8.0;
  BatchSpec p_form = delta_form;
  p_form.p = delta_form.effective_p();
  EXPECT_EQ(delta_form.hash(), p_form.hash());
}

TEST(BatchSpecHashTest, DifferentExperimentsHashDifferently) {
  const BatchSpec base =
      parse_batch_spec("protocol=alg1 family=ignp n=512 seed=7");
  for (const char* line :
       {"protocol=alg2m family=ignp n=512 seed=7",
        "protocol=alg1 family=idgnp n=512 seed=7",
        "protocol=alg1 family=ignp n=513 seed=7",
        "protocol=alg1 family=ignp n=512 seed=8",
        "protocol=alg1 family=ignp n=512 seed=7 trials=128",
        "protocol=alg1 family=ignp n=512 seed=7 tol=0.01",
        "protocol=alg1 family=ignp n=512 seed=7 jammers=0.05",
        "protocol=alg1 family=ignp n=512 seed=7 source=5",
        "protocol=alg1 family=ignp n=512 seed=7 diameter=40",
        "protocol=alg1 family=ignp n=512 seed=7 lambda=2",
        "protocol=alg2 family=ignp n=512 seed=7"}) {
    EXPECT_NE(base.hash(), parse_batch_spec(line).hash()) << line;
  }
}

TEST(BatchSpecHashTest, ExistingSpecHashesArePinned) {
  // A spec's hash is its cache address and part of the journal binding, so
  // new spec keys must leave every existing hash where it was. Pinned: the
  // four kSpecs lines and three golden-fingerprint scenario lines.
  const struct {
    const char* line;
    std::uint64_t hash;
  } kPinned[] = {
      {kSpecs[0], 0x649e94699ce151e0ull},
      {kSpecs[1], 0x722cc6182aed9d6eull},
      {kSpecs[2], 0xf1b1ba7622b0f3d2ull},
      {kSpecs[3], 0xc740a21f720e299dull},
      {"protocol=alg1 family=csr n=4096 seed=11 max-rounds=96",
       0x1fcb39ae001adb68ull},
      {"protocol=alg2m family=idgnp n=131072 churn=0.5 seed=11 max-rounds=96",
       0xec880073229d230eull},
      {"protocol=eg2005 family=irgg n=131072 seed=11 max-rounds=96",
       0x60add125e589e9acull},
  };
  for (const auto& pin : kPinned)
    EXPECT_EQ(parse_batch_spec(pin.line).hash(), pin.hash) << pin.line;
}

TEST(BatchSpecParseTest, RejectsMalformedLinesNamingTheKey) {
  const auto message_of = [](const char* line) -> std::string {
    try {
      (void)parse_batch_spec(line);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_NE(message_of("protocol=alg1 frobnicate=3").find("frobnicate"),
            std::string::npos);
  EXPECT_NE(message_of("n=abc").find("spec field n"), std::string::npos);
  EXPECT_NE(message_of("trials=0").find("trials"), std::string::npos);
  EXPECT_NE(message_of("jammers=1.5").find("jammers"), std::string::npos);
  EXPECT_NE(message_of("fault-schedule=recover@").find("fault-schedule"),
            std::string::npos);
  EXPECT_THROW((void)parse_batch_spec("n=512 n=512"), std::invalid_argument);
  EXPECT_THROW((void)parse_batch_spec("protocol=warp"), std::invalid_argument);
  EXPECT_THROW((void)parse_batch_spec("loose-token"), std::invalid_argument);
  EXPECT_THROW((void)parse_batch_spec("churn=-0.5 family=idgnp"),
               std::invalid_argument);
  EXPECT_NE(message_of("source=64 n=64").find("spec field source"),
            std::string::npos);
  EXPECT_NE(message_of("p-amp=0.5 family=ignp").find("spec field p-amp"),
            std::string::npos);
  EXPECT_NE(message_of("p-amp=0.5 family=idgnp p-period=0")
                .find("spec field p-period"),
            std::string::npos);
}

TEST(BatchSpecParseTest, UnknownProtocolErrorListsTheProtocolTable) {
  std::string message;
  try {
    (void)parse_batch_spec("protocol=warp");
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("spec field protocol"), std::string::npos);
  EXPECT_NE(message.find("'warp'"), std::string::npos);
  ASSERT_EQ(protocol_table().size(), 10u);
  for (const ProtocolEntry& e : protocol_table())
    EXPECT_NE(message.find(std::string(e.name)), std::string::npos)
        << e.name << " missing from: " << message;
}

TEST(BatchSpecParseTest, FileErrorsNameTheLineNumber) {
  std::istringstream in(
      "protocol=alg1 family=ignp n=256\n"
      "# comment\n"
      "\n"
      "protocol=alg1 family=ignp n=junk\n");
  try {
    (void)parse_batch_file(in);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(BatchSpecParseTest, CommentsAndBlankLinesAreSkipped) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "   \t\n"
      "protocol=alg1 family=ignp n=256  # trailing comment\n");
  const auto specs = parse_batch_file(in);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].n, 256u);
}

TEST(BatchRunTest, CliOnlyProtocolsRunFromSpecLines) {
  // The table entries no other test in this file runs from a spec line.
  for (const char* protocol : {"alg2", "alg3", "cr", "tdma"}) {
    const auto specs = std::vector<BatchSpec>{parse_batch_spec(
        std::string("protocol=") + protocol + " family=csr n=64 trials=4")};
    std::vector<BatchOutcome> outcomes;
    (void)run_to_string(specs, BatchOptions{}, &outcomes);
    ASSERT_EQ(outcomes.size(), 1u);
    const std::string& json = outcomes[0].json;
    EXPECT_NE(json.find(std::string("\"protocol\":\"") + protocol + "\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"successes\":4"), std::string::npos) << json;
  }
}

/// A stream sink that records, at each sync() (what std::ostream::flush
/// calls), the bytes a reader of the sink could see at that moment.
class SyncRecorder : public std::streambuf {
 public:
  std::vector<std::string> synced;  ///< visible bytes at each sync
  std::function<void()> on_sync;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      pending_ += traits_type::to_char_type(c);
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    pending_.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int sync() override {
    visible_ += pending_;
    pending_.clear();
    synced.push_back(visible_);
    if (on_sync) on_sync();
    return 0;
  }

 private:
  std::string pending_;  ///< written but not yet flushed
  std::string visible_;
};

TEST(BatchRunTest, EachResultLineIsFlushedBeforeTheNextGrant) {
  // Three csr specs that each finish in their one grant, emitted in input
  // order: line i must be flushed before spec i+1 is granted.
  std::vector<BatchSpec> specs;
  for (const char* seed : {"1", "2", "3"})
    specs.push_back(parse_batch_spec(
        std::string("protocol=alg1 family=csr n=64 delta=6 trials=16 "
                    "seed=") + seed));
  BatchOptions options;
  options.threads = 1;
  std::vector<BatchOutcome> outcomes;
  (void)run_to_string(specs, options, &outcomes);
  ASSERT_EQ(outcomes.size(), 3u);
  std::vector<std::string> prefixes(1);
  for (const BatchOutcome& o : outcomes)
    prefixes.push_back(prefixes.back() + o.json + '\n');

  SyncRecorder sink;
  std::ostream out(&sink);
  (void)run_batch(specs, options, out);
  ASSERT_GE(sink.synced.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(sink.synced[i], prefixes[i + 1]) << "sync " << i;

  // Cancel as soon as the first line is visible: the grant-boundary poll
  // must then stop the run before spec 2 runs a trial.
  std::atomic<bool> cancel{false};
  SyncRecorder cancelling;
  cancelling.on_sync = [&] { cancel = true; };
  std::ostream cancelled_out(&cancelling);
  options.cancel = &cancel;
  BatchStats stats;
  (void)run_batch(specs, options, cancelled_out, &stats);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.trials_run, 16u);
  ASSERT_FALSE(cancelling.synced.empty());
  EXPECT_EQ(cancelling.synced.back(), prefixes[1]);
}

TEST(BatchRunTest, OutputBytesAreIdenticalAcrossThreadCounts) {
  const auto specs = mixed_specs();
  BatchOptions options;  // no cache
  options.threads = 1;
  const std::string serial = run_to_string(specs, options);
  EXPECT_FALSE(serial.empty());
  for (const unsigned threads : {2u, 8u, 0u}) {
    options.threads = threads;
    EXPECT_EQ(serial, run_to_string(specs, options)) << threads << " threads";
  }
}

TEST(BatchRunTest, ColdAndWarmCacheStreamsAreByteIdentical) {
  const TempCacheDir cache("coldwarm");
  const auto specs = mixed_specs();
  BatchOptions options;
  options.cache_dir = cache.path;
  BatchStats cold_stats;
  const std::string cold = run_to_string(specs, options, nullptr, &cold_stats);
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_GT(cold_stats.trials_run, 0u);
  std::vector<BatchOutcome> warm_outcomes;
  BatchStats warm_stats;
  const std::string warm =
      run_to_string(specs, options, &warm_outcomes, &warm_stats);
  EXPECT_EQ(cold, warm);
  // Turning the cache on changes no byte of the cold stream either.
  EXPECT_EQ(cold, run_to_string(specs, BatchOptions{}));
  EXPECT_EQ(warm_stats.cache_hits, specs.size());
  EXPECT_EQ(warm_stats.trials_run, 0u);  // re-rendered, no trial runs
  for (const auto& o : warm_outcomes) EXPECT_TRUE(o.from_cache);
}

TEST(BatchRunTest, EarlyStoppedResultIsAPrefixOfTheFullRun) {
  // The all-fail alg1 regime (single-shot broadcast on resampled implicit
  // links dies out at this density) converges by the rate interval well
  // before its 96-trial budget, so the early-stopped grant is a strict
  // prefix: grants 16+16+32 = 64 trials, converged at wilson(0, 64).
  std::istringstream in("protocol=alg1 family=ignp n=512 delta=8 trials=96\n");
  const auto specs = parse_batch_file(in);
  BatchOptions options;
  std::vector<BatchOutcome> early;
  (void)run_to_string(specs, options, &early);
  ASSERT_EQ(early.size(), 1u);
  EXPECT_TRUE(early[0].converged);
  ASSERT_LT(early[0].trials_granted, specs[0].trials);

  options.force_full = true;
  std::vector<BatchOutcome> full;
  (void)run_to_string(specs, options, &full);
  // force_full grants everything; `converged` still reports honestly
  // whether the final CIs are under tolerance.
  ASSERT_EQ(full[0].trials_granted, specs[0].trials);

  // The early-stopped outcomes are bit-identical to the same prefix of
  // the full run: recompute the full run directly and re-derive the line
  // the early stopper must have emitted.
  const McResult full_result = run_monte_carlo(specs[0].to_mc_spec());
  McResult prefix;
  prefix.outcomes.assign(full_result.outcomes.begin(),
                         full_result.outcomes.begin() + early[0].trials_granted);
  for (const auto& o : prefix.outcomes)
    if (o.completed) ++prefix.successes;
  EXPECT_EQ(early[0].json, batch_result_json(specs[0], prefix,
                                             early[0].trials_granted, true));
}

TEST(BatchRunTest, DuplicateSpecsAnswerFromTheInRunMemo) {
  std::istringstream in(
      "protocol=alg1 family=ignp n=256 delta=8 trials=48 seed=5\n"
      "protocol=alg1 family=ignp n=256 delta=8 trials=48 seed=5\n"
      "delta=8 trials=48 seed=5 protocol=alg1 family=ignp n=256\n");
  const auto specs = parse_batch_file(in);
  BatchOptions options;  // disk cache disabled: memo only
  std::vector<BatchOutcome> outcomes;
  BatchStats stats;
  const std::string out = run_to_string(specs, options, &outcomes, &stats);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_FALSE(outcomes[0].from_cache);
  EXPECT_TRUE(outcomes[1].from_cache);
  EXPECT_TRUE(outcomes[2].from_cache);
  EXPECT_EQ(outcomes[0].json, outcomes[1].json);
  EXPECT_EQ(outcomes[0].json, outcomes[2].json);
  // All three lines are emitted (consumers see one record per input spec).
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(BatchRunTest, EmissionOrderIsFamilyMajorThenInputOrder) {
  const auto specs = mixed_specs();  // input order: ignp, csr, idgnp, irgg
  BatchOptions options;
  const std::string out = run_to_string(specs, options);
  const auto pos_of = [&](const char* family) {
    const std::size_t pos = out.find(std::string("\"family\":\"") + family);
    EXPECT_NE(pos, std::string::npos) << family;
    return pos;
  };
  EXPECT_LT(pos_of("csr"), pos_of("ignp"));
  EXPECT_LT(pos_of("ignp"), pos_of("idgnp"));
  EXPECT_LT(pos_of("idgnp"), pos_of("irgg"));
}

TEST(BatchRunTest, AllFailSpecEmitsWellFormedNullsNotNan) {
  // Heavy-jamming adversary: zero completions. The emitted line must be
  // machine-parseable JSON with nulls in the rounds fields — no "nan".
  std::istringstream in(
      "protocol=alg1 family=ignp n=128 delta=8 trials=24 jammers=0.6\n");
  const auto specs = parse_batch_file(in);
  BatchOptions options;
  std::vector<BatchOutcome> outcomes;
  (void)run_to_string(specs, options, &outcomes);
  const std::string& json = outcomes[0].json;
  EXPECT_NE(json.find("\"successes\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rounds_median\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rounds_ci\":null"), std::string::npos) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(RunMonteCarloRangeTest, ChunkedRangesMatchTheOneShotRun) {
  const McSpec spec = parse_batch_spec(
      "protocol=alg2m family=ignp n=128 delta=8 trials=40 seed=21")
                          .to_mc_spec();
  const McResult whole = run_monte_carlo(spec);
  McResult chunked;
  std::uint32_t first = 0;
  for (const std::uint32_t count : {16u, 16u, 8u}) {
    run_monte_carlo_range(spec, first, count, chunked);
    first += count;
  }
  ASSERT_EQ(chunked.outcomes.size(), whole.outcomes.size());
  EXPECT_EQ(chunked.successes, whole.successes);
  for (std::size_t t = 0; t < whole.outcomes.size(); ++t) {
    EXPECT_EQ(chunked.outcomes[t].completed, whole.outcomes[t].completed);
    EXPECT_EQ(chunked.outcomes[t].rounds, whole.outcomes[t].rounds);
    EXPECT_EQ(chunked.outcomes[t].total_tx, whole.outcomes[t].total_tx);
    EXPECT_EQ(chunked.outcomes[t].collisions, whole.outcomes[t].collisions);
  }
}

TEST(RunMonteCarloRangeTest, RejectsMisalignedAccumulators) {
  const McSpec spec =
      parse_batch_spec("protocol=alg1 family=ignp n=64 trials=8").to_mc_spec();
  McResult into;
  EXPECT_THROW(run_monte_carlo_range(spec, 4, 4, into),
               std::invalid_argument);  // `into` does not hold trials [0, 4)
  run_monte_carlo_range(spec, 0, 4, into);
  EXPECT_THROW(run_monte_carlo_range(spec, 4, 8, into),
               std::invalid_argument);  // range exceeds spec.trials
}

}  // namespace
}  // namespace radnet::harness
