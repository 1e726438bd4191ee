// Crash-safety torture tests for the batch execution layer
// (harness/batch.hpp + support/io.hpp + support/journal.hpp).
//
// The two invariants under every injected fault:
//
//   1. resume(interrupt(run)) == run — a journaled sweep killed at ANY
//      grant boundary, resumed, produces a byte-identical output stream;
//   2. corruption is never a wrong answer — a cache entry or journal
//      truncated or garbled at ANY byte offset costs at most a recompute,
//      never a changed output byte.
//
// Kills are real SIGKILLs delivered to forked children at named fault
// points (RADNET_FAULT / io::set_fault), so the torn-write windows are
// exercised deterministically, not by timing luck.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/batch.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"

namespace radnet::harness {
namespace {

namespace fs = std::filesystem;

/// Two-family sweep, small enough to rerun dozens of times per test.
std::vector<BatchSpec> sweep_specs() {
  std::istringstream in(
      "protocol=alg1 family=ignp n=128 delta=8 trials=24 seed=7\n"
      "protocol=flooding family=csr n=96 delta=6 trials=16 seed=9\n");
  return parse_batch_file(in);
}

/// Single tiny spec with early stopping disabled (tol=0): exactly two
/// 4-trial grants, so its journal and cache entry stay small enough to
/// corrupt at EVERY byte offset in tier-1 time.
std::vector<BatchSpec> tiny_specs() {
  std::istringstream in(
      "protocol=alg1 family=ignp n=96 delta=8 trials=8 seed=3 tol=0\n");
  return parse_batch_file(in);
}

/// Bytes of address space this process has mapped (the first field of
/// /proc/self/statm, in pages). A forked child starts with all of it.
std::uint64_t mapped_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  statm >> pages;
  return pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

BatchOptions serial_options() {
  BatchOptions options;
  options.threads = 1;  // children fork from this process: stay single-threaded
  options.min_grant = 8;
  return options;
}

std::string run_to_string(const std::vector<BatchSpec>& specs,
                          const BatchOptions& options,
                          BatchStats* stats = nullptr) {
  std::ostringstream out;
  (void)run_batch(specs, options, out, stats);
  return out.str();
}

/// Runs run_batch in a forked child with `fault` armed, output to
/// `out_path`, under an RLIMIT_AS of `mem_cap` bytes when nonzero. Returns
/// the child's wait status (the armed kill shows up as WIFSIGNALED/SIGKILL;
/// a run the fault never reached exits 0).
int run_in_child(const std::vector<BatchSpec>& specs,
                 const BatchOptions& options, const std::string& fault,
                 const std::string& out_path, std::uint64_t mem_cap = 0) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 0;
    try {
      if (mem_cap > 0) {
        const rlimit rl{mem_cap, mem_cap};
        if (::setrlimit(RLIMIT_AS, &rl) != 0) ::_exit(4);
      }
      io::set_fault(fault);
      std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
      BatchStats stats;
      (void)run_batch(specs, options, out, &stats);
      out.flush();
      if (!out) code = 3;
    } catch (...) {
      code = 2;
    }
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { io::set_fault(""); }
  void TearDown() override {
    io::set_fault("");
    for (const auto& p : cleanup_) fs::remove_all(p);
  }
  std::string temp(const std::string& name) {
    cleanup_.push_back(name);
    fs::remove_all(name);
    return name;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(FaultInjectTest, JournalingItselfDoesNotChangeTheStream) {
  const auto specs = sweep_specs();
  BatchOptions options = serial_options();
  const std::string plain = run_to_string(specs, options);
  options.journal_path = temp("fi_plain.journal");
  BatchStats stats;
  EXPECT_EQ(run_to_string(specs, options, &stats), plain);
  // The journal holds the header plus one record per grant.
  const JournalReplay replay = read_journal(options.journal_path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_GT(replay.records.size(), 1u);
  EXPECT_EQ(replay.records.front().payload.rfind("header ", 0), 0u);
}

TEST_F(FaultInjectTest, KillAtEveryGrantBoundaryResumesByteIdentical) {
  const auto specs = sweep_specs();
  const BatchOptions base = serial_options();
  const std::string expect = run_to_string(specs, base);
  // Walk the fault's hit count upwards until the run outlives it: together
  // the three points kill before a grant computes, between the compute and
  // its journal commit, and inside every journal append (the first of
  // which is the header itself).
  for (const char* point : {"grant", "grant-commit", "journal-append"}) {
    for (std::uint32_t hit = 1;; ++hit) {
      const std::string tag = std::string(point) + "@" + std::to_string(hit);
      BatchOptions options = base;
      options.journal_path = temp("fi_kill_" + std::to_string(hit) + "_" +
                                  point + ".journal");
      const std::string out_path = temp(options.journal_path + ".out");
      const int status =
          run_in_child(specs, options, tag + ":kill", out_path);

      // Whatever the dead child managed to emit is a byte prefix of the
      // true stream — a torn run never prints a wrong line.
      const auto partial = io::read_file(out_path);
      ASSERT_TRUE(partial.has_value()) << tag;
      ASSERT_LE(partial->size(), expect.size()) << tag;
      EXPECT_EQ(expect.compare(0, partial->size(), *partial), 0) << tag;

      // The resumed stream is the complete stream, byte for byte.
      options.resume = true;
      BatchStats stats;
      EXPECT_EQ(run_to_string(specs, options, &stats), expect) << tag;

      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        EXPECT_GT(hit, 1u) << point << ": fault never fired";
        break;  // the sweep has fewer than `hit` boundaries: point covered
      }
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << tag;
      ASSERT_LT(hit, 100u) << point << ": runaway boundary count";
    }
  }
}

TEST_F(FaultInjectTest, SecondKillDuringResumeStillConverges) {
  // Crash the original run, crash the resume too, then resume again: the
  // journal protocol must tolerate repeated deaths, not just one.
  const auto specs = sweep_specs();
  const std::string expect = run_to_string(specs, serial_options());
  BatchOptions options = serial_options();
  options.journal_path = temp("fi_twice.journal");
  const std::string out_path = temp("fi_twice.out");
  const int first = run_in_child(specs, options, "grant@2:kill", out_path);
  ASSERT_TRUE(WIFSIGNALED(first) && WTERMSIG(first) == SIGKILL);
  options.resume = true;
  const int second = run_in_child(specs, options, "grant@2:kill", out_path);
  ASSERT_TRUE(WIFSIGNALED(second) && WTERMSIG(second) == SIGKILL);
  EXPECT_EQ(run_to_string(specs, options), expect);
}

TEST_F(FaultInjectTest, JournalTruncatedAtEveryOffsetResumesByteIdentical) {
  const auto specs = tiny_specs();
  BatchOptions options = serial_options();
  options.min_grant = 4;
  options.journal_path = temp("fi_trunc.journal");
  const std::string expect = run_to_string(specs, options);
  const std::string journal = *io::read_file(options.journal_path);
  ASSERT_FALSE(journal.empty());
  options.resume = true;
  for (std::size_t len = 0; len <= journal.size(); ++len) {
    std::ofstream(options.journal_path, std::ios::binary | std::ios::trunc)
        << journal.substr(0, len);
    EXPECT_EQ(run_to_string(specs, options), expect) << "len " << len;
  }
}

TEST_F(FaultInjectTest, JournalGarbledAtEveryOffsetResumesByteIdentical) {
  const auto specs = tiny_specs();
  BatchOptions options = serial_options();
  options.min_grant = 4;
  options.journal_path = temp("fi_flip.journal");
  const std::string expect = run_to_string(specs, options);
  const std::string journal = *io::read_file(options.journal_path);
  options.resume = true;
  for (std::size_t at = 0; at < journal.size(); ++at) {
    std::string garbled = journal;
    garbled[at] = static_cast<char>(garbled[at] ^ 0x5a);
    std::ofstream(options.journal_path, std::ios::binary | std::ios::trunc)
        << garbled;
    EXPECT_EQ(run_to_string(specs, options), expect) << "at " << at;
  }
}

TEST_F(FaultInjectTest, TrialsRecordWhoseCountWrapsEndsTheCommittedPrefix) {
  // A checksum-valid record continuing at `granted` with a count of
  // 2^32 - granted: `first + count` wraps to 0 in 32 bits, so a bound
  // written as a sum lets it through to size ~4e9 outcome slots. Resume
  // must instead end the committed prefix there and recompute. The resume
  // runs in a child under an address-space cap, so a regression fails
  // the test (bad_alloc) instead of exhausting the host.
  const auto specs = tiny_specs();
  BatchOptions options = serial_options();
  options.min_grant = 4;
  options.journal_path = temp("fi_wrap.journal");
  const std::string expect = run_to_string(specs, options);
  const JournalReplay replay = read_journal(options.journal_path);
  ASSERT_GE(replay.records.size(), 2u);
  ASSERT_EQ(replay.records[1].payload.rfind("trials 0 0 4 ", 0), 0u);
  JournalWriter writer;
  writer.open(options.journal_path, replay.records[1].end_offset);
  writer.append("trials 0 4 4294967292 1:4:12:3:0x1.8p+1:9:2:64:-1");
  writer.close();

  options.resume = true;
  const std::string out_path = temp("fi_wrap.out");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::uint64_t mem_cap = 0;  // sanitizer shadow maps need no cap
#else
  const std::uint64_t mem_cap = mapped_bytes() + (256ull << 20);
#endif
  const int status = run_in_child(specs, options, "", out_path, mem_cap);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(io::read_file(out_path).value_or(""), expect);
}

TEST_F(FaultInjectTest, CacheCorruptedAtEveryOffsetIsNeverAWrongAnswer) {
  const auto specs = tiny_specs();
  BatchOptions options = serial_options();
  options.min_grant = 4;
  options.cache_dir = temp("fi_cache");
  const std::string expect = run_to_string(specs, options);  // fills cache
  std::string entry_path;
  for (const auto& e : fs::directory_iterator(options.cache_dir))
    if (e.path().extension() == ".rbc") entry_path = e.path().string();
  ASSERT_FALSE(entry_path.empty());
  const std::string pristine = *io::read_file(entry_path);

  const auto check_variant = [&](const std::string& variant,
                                 const std::string& tag) {
    std::ofstream(entry_path, std::ios::binary | std::ios::trunc) << variant;
    BatchStats stats;
    // Every variant is a hit (the unmodified file), a quarantined recompute
    // or a plain recompute — and in all three cases the emitted bytes are
    // the pristine run's. A wrong line here would mean corruption survived
    // the checksum.
    EXPECT_EQ(run_to_string(specs, options, &stats), expect) << tag;
    EXPECT_EQ(stats.cache_hits + stats.cache_stores, 1u) << tag;
    fs::remove(entry_path + ".quarantine");
  };
  for (std::size_t len = 0; len <= pristine.size(); ++len)
    check_variant(pristine.substr(0, len), "truncate " + std::to_string(len));
  for (std::size_t at = 0; at < pristine.size(); ++at) {
    std::string garbled = pristine;
    garbled[at] = static_cast<char>(garbled[at] ^ 0x5a);
    check_variant(garbled, "flip " + std::to_string(at));
  }
}

TEST_F(FaultInjectTest, ForeignCacheFileUnderTheRightNameIsQuarantined) {
  // A checksum-valid entry filed under the wrong (hash, seed) name — e.g. a
  // renamed sibling — must be rejected by its embedded key, not trusted.
  const auto specs = tiny_specs();
  BatchOptions options = serial_options();
  options.min_grant = 4;
  options.cache_dir = temp("fi_foreign");
  const std::string expect = run_to_string(specs, options);
  std::string entry_path;
  for (const auto& e : fs::directory_iterator(options.cache_dir))
    if (e.path().extension() == ".rbc") entry_path = e.path().string();
  ASSERT_FALSE(entry_path.empty());

  // Fill a sibling cache from a different sweep and transplant one of its
  // (internally consistent, checksum-valid) entries under this spec's name.
  BatchOptions other = serial_options();
  other.cache_dir = temp("fi_foreign_other");
  (void)run_to_string(sweep_specs(), other);
  std::string foreign_content;
  for (const auto& e : fs::directory_iterator(other.cache_dir))
    if (e.path().extension() == ".rbc")
      foreign_content = *io::read_file(e.path().string());
  ASSERT_FALSE(foreign_content.empty());
  std::ofstream(entry_path, std::ios::binary | std::ios::trunc)
      << foreign_content;

  BatchStats stats;
  EXPECT_EQ(run_to_string(specs, options, &stats), expect);
  EXPECT_EQ(stats.cache_quarantined, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_TRUE(fs::exists(entry_path + ".quarantine"));
}

TEST_F(FaultInjectTest, EnospcOnJournalAppendStopsTheRunResumably) {
  const auto specs = sweep_specs();
  const std::string expect = run_to_string(specs, serial_options());
  BatchOptions options = serial_options();
  options.journal_path = temp("fi_enospc.journal");
  io::set_fault("journal-append@3:enospc");
  std::ostringstream out;
  BatchStats stats;
  // Running on past an unjournaled grant would silently break resume: the
  // failed append must stop the run instead.
  EXPECT_THROW((void)run_batch(specs, options, out, &stats), io::IoError);
  io::set_fault("");
  EXPECT_EQ(expect.compare(0, out.str().size(), out.str()), 0)
      << "partial stream is not a prefix";
  options.resume = true;
  EXPECT_EQ(run_to_string(specs, options), expect);
}

TEST_F(FaultInjectTest, EnospcOnCacheWriteDegradesToAMissNotATornFile) {
  const auto specs = sweep_specs();
  BatchOptions options = serial_options();
  const std::string expect = run_to_string(specs, options);
  options.cache_dir = temp("fi_enospc_cache");
  io::set_fault("cache-write@1:enospc");
  BatchStats cold;
  EXPECT_EQ(run_to_string(specs, options, &cold), expect);
  EXPECT_EQ(cold.cache_stores, specs.size() - 1);  // one store failed
  for (const auto& e : fs::directory_iterator(options.cache_dir))
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << e.path();
  // The next (fault-free) run re-stores the missing entry and the stream
  // is unchanged.
  BatchStats warm;
  EXPECT_EQ(run_to_string(specs, options, &warm), expect);
  EXPECT_EQ(warm.cache_hits + warm.cache_stores, specs.size());
}

TEST_F(FaultInjectTest, PresetCancelStopsCleanlyAndResumeFinishes) {
  const auto specs = sweep_specs();
  const std::string expect = run_to_string(specs, serial_options());
  BatchOptions options = serial_options();
  options.journal_path = temp("fi_cancel.journal");
  std::atomic<bool> cancel{true};  // "SIGINT before the first grant"
  options.cancel = &cancel;
  BatchStats stats;
  const std::string partial = run_to_string(specs, options, &stats);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(expect.compare(0, partial.size(), partial), 0);
  options.cancel = nullptr;
  options.resume = true;
  BatchStats resumed;
  EXPECT_EQ(run_to_string(specs, options, &resumed), expect);
  EXPECT_FALSE(resumed.interrupted);
}

TEST_F(FaultInjectTest, ResumeRefusesAForeignOrMismatchedJournal) {
  const auto specs = sweep_specs();
  BatchOptions options = serial_options();
  options.journal_path = temp("fi_mismatch.journal");
  options.resume = true;
  {
    // Checksum-valid journal whose first record is not a header: some other
    // tool's file — refuse, do not splice.
    JournalWriter writer;
    writer.open(options.journal_path, 0);
    writer.append("not-a-header 42");
    writer.close();
    std::ostringstream out;
    EXPECT_THROW((void)run_batch(specs, options, out), std::invalid_argument);
  }
  {
    // A journal from a different grant schedule: resuming under it would
    // change every granted trial count mid-stream.
    BatchOptions other = serial_options();
    other.min_grant = 4;
    other.journal_path = options.journal_path;
    fs::remove(options.journal_path);
    (void)run_to_string(specs, other);
    std::ostringstream out;
    EXPECT_THROW((void)run_batch(specs, options, out), std::invalid_argument);
  }
  // resume without a journal path is a caller bug, rejected up front.
  BatchOptions no_journal = serial_options();
  no_journal.resume = true;
  std::ostringstream out;
  EXPECT_THROW((void)run_batch(specs, no_journal, out), std::invalid_argument);
}

TEST_F(FaultInjectTest, IsolateModeMatchesInProcessBytes) {
  const auto specs = sweep_specs();
  const std::string expect = run_to_string(specs, serial_options());
  BatchOptions options = serial_options();
  options.isolate = true;
  options.cache_dir = temp("fi_isolate_cache");
  BatchStats stats;
  EXPECT_EQ(run_to_string(specs, options, &stats), expect);
  EXPECT_EQ(stats.spec_errors, 0u);
  // Children populate the shared cache through the same atomic path.
  BatchStats warm;
  EXPECT_EQ(run_to_string(specs, options, &warm), expect);
  EXPECT_EQ(warm.cache_hits, specs.size());
}

TEST_F(FaultInjectTest, IsolatedCrashDegradesIntoAnErrorLine) {
  const auto specs = sweep_specs();
  const std::string expect = run_to_string(specs, serial_options());
  BatchOptions options = serial_options();
  options.isolate = true;
  options.isolate_attempts = 2;
  options.isolate_backoff_ms = 1;
  // Crash the first spec's child at its entry point, every attempt (each
  // forked child re-arms from the inherited fault state).
  io::set_fault("spec:" + hex16(specs[0].hash()) + "@1:kill");
  std::ostringstream out;
  BatchStats stats;
  const auto outcomes = run_batch(specs, options, out, &stats);
  EXPECT_EQ(stats.spec_errors, 1u);
  ASSERT_TRUE(outcomes[0].error);
  EXPECT_FALSE(outcomes[1].error);
  // The victim's slot carries the structured error line; every other line
  // is byte-identical to the healthy run's.
  std::string patched;
  std::istringstream lines(expect);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(hex16(specs[0].hash())) != std::string::npos)
      patched += batch_error_json(specs[0], "crash", 2) + "\n";
    else
      patched += line + "\n";
  }
  EXPECT_EQ(out.str(), patched);
  EXPECT_NE(outcomes[0].json.find("\"error\":\"crash\""), std::string::npos);
  EXPECT_NE(outcomes[0].json.find("\"attempts\":2"), std::string::npos);
}

TEST_F(FaultInjectTest, IsolatedHangIsReapedByTheWatchdog) {
  const auto specs = sweep_specs();
  BatchOptions options = serial_options();
  options.isolate = true;
  options.isolate_attempts = 1;
  options.isolate_timeout_ms = 200;
  io::set_fault("spec:" + hex16(specs[1].hash()) + "@1:hang");
  std::ostringstream out;
  BatchStats stats;
  const auto outcomes = run_batch(specs, options, out, &stats);
  ASSERT_TRUE(outcomes[1].error);
  EXPECT_NE(outcomes[1].json.find("\"error\":\"timeout\""), std::string::npos);
  // The healthy spec's line is untouched by its sibling's death.
  EXPECT_NE(out.str().find(hex16(specs[0].hash())), std::string::npos);
}

TEST_F(FaultInjectTest, IsolatedMemoryCapDegradesIntoAnErrorLine) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow maps cannot live under RLIMIT_AS";
#endif
  // The csr spec reserves ~1.2 GB of edges up front, several times the
  // 256 MiB the cap leaves above what the child inherits; the ignp
  // sibling needs a few kilobytes.
  std::istringstream in(
      "protocol=alg1 family=csr n=16384 p=0.5 trials=1 seed=5\n"
      "protocol=alg1 family=ignp n=128 delta=8 trials=24 seed=7\n");
  const auto specs = parse_batch_file(in);
  const std::string sibling = run_to_string({specs[1]}, serial_options());
  BatchOptions options = serial_options();
  options.isolate = true;
  options.isolate_attempts = 1;
  options.isolate_mem_bytes = mapped_bytes() + (256ull << 20);
  std::ostringstream out;
  BatchStats stats;
  const auto outcomes = run_batch(specs, options, out, &stats);
  EXPECT_EQ(stats.spec_errors, 1u);
  ASSERT_TRUE(outcomes[0].error);
  EXPECT_FALSE(outcomes[1].error);
  EXPECT_EQ(outcomes[0].json, batch_error_json(specs[0], "error", 1));
  // Family-major order puts the csr error line first; the sibling's line
  // is byte-identical to its in-process run.
  EXPECT_EQ(out.str(), outcomes[0].json + "\n" + sibling);
}

TEST_F(FaultInjectTest, InProcessOutOfMemoryDegradesIntoAnErrorLine) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer shadow maps cannot live under RLIMIT_AS";
#endif
  // Without isolation, the middle spec's per-node state (gigabytes) throws
  // std::bad_alloc under a cap of 256 MiB above what the child inherits.
  // The batch must go on: the specs on either side keep their solo bytes.
  std::istringstream in(
      "protocol=alg1 family=ignp n=1024 trials=16 seed=7\n"
      "protocol=alg1 family=ignp n=3000000000 trials=16 seed=7\n"
      "protocol=alg1 family=ignp n=2048 trials=16 seed=7\n");
  const auto specs = parse_batch_file(in);
  const BatchOptions options = serial_options();
  const std::string expect = run_to_string({specs[0]}, options) +
                             batch_error_json(specs[1], "error", 1) + "\n" +
                             run_to_string({specs[2]}, options);
  const std::string out_path = temp("fi_oom.out");
  const int status = run_in_child(specs, options, "", out_path,
                                  mapped_bytes() + (256ull << 20));
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_EQ(io::read_file(out_path).value_or(""), expect);
}

TEST_F(FaultInjectTest, StartupSweepReapsDeadRunsDebrisButNotLiveTemps) {
  const auto specs = tiny_specs();
  BatchOptions options = serial_options();
  options.min_grant = 4;
  options.cache_dir = temp("fi_sweep_cache");
  fs::create_directories(options.cache_dir);
  const std::string old_tmp = options.cache_dir + "/h0_s0.rbc.tmp.1";
  const std::string live_tmp = options.cache_dir + "/h1_s1.rbc.tmp.2";
  std::ofstream(old_tmp, std::ios::binary) << "dead";
  std::ofstream(live_tmp, std::ios::binary) << "live";
  fs::last_write_time(old_tmp, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));
  BatchStats stats;
  (void)run_to_string(specs, options, &stats);
  EXPECT_EQ(stats.stale_reaped, 1u);
  EXPECT_FALSE(fs::exists(old_tmp));   // dead run's debris: reaped
  EXPECT_TRUE(fs::exists(live_tmp));   // maybe a live run's temp: kept
}

}  // namespace
}  // namespace radnet::harness
