#include "harness/batch.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <new>
#include <ostream>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "harness/batch_record.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/require.hpp"

namespace radnet::harness {

namespace {

constexpr std::size_t kNoDup = std::numeric_limits<std::size_t>::max();

/// Deterministic double formatting for the result lines: %.12g is exact
/// enough to distinguish every statistic we report and — unlike iostream
/// state — has no locale or stream-flag dependence, so the same result
/// always renders to the same bytes (the cold/warm identity contract).
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string fmt_opt(const std::optional<double>& v) {
  return v.has_value() ? fmt_double(*v) : "null";
}

std::string fmt_interval(const Sample::Interval& iv) {
  return "[" + fmt_double(iv.lo) + "," + fmt_double(iv.hi) + "]";
}

/// Per-spec scheduler state (shared by run_batch and the isolate child).
struct SpecState {
  const BatchSpec* spec = nullptr;
  std::uint64_t hash = 0;
  McSpec mc;
  McResult acc;  ///< outcomes of the trials granted so far
  std::size_t dup_of = kNoDup;  ///< state index of the first equal-hash spec
  bool done = false;
  bool converged = false;
  bool from_cache = false;
  std::string_view error;  ///< error cause of an error line; empty otherwise
  std::uint32_t attempts = 0;
  std::string json;  ///< the emitted line, kept for BatchOutcome
};

/// The grant schedule: doubling from min_grant, capped at the trials left
/// (everything at once under force_full).
std::uint32_t next_grant(const SpecState& st, const BatchOptions& options) {
  const std::uint32_t remaining = st.spec->trials - st.acc.trials();
  return options.force_full ? remaining
                            : std::min(remaining, std::max(options.min_grant,
                                                           st.acc.trials()));
}

/// Convergence test evaluated after every granted batch: both the
/// completion-rate Wilson interval and (when any trial completed) the
/// rounds-median order-statistic interval must be inside tolerance.
/// With zero completions there is no rounds distribution to bound — the
/// rate interval hugging zero IS the answer (the all-fail regime).
bool converged(const SpecState& st) {
  const BatchSpec& spec = *st.spec;
  if (st.acc.trials() == 0 || spec.tol <= 0.0) return false;
  const Sample::Interval rate =
      wilson_interval(st.acc.successes, st.acc.trials(), spec.confidence);
  if ((rate.hi - rate.lo) / 2.0 > spec.tol) return false;
  if (st.acc.successes == 0) return true;
  const Sample rounds = st.acc.rounds_sample();
  const auto ci = quantile_ci(rounds, 0.5, spec.confidence);
  if (!ci.has_value()) return false;
  const double median = rounds.quantile(0.5);
  return (ci->hi - ci->lo) / 2.0 <= spec.tol * std::max(1.0, median);
}

/// The stop rule, recording the convergence verdict in `st.converged`: a
/// spec finishes once converged (unless force_full) or out of trials.
bool finished(SpecState& st, const BatchOptions& options) {
  st.converged = converged(st);
  return st.acc.trials() > 0 && ((st.converged && !options.force_full) ||
                                 st.acc.trials() == st.spec->trials);
}

/// Restores a spec's outcomes from its cache entry. A file the codec or
/// the stop rule rejects is quarantined and a miss.
bool cache_load(const std::string& dir, SpecState& st,
                const BatchOptions& options, BatchStats& stats) {
  const std::string path = cache_entry_path(dir, st.hash, st.spec->seed);
  const auto text = io::read_file(path);
  if (!text.has_value()) return false;  // plain miss: no file
  try {
    st.acc = decode_cache_entry(*text, st.hash, st.spec->seed,
                                st.spec->trials);
    if (finished(st, options)) return true;
  } catch (const std::invalid_argument&) {
  }
  st.acc = McResult{};
  if (io::quarantine_file(path)) ++stats.cache_quarantined;
  return false;
}

/// Applies a journal or isolate-pipe record to the unfinished primary spec
/// it names, returning the trials it restores. Throws std::invalid_argument
/// for a record that does not decode or does not fit its spec.
std::uint32_t apply_record(std::string_view payload,
                           std::vector<SpecState>& states) {
  const auto target = [&](std::size_t idx) -> SpecState& {
    RADNET_REQUIRE(idx < states.size() && !states[idx].done &&
                       states[idx].dup_of == kNoDup,
                   "record for no unfinished primary spec");
    return states[idx];
  };
  if (payload.starts_with("error ")) {
    const ErrorRecord rec = decode_error(payload);
    SpecState& st = target(rec.idx);
    st.done = true;
    st.converged = false;
    st.error = rec.cause;
    st.attempts = rec.attempts;
    return 0;
  }
  const TrialsRecord rec = decode_trials(payload);
  SpecState& st = target(rec.idx);
  append_trials(rec, st.spec->trials, st.acc);
  return rec.count;
}

// ---- Watchdogged spec isolation ------------------------------------------

struct ChildResult {
  std::string_view cause = "error";  ///< "crash", "timeout", "error"; or
                                     ///< empty after a clean exit
  std::string records;               ///< the pipe bytes of a clean exit
};

/// Child side of isolate mode: runs the spec's remaining doubling grants
/// until the stop rule holds, serially (the parent's pool threads do not
/// survive fork), writing each grant to the pipe as the checksummed
/// `trials` record the journal would hold. Exit codes: 0 ok, 97 failure.
/// Result bytes are identical to the in-process path because the grant
/// schedule and the (seed, t) trial keying are the same; only the executor
/// differs.
int isolate_child_run(std::size_t idx, SpecState& st,
                      const BatchOptions& options, int wfd) {
  try {
    // Test hook: a deliberately pathological spec crashes or wedges here.
    (void)io::check_fault("spec:" + hex16(st.hash));
    st.mc.serial = true;
    st.mc.run_options.threads = 1;
    std::FILE* pipe = ::fdopen(wfd, "w");
    if (pipe == nullptr) return 97;
    while (!finished(st, options)) {
      const std::uint32_t first = st.acc.trials();
      run_monte_carlo_range(st.mc, first, next_grant(st, options), st.acc);
      const std::string line = journal_line(trials_record(
          idx, first, std::span(st.acc.outcomes).subspan(first)));
      if (std::fputs(line.c_str(), pipe) == EOF) return 97;
    }
    return std::fclose(pipe) == 0 ? 0 : 97;  // _exit flushes no stdio
  } catch (...) {
    return 97;
  }
}

/// Parent side: fork the child, cap its address space, read its pipe under
/// a wall-clock deadline, SIGKILL it on expiry. One attempt; the caller
/// owns retry and backoff, and applies the records of a clean exit.
ChildResult supervise_spec(std::size_t idx, SpecState& st,
                           const BatchOptions& options) {
  ChildResult res;
  int fds[2];
  if (::pipe(fds) != 0) return res;  // cause "error"
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return res;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const rlimit rl{options.isolate_mem_bytes, options.isolate_mem_bytes};
    if (rl.rlim_cur > 0) ::setrlimit(RLIMIT_AS, &rl);
    ::_exit(isolate_child_run(idx, st, options, fds[1]));
  }
  ::close(fds[1]);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options.isolate_timeout_ms);
  std::string buf;
  bool timed_out = false;
  for (;;) {
    int timeout_ms = -1;
    if (options.isolate_timeout_ms > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<long long>(0, left.count()));
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {  // the watchdog fires: the spec is wedged
      ::kill(pid, SIGKILL);
      timed_out = true;
      break;
    }
    char chunk[4096];
    const ssize_t r = ::read(fds[0], chunk, sizeof chunk);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) break;  // EOF: child exited (or died) — status tells which
    buf.append(chunk, static_cast<std::size_t>(r));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    res.cause = "timeout";
  } else if (WIFSIGNALED(status)) {
    res.cause = "crash";
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    res.cause = {};
    res.records = std::move(buf);
  }
  return res;
}

}  // namespace

std::string batch_result_json(const BatchSpec& spec, const McResult& result,
                              std::uint32_t granted, bool converged) {
  RADNET_REQUIRE(result.outcomes.size() == granted,
                 "result holds a different trial count than `granted`");
  RADNET_REQUIRE(granted >= 1, "cannot report a spec with zero trials");
  const Sample::Interval rate =
      wilson_interval(result.successes, granted, spec.confidence);
  const Sample rounds = result.rounds_sample();
  const auto rounds_ci = quantile_ci(rounds, 0.5, spec.confidence);
  std::string json;
  json.reserve(512);
  json += "{\"hash\":\"" + hex16(spec.hash()) + "\"";
  json += ",\"protocol\":\"" + spec.protocol + "\"";
  json += ",\"family\":\"";
  json += batch_family_name(spec.family);
  json += "\",\"n\":" + std::to_string(spec.n);
  json += ",\"seed\":" + std::to_string(spec.seed);
  json += ",\"trials_max\":" + std::to_string(spec.trials);
  json += ",\"trials_granted\":" + std::to_string(granted);
  json += std::string(",\"converged\":") + (converged ? "true" : "false");
  json += ",\"successes\":" + std::to_string(result.successes);
  json += ",\"success_rate\":" + fmt_double(result.success_rate());
  json += ",\"rate_ci\":" + fmt_interval(rate);
  // The censored-rounds sample is empty in the all-fail regime: report
  // nulls, not NaNs — the line must stay machine-parseable JSON.
  json += ",\"rounds_median\":" + fmt_opt(rounds.try_quantile(0.5));
  json += ",\"rounds_ci\":" +
          (rounds_ci.has_value() ? fmt_interval(*rounds_ci)
                                 : std::string("null"));
  json += ",\"rounds_mean\":" + fmt_opt(rounds.try_mean());
  json += ",\"total_tx_mean\":" + fmt_opt(result.total_tx_sample().try_mean());
  json += ",\"stranded_mean\":" + fmt_opt(result.stranded_sample().try_mean());
  json += "}";
  return json;
}

std::string batch_error_json(const BatchSpec& spec, std::string_view cause,
                             std::uint32_t attempts) {
  RADNET_REQUIRE(cause == "crash" || cause == "timeout" || cause == "error",
                 "error cause must be crash, timeout or error");
  std::string json;
  json.reserve(192);
  json += "{\"hash\":\"" + hex16(spec.hash()) + "\"";
  json += ",\"error\":\"" + std::string(cause) + "\"";
  json += ",\"protocol\":\"" + spec.protocol + "\"";
  json += ",\"family\":\"";
  json += batch_family_name(spec.family);
  json += "\",\"n\":" + std::to_string(spec.n);
  json += ",\"seed\":" + std::to_string(spec.seed);
  json += ",\"attempts\":" + std::to_string(attempts);
  json += "}";
  return json;
}

std::vector<BatchOutcome> run_batch(const std::vector<BatchSpec>& specs,
                                    const BatchOptions& options,
                                    std::ostream& out, BatchStats* stats_out) {
  RADNET_REQUIRE(options.min_grant >= 1, "BatchOptions.min_grant must be >= 1");
  RADNET_REQUIRE(!options.resume || !options.journal_path.empty(),
                 "BatchOptions.resume requires journal_path");
  RADNET_REQUIRE(!options.isolate || options.isolate_attempts >= 1,
                 "BatchOptions.isolate_attempts must be >= 1");
  BatchStats stats;
  stats.specs = specs.size();

  std::vector<SpecState> states(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SpecState& st = states[i];
    st.spec = &specs[i];
    st.hash = specs[i].hash();
    st.mc = specs[i].to_mc_spec();
    // Thread schedule only — never results: 1 pins trials to the calling
    // thread, k > 1 gives each trial k-thread round sweeps, 0 lets the
    // harness choose per grant.
    if (options.threads == 1)
      st.mc.serial = true;
    else if (options.threads > 1)
      st.mc.run_options.threads = options.threads;
  }

  // Emission (and scheduling) order: family-major, stable by input index.
  std::vector<std::size_t> order(specs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return states[a].spec->family < states[b].spec->family;
                   });

  // In-run memo: a duplicate hash always points backwards in emission
  // order (equal hash => equal spec => same family, and the sort is
  // stable), so a dup's primary is resolved before the dup is reached.
  std::unordered_map<std::uint64_t, std::size_t> memo;
  for (const std::size_t idx : order) {
    SpecState& st = states[idx];
    const auto [it, inserted] = memo.emplace(st.hash, idx);
    if (!inserted) st.dup_of = it->second;
  }

  // Reap debris from dead runs (aborted temp files, quarantined entries)
  // before touching the cache; the age gate leaves a live concurrent run's
  // temp files alone.
  if (!options.cache_dir.empty())
    stats.stale_reaped =
        io::sweep_stale_files(options.cache_dir, std::chrono::hours(1));

  // Run journal: a header bound to the spec set, grant schedule and record
  // version, then one `trials` record per grant or cache hit and one
  // `error` record per error line, each appended before the line it
  // finishes can reach the output. Resume restores the committed prefix;
  // everything after the first torn or inconsistent record is truncated
  // away and recomputed.
  JournalWriter writer;
  if (!options.journal_path.empty()) {
    HashStream spec_set(kRecordVersion);
    for (const BatchSpec& spec : specs) spec_set.put_u64(1, spec.hash());
    const std::string header = header_record(
        hex16(spec_set.value()) + ' ' + (options.force_full ? '1' : '0') +
        ' ' + std::to_string(options.min_grant));
    std::uint64_t keep_bytes = 0;  // 0: a fresh journal, header first
    if (options.resume) {
      const JournalReplay replay = read_journal(options.journal_path);
      if (!replay.records.empty()) {
        if (replay.records.front().payload != header)
          throw std::invalid_argument(
              "journal '" + options.journal_path +
              "' is not this sweep's: another tool, spec set, grant "
              "schedule or record version — refusing to splice streams");
        keep_bytes = replay.records.front().end_offset;
        for (std::size_t r = 1; r < replay.records.size(); ++r) {
          try {
            stats.journal_trials +=
                apply_record(replay.records[r].payload, states);
          } catch (const std::invalid_argument&) {
            break;  // first inconsistent record ends the committed prefix
          }
          keep_bytes = replay.records[r].end_offset;
        }
      }
    }
    writer.open(options.journal_path, keep_bytes);
    if (keep_bytes == 0) writer.append(header);
  }

  const bool use_cache = !options.cache_dir.empty() && !options.force_full;
  const auto cancelled = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // The one place a line is made: rendered from what the spec — or a
  // duplicate's primary — holds.
  const auto render = [&](std::size_t idx) {
    const SpecState& st = states[idx];
    const SpecState& src = st.dup_of == kNoDup ? st : states[st.dup_of];
    return src.error.empty()
               ? batch_result_json(*src.spec, src.acc, src.acc.trials(),
                                   src.converged)
               : batch_error_json(*src.spec, src.error, src.attempts);
  };

  // Each emitted line is flushed at once, so a consumer (or a file a later
  // signal leaves behind) holds every finished spec's line, not just the
  // ones a full stream buffer happened to push out. A duplicate is ready
  // once reached: its primary precedes it.
  std::size_t frontier = 0;
  const auto flush = [&] {
    while (frontier < order.size() &&
           (states[order[frontier]].done ||
            states[order[frontier]].dup_of != kNoDup)) {
      SpecState& st = states[order[frontier]];
      st.json = render(order[frontier]);
      out << st.json << '\n';
      ++frontier;
    }
    out.flush();
  };

  // Callers journal a spec's outcomes before this runs, so a line is
  // emitted only once resume could re-render it.
  const auto try_finish = [&](std::size_t idx) -> bool {
    SpecState& st = states[idx];
    if (!finished(st, options)) return false;
    st.done = true;
    // A force_full run never stores (it is diagnostic: a later early-
    // stopping run must not answer with its full-trial outcomes), nor does
    // a hit. The cache is an accelerator: failing to store is not fatal.
    if (use_cache && !st.from_cache) {
      std::error_code ec;
      std::filesystem::create_directories(options.cache_dir, ec);
      if (!ec && io::atomic_write_file(
                     cache_entry_path(options.cache_dir, st.hash,
                                      st.spec->seed),
                     encode_cache_entry(st.hash, st.spec->seed,
                                        st.acc.outcomes),
                     "cache-write"))
        ++stats.cache_stores;
    }
    flush();
    return true;
  };

  // Specs the journal or the disk cache finish without running a trial.
  // A crash between a grant's `trials` append and its line leaves a
  // restored accumulator that may already satisfy its stop rule; finishing
  // it here (instead of granting again) keeps the grant sequence — hence
  // the reported trial counts — identical to the uninterrupted run's. For
  // the same reason a spec the replay left mid-schedule never looks at the
  // cache. A hit is journaled like a grant, so resume never depends on the
  // cache entry still being there.
  for (const std::size_t idx : order) {
    SpecState& st = states[idx];
    if (st.done || st.dup_of != kNoDup) continue;
    if (st.acc.trials() == 0 && use_cache &&
        cache_load(options.cache_dir, st, options, stats)) {
      ++stats.cache_hits;
      st.from_cache = true;
      if (writer.is_open())
        writer.append(trials_record(idx, 0, st.acc.outcomes));
    }
    if (st.acc.trials() > 0) st.from_cache = try_finish(idx);
  }

  // An error line is final like a result line, but never cached: the next
  // run retries the spec.
  const auto fail_spec = [&](std::size_t idx, std::string_view cause,
                             std::uint32_t attempts) {
    const std::string record = error_record(idx, cause, attempts);
    (void)apply_record(record, states);
    if (writer.is_open()) writer.append(record);
    flush();
  };

  // A clean child's records are applied like a replayed journal's and
  // journaled one by one; the attempt succeeds once they end where the
  // stop rule holds. Records that applied stay applied, so a retry
  // continues after them.
  const auto apply_child = [&](std::size_t idx, std::string_view records) {
    for (const JournalRecord& r : parse_journal(records).records) {
      try {
        stats.trials_run += apply_record(r.payload, states);
      } catch (const std::invalid_argument&) {
        return false;
      }
      if (writer.is_open()) writer.append(r.payload);
    }
    return try_finish(idx);
  };

  const auto run_isolated = [&](std::size_t idx) {
    std::string_view cause = "error";
    for (std::uint32_t attempt = 0; attempt < options.isolate_attempts;
         ++attempt) {
      if (attempt > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<std::uint64_t>(options.isolate_backoff_ms)
            << (attempt - 1)));
      const ChildResult res = supervise_spec(idx, states[idx], options);
      if (res.cause.empty() && apply_child(idx, res.records)) return;
      cause = res.cause.empty() ? "error" : res.cause;
      if (cancelled()) return;  // leave unfinished; resume retries afresh
    }
    fail_spec(idx, cause, options.isolate_attempts);
  };

  // Round-robin grant passes: every unconverged spec receives one
  // (doubling) grant per pass, so slow-converging specs never starve fast
  // ones, and the grant sequence — hence every reported trial count — is a
  // pure function of the specs themselves. The cancel flag is polled only
  // at grant boundaries: a stop is always clean, with everything done so
  // far journal-committed.
  bool pending = true;
  while (pending && !stats.interrupted) {
    pending = false;
    for (const std::size_t idx : order) {
      if (cancelled()) {
        stats.interrupted = true;
        break;
      }
      SpecState& st = states[idx];
      if (st.done || st.dup_of != kNoDup) continue;
      if (options.isolate) {
        run_isolated(idx);
        if (!st.done) pending = true;  // cancelled mid-retry
        continue;
      }
      const std::uint32_t first = st.acc.trials();
      const std::uint32_t grant = next_grant(st, options);
      (void)io::check_fault("grant");  // crash window: grant not yet run
      try {
        run_monte_carlo_range(st.mc, first, grant, st.acc);
      } catch (const std::bad_alloc&) {
        // A spec too large for this process ends as the error line an
        // isolated child's failure leaves; the other specs run on. The
        // range may have sized its slots before throwing.
        st.acc.outcomes.resize(first);
        fail_spec(idx, "error", 1);
        continue;
      }
      stats.trials_run += grant;
      if (writer.is_open()) {
        // Crash window between compute and commit: resume reruns the grant
        // and — trial t being a pure function of (seed, t) — reproduces
        // the same outcomes bit-for-bit.
        (void)io::check_fault("grant-commit");
        writer.append(trials_record(
            idx, first, std::span(st.acc.outcomes).subspan(first)));
      }
      if (!try_finish(idx)) pending = true;
    }
  }
  flush();
  if (!stats.interrupted)
    RADNET_CHECK(frontier == order.size(), "batch ended with unemitted specs");

  std::vector<BatchOutcome> outcomes(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SpecState& st = states[i];
    const bool dup = st.dup_of != kNoDup;
    if (dup && states[st.dup_of].done) {
      st.done = st.from_cache = true;
      ++stats.cache_hits;
    }
    const SpecState& src = dup && st.done ? states[st.dup_of] : st;
    if (st.done && !dup && !st.error.empty()) ++stats.spec_errors;
    if (st.done && src.error.empty())  // a duplicate ran no trial at all
      stats.trials_saved += st.spec->trials - (dup ? 0 : st.acc.trials());
    // An interrupted run can leave finished specs behind the frontier.
    if (st.done && st.json.empty()) st.json = render(i);
    outcomes[i] = BatchOutcome{st.hash,
                               src.acc.trials(),
                               st.done && src.converged,
                               st.from_cache,
                               !src.error.empty(),
                               std::move(st.json)};
  }
  if (stats_out != nullptr) *stats_out = stats;
  return outcomes;
}

}  // namespace radnet::harness
