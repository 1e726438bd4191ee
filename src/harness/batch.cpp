#include "harness/batch.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <new>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "graph/generators.hpp"
#include "harness/protocols.hpp"
#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/journal.hpp"
#include "support/math.hpp"
#include "support/parse.hpp"
#include "support/require.hpp"

namespace radnet::harness {

namespace {

constexpr double kPi = 3.141592653589793;

constexpr std::size_t kNoDup = std::numeric_limits<std::size_t>::max();

BatchFamily family_from_name(std::string_view name, std::string_view what) {
  if (name == "csr") return BatchFamily::kCsr;
  if (name == "ignp") return BatchFamily::kImplicitGnp;
  if (name == "idgnp") return BatchFamily::kImplicitDynamic;
  if (name == "irgg") return BatchFamily::kImplicitRgg;
  throw std::invalid_argument(std::string(what) +
                              " must be csr, ignp, idgnp or irgg, got '" +
                              std::string(name) + "'");
}

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

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Convergence test evaluated after every granted batch: both the
/// completion-rate Wilson interval and (when any trial completed) the
/// rounds-median order-statistic interval must be inside tolerance.
/// With zero completions there is no rounds distribution to bound — the
/// rate interval hugging zero IS the answer (the all-fail regime).
bool spec_converged(const BatchSpec& spec, const McResult& acc,
                    std::uint32_t granted) {
  if (granted == 0 || spec.tol <= 0.0) return false;
  const Sample::Interval rate =
      wilson_interval(acc.successes, granted, spec.confidence);
  if ((rate.hi - rate.lo) / 2.0 > spec.tol) return false;
  if (acc.successes == 0) return true;
  const Sample rounds = acc.rounds_sample();
  const auto ci = quantile_ci(rounds, 0.5, spec.confidence);
  if (!ci.has_value()) return false;
  const double median = rounds.quantile(0.5);
  return (ci->hi - ci->lo) / 2.0 <= spec.tol * std::max(1.0, median);
}

// ---- Disk cache ----------------------------------------------------------
//
// One file per (spec hash, seed):
//
//   radnet-batch-cache-v2 <checksum16> <hash16> <seed16> <granted> <conv>\n
//   <json>\n
//
// where <checksum16> is fnv1a64 over EVERYTHING after its trailing space —
// key fields, counters and payload alike — so no single flipped or dropped
// byte can survive verification. Entries commit by write-to-temp +
// rename() (support/io.hpp), closing the v1 torn-write window where a
// death mid-store left a header-complete, payload-truncated file. On load,
// any file that fails the format or checksum check — truncated, garbled,
// stale-format, foreign — is quarantined to `*.quarantine` and treated as
// a miss: corruption can cost a recompute, never a wrong answer. Replaying
// the stored bytes (never re-deriving them) is what makes a warm run
// byte-identical to the cold run that filled the cache.

constexpr const char* kCacheVersion = "radnet-batch-cache-v2";

std::string cache_path(const std::string& dir, std::uint64_t hash,
                       std::uint64_t seed) {
  return dir + "/h" + hex16(hash) + "_s" + hex16(seed) + ".rbc";
}

struct CacheEntry {
  std::uint32_t granted = 0;
  bool converged = false;
  std::string json;
};

/// The checksummed region: key fields + counters + payload.
std::string cache_body(std::uint64_t hash, std::uint64_t seed,
                       std::uint32_t granted, bool converged,
                       const std::string& json) {
  return hex16(hash) + ' ' + hex16(seed) + ' ' + std::to_string(granted) +
         ' ' + (converged ? '1' : '0') + '\n' + json + '\n';
}

std::optional<CacheEntry> cache_load(const std::string& dir,
                                     std::uint64_t hash, std::uint64_t seed,
                                     BatchStats& stats) {
  const std::string path = cache_path(dir, hash, seed);
  const auto text = io::read_file(path);
  if (!text.has_value()) return std::nullopt;  // plain miss: no file
  const auto corrupt = [&]() -> std::optional<CacheEntry> {
    // Anything else under this name — torn write from a pre-v2 run, bit
    // rot, a foreign file — is moved aside, keeping the evidence while
    // guaranteeing it can never be replayed as an answer.
    if (io::quarantine_file(path)) ++stats.cache_quarantined;
    return std::nullopt;
  };
  const std::string prefix = std::string(kCacheVersion) + ' ';
  if (text->size() < prefix.size() + 17 ||
      text->compare(0, prefix.size(), prefix) != 0 ||
      (*text)[prefix.size() + 16] != ' ')
    return corrupt();
  const std::string_view checksum(text->data() + prefix.size(), 16);
  const std::string_view body(text->data() + prefix.size() + 17,
                              text->size() - prefix.size() - 17);
  if (checksum != hex16(fnv1a64(body))) return corrupt();
  std::istringstream fields{std::string(
      body.substr(0, body.find('\n')))};
  std::string hash_hex, seed_hex;
  std::uint32_t granted = 0;
  int converged = -1;
  if (!(fields >> hash_hex >> seed_hex >> granted >> converged) ||
      (converged != 0 && converged != 1))
    return corrupt();
  // A checksum-valid entry under the wrong name is a foreign file (e.g. a
  // renamed sibling), not this query's answer.
  if (hash_hex != hex16(hash) || seed_hex != hex16(seed)) return corrupt();
  CacheEntry entry;
  entry.granted = granted;
  entry.converged = converged == 1;
  const std::size_t nl = body.find('\n');
  entry.json = std::string(body.substr(nl + 1));
  if (entry.json.empty() || entry.json.back() != '\n') return corrupt();
  entry.json.pop_back();
  if (entry.json.empty() || entry.json.find('\n') != std::string::npos)
    return corrupt();
  return entry;
}

void cache_store(const std::string& dir, std::uint64_t hash,
                 std::uint64_t seed, std::uint32_t granted, bool converged,
                 const std::string& json, BatchStats& stats) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;  // cache is an accelerator: failing to store is not fatal
  const std::string body = cache_body(hash, seed, granted, converged, json);
  const std::string content =
      std::string(kCacheVersion) + ' ' + hex16(fnv1a64(body)) + ' ' + body;
  // Temp + rename: a death (or injected ENOSPC) at any instant leaves
  // either the old entry, no entry, or the complete new entry — never a
  // partial write under the final name.
  if (io::atomic_write_file(cache_path(dir, hash, seed), content,
                            "cache-write"))
    ++stats.cache_stores;
}

// ---- Run journal ---------------------------------------------------------
//
// Record payloads (each checksummed per line by support/journal.hpp):
//
//   header <version> <spec-set-hash16> <force_full> <min_grant>
//   trials <state-idx> <first> <count> <outcome> <outcome> ...
//   result <state-idx> <granted> <converged> <from_cache> <error> <json>
//
// The header binds the journal to one (spec set, grant schedule); a
// `trials` record holds the outcomes of one grant so resume restores the
// accumulator mid-spec; a `result` record commits the exact bytes of an
// emitted line, appended BEFORE the line is written to the output stream,
// so a resumed run re-emits committed lines verbatim and recomputes
// nothing that was journaled. Replay validates every record against the
// state it applies to (index in range, contiguous trial ranges) and treats
// the first inconsistent record as the end of the committed prefix —
// whatever follows is recomputed, which by the (seed, t) keying yields the
// same bytes.

constexpr const char* kJournalVersion = "radnet-batch-journal-v1";

std::uint64_t spec_set_hash(const std::vector<BatchSpec>& specs) {
  HashStream h(kJournalVersion);
  for (const BatchSpec& spec : specs) h.put_u64(1, spec.hash());
  return h.value();
}

std::string journal_header_payload(const std::vector<BatchSpec>& specs,
                                   const BatchOptions& options) {
  return std::string("header ") + kJournalVersion + ' ' +
         hex16(spec_set_hash(specs)) + ' ' +
         (options.force_full ? '1' : '0') + ' ' +
         std::to_string(options.min_grant);
}

/// One trial outcome as a colon-separated token. The double travels as a
/// %a hexfloat so serialisation round-trips bit-exactly — resume must
/// reproduce the uninterrupted run's statistics to the last bit.
std::string fmt_outcome(const TrialOutcome& o) {
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

bool parse_outcome(std::string_view text, TrialOutcome& o) {
  std::array<std::string_view, 9> fields;
  std::size_t start = 0;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const bool last = f + 1 == fields.size();
    const std::size_t colon = last ? text.size() : text.find(':', start);
    if (colon == std::string_view::npos) return false;
    fields[f] = text.substr(start, colon - start);
    start = colon + 1;
  }
  const auto parse_u64 = [](std::string_view s, std::uint64_t& v) {
    if (s.empty()) return false;
    char* end = nullptr;
    const std::string tmp(s);
    errno = 0;
    v = std::strtoull(tmp.c_str(), &end, 10);
    return errno == 0 && end == tmp.c_str() + tmp.size();
  };
  std::uint64_t completed = 0, rounds = 0, max_tx = 0, nodes = 0;
  if (!parse_u64(fields[0], completed) || completed > 1) return false;
  if (!parse_u64(fields[1], rounds) ||
      rounds > std::numeric_limits<sim::Round>::max())
    return false;
  if (!parse_u64(fields[2], o.total_tx)) return false;
  if (!parse_u64(fields[3], max_tx) ||
      max_tx > std::numeric_limits<std::uint32_t>::max())
    return false;
  {
    const std::string tmp(fields[4]);
    char* end = nullptr;
    o.mean_tx_node = std::strtod(tmp.c_str(), &end);
    if (end != tmp.c_str() + tmp.size()) return false;
  }
  if (!parse_u64(fields[5], o.deliveries)) return false;
  if (!parse_u64(fields[6], o.collisions)) return false;
  if (!parse_u64(fields[7], nodes) ||
      nodes > std::numeric_limits<graph::NodeId>::max())
    return false;
  if (fields[8] == "-1") {
    o.stranded.reset();
  } else {
    std::uint64_t stranded = 0;
    if (!parse_u64(fields[8], stranded) ||
        stranded > std::numeric_limits<graph::NodeId>::max())
      return false;
    o.stranded = static_cast<graph::NodeId>(stranded);
  }
  o.completed = completed == 1;
  o.rounds = static_cast<sim::Round>(rounds);
  o.max_tx_node = static_cast<std::uint32_t>(max_tx);
  o.nodes = static_cast<graph::NodeId>(nodes);
  return true;
}

/// Per-spec scheduler state (shared by run_batch and the isolate child).
struct SpecState {
  const BatchSpec* spec = nullptr;
  std::uint64_t hash = 0;
  McSpec mc;
  McResult acc;
  std::uint32_t granted = 0;
  std::size_t dup_of = kNoDup;  ///< state index of the first equal-hash spec
  bool done = false;
  bool converged = false;
  bool from_cache = false;
  bool error = false;
  std::string json;
};

// ---- Watchdogged spec isolation ------------------------------------------

struct ChildResult {
  enum class Status : std::uint8_t { kOk, kCrash, kTimeout, kError } status =
      Status::kError;
  std::uint32_t granted = 0;
  bool converged = false;
  std::string json;
};

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t w = ::write(fd, data.data(), data.size());
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

/// Child side of isolate mode: runs the spec's remaining doubling grants
/// to convergence/exhaustion serially (the parent's pool threads do not
/// survive fork) and writes "<granted> <converged>\n<json>\n" to the pipe.
/// Exit codes: 0 ok, 97 exception. Result bytes are identical to the
/// in-process path because the grant schedule and the (seed, t) trial
/// keying are the same; only the executor differs.
int isolate_child_run(SpecState& st, const BatchOptions& options, int wfd) {
  try {
    // Test hook: a deliberately pathological spec crashes or wedges here.
    (void)io::check_fault("spec:" + hex16(st.hash));
    st.mc.serial = true;
    st.mc.run_options.threads = 1;
    for (;;) {
      if (st.granted > 0) {
        const bool converged = spec_converged(*st.spec, st.acc, st.granted);
        const bool exhausted = st.granted == st.spec->trials;
        if ((converged && !options.force_full) || exhausted) {
          const std::string json =
              batch_result_json(*st.spec, st.acc, st.granted, converged);
          const std::string msg = std::to_string(st.granted) + ' ' +
                                  (converged ? '1' : '0') + '\n' + json +
                                  '\n';
          return write_all(wfd, msg) ? 0 : 97;
        }
      }
      const std::uint32_t remaining = st.spec->trials - st.granted;
      const std::uint32_t grant =
          options.force_full
              ? remaining
              : std::min(remaining,
                         std::max(options.min_grant, st.granted));
      run_monte_carlo_range(st.mc, st.granted, grant, st.acc);
      st.granted += grant;
    }
  } catch (...) {
    return 97;
  }
}

/// Parent side: fork the child, cap its address space, read its pipe under
/// a wall-clock deadline, SIGKILL it on expiry. One attempt; the caller
/// owns retry and backoff.
ChildResult supervise_spec(SpecState& st, const BatchOptions& options) {
  ChildResult res;
  int fds[2];
  if (::pipe(fds) != 0) return res;  // kError
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return res;
  }
  if (pid == 0) {
    ::close(fds[0]);
    if (options.isolate_mem_bytes > 0) {
      rlimit rl{};
      rl.rlim_cur = options.isolate_mem_bytes;
      rl.rlim_max = options.isolate_mem_bytes;
      ::setrlimit(RLIMIT_AS, &rl);
    }
    ::_exit(isolate_child_run(st, options, fds[1]));
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
    res.status = ChildResult::Status::kTimeout;
    return res;
  }
  if (WIFSIGNALED(status)) {
    res.status = ChildResult::Status::kCrash;
    return res;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return res;  // kError
  // "<granted> <converged>\n<json>\n"
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos || buf.empty() || buf.back() != '\n')
    return res;
  std::istringstream head(buf.substr(0, nl));
  std::uint32_t granted = 0;
  int converged = -1;
  if (!(head >> granted >> converged) || (converged != 0 && converged != 1))
    return res;
  res.granted = granted;
  res.converged = converged == 1;
  res.json = buf.substr(nl + 1, buf.size() - nl - 2);
  if (res.json.empty() || res.json.find('\n') != std::string::npos)
    return res;
  res.status = ChildResult::Status::kOk;
  return res;
}

// ---- Journal record payloads ---------------------------------------------

std::string trials_payload(std::size_t idx, std::uint32_t first,
                           const McResult& acc, std::uint32_t count) {
  std::string s = "trials " + std::to_string(idx) + ' ' +
                  std::to_string(first) + ' ' + std::to_string(count);
  for (std::uint32_t t = first; t < first + count; ++t)
    s += ' ' + fmt_outcome(acc.outcomes[t]);
  return s;
}

std::string result_payload(std::size_t idx, const SpecState& st) {
  return "result " + std::to_string(idx) + ' ' + std::to_string(st.granted) +
         (st.converged ? " 1" : " 0") + (st.from_cache ? " 1" : " 0") +
         (st.error ? " 1" : " 0") + ' ' + st.json;
}

/// Applies one replayed record to the state vector. Returns false — ending
/// the committed prefix — on any record that does not parse or is
/// inconsistent with the state it targets (wrong index, non-contiguous
/// trial range, duplicate result): a journal can only ever shorten the
/// work, never corrupt it.
bool apply_journal_record(std::string_view payload,
                          std::vector<SpecState>& states, BatchStats& stats) {
  std::istringstream in{std::string(payload)};
  std::string kind;
  if (!(in >> kind)) return false;
  if (kind == "trials") {
    std::size_t idx = 0;
    std::uint32_t first = 0, count = 0;
    if (!(in >> idx >> first >> count)) return false;
    if (idx >= states.size() || count == 0) return false;
    SpecState& st = states[idx];
    if (st.done || st.dup_of != kNoDup) return false;
    if (first != st.granted || first + count > st.spec->trials) return false;
    std::vector<TrialOutcome> outcomes(count);
    std::string token;
    for (std::uint32_t t = 0; t < count; ++t)
      if (!(in >> token) || !parse_outcome(token, outcomes[t])) return false;
    if (in >> token) return false;  // trailing garbage
    for (TrialOutcome& o : outcomes) {
      if (o.completed) ++st.acc.successes;
      st.acc.outcomes.push_back(o);
    }
    st.granted += count;
    stats.journal_trials += count;
    return true;
  }
  if (kind == "result") {
    std::size_t idx = 0;
    std::uint32_t granted = 0;
    int conv = -1, from_cache = -1, error = -1;
    if (!(in >> idx >> granted >> conv >> from_cache >> error)) return false;
    if (idx >= states.size()) return false;
    if (conv != 0 && conv != 1) return false;
    if (from_cache != 0 && from_cache != 1) return false;
    if (error != 0 && error != 1) return false;
    SpecState& st = states[idx];
    if (st.done) return false;
    if (granted > st.spec->trials || (error == 0 && granted == 0))
      return false;
    std::string json;
    std::getline(in, json);
    if (json.size() < 2 || json[0] != ' ') return false;
    json.erase(0, 1);
    st.done = true;
    st.granted = granted;
    st.converged = conv == 1;
    st.from_cache = from_cache == 1;
    st.error = error == 1;
    st.json = std::move(json);
    ++stats.journal_results;
    return true;
  }
  return false;
}

}  // namespace

const char* batch_family_name(BatchFamily family) {
  switch (family) {
    case BatchFamily::kCsr: return "csr";
    case BatchFamily::kImplicitGnp: return "ignp";
    case BatchFamily::kImplicitDynamic: return "idgnp";
    case BatchFamily::kImplicitRgg: return "irgg";
  }
  RADNET_CHECK(false, "unreachable batch family");
  return "";
}

double BatchSpec::effective_p() const {
  if (family == BatchFamily::kImplicitRgg) {
    const double r = rgg_radius();
    return std::min(1.0, kPi * r * r);
  }
  if (p > 0.0) return p;
  return delta_link_probability(n, delta);
}

double BatchSpec::rgg_radius() const {
  return graph::rgg_threshold_radius(n, radius_mult);
}

std::uint64_t BatchSpec::resolved_diameter() const {
  if (diameter > 0) return diameter;
  if (family == BatchFamily::kImplicitRgg)
    return std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(std::ceil(1.4143 / rgg_radius())));
  return 2ull * ilog2_floor(n) + 8;
}

std::uint64_t BatchSpec::resolved_max_rounds() const {
  if (max_rounds > 0) return max_rounds;
  // 64 * (D log n + log^2 n). A csr spec assumes D = 2 log n + 8 unless
  // diameter is set; radnet_cli sets the diameter it measures on a sample
  // graph of its generator.
  const double log2n = std::log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(
      64.0 * (static_cast<double>(resolved_diameter()) * std::max(1.0, log2n) +
              log2n * log2n));
}

void BatchSpec::validate(std::string_view field) const {
  // Messages are built only on failure (RADNET_REQUIRE), so the prefix
  // costs nothing on the hash() / to_mc_spec() path.
  const auto named = [field](const char* key) {
    return std::string(field) + key;
  };
  if (find_protocol(protocol) == nullptr) {
    std::string names;
    for (const ProtocolEntry& e : protocol_table())
      names += (names.empty() ? "" : ", ") + std::string(e.name);
    throw std::invalid_argument(named("protocol") + " must be one of " +
                                names + ", got '" + protocol + "'");
  }
  RADNET_REQUIRE(n >= 1, named("n") + " must be >= 1");
  RADNET_REQUIRE(trials >= 1 && trials <= McSpec::kMaxTrials,
                 named("trials") + " must be in [1, McSpec::kMaxTrials]");
  RADNET_REQUIRE(std::isfinite(tol) && tol >= 0.0,
                 named("tol") + " must be finite and >= 0");
  RADNET_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 named("confidence") + " must be in (0, 1)");
  RADNET_REQUIRE(std::isfinite(q) && q >= 0.0 && q <= 1.0,
                 named("q") + " must be in [0, 1]");
  RADNET_REQUIRE(q > 0.0 || protocol != "fixed",
                 named("q") + " must be > 0 for protocol fixed");
  RADNET_REQUIRE(p >= 0.0 && p <= 1.0, named("p") + " must be in [0, 1]");
  RADNET_REQUIRE(std::isfinite(delta) && delta > 0.0,
                 named("delta") + " must be > 0");
  RADNET_REQUIRE(source < n, named("source") + " must be < n (" +
                                 std::to_string(n) + ")");
  if (family == BatchFamily::kImplicitRgg) {
    RADNET_REQUIRE(std::isfinite(radius_mult) && radius_mult > 0.0,
                   named("radius-mult") + " must be > 0");
    const double r = rgg_radius();
    RADNET_REQUIRE(r > 0.0 && r <= 1.5,
                   named("radius-mult") + " yields a radius outside (0, 1.5]");
    RADNET_REQUIRE(step >= 0.0 && step <= 1.0,
                   named("step") + " must be in [0, 1]");
  } else {
    RADNET_REQUIRE(effective_p() > 0.0,
                   "resolved link probability must be > 0 (n = 1 with a "
                   "delta default has no edges; set p explicitly)");
  }
  if (family == BatchFamily::kImplicitDynamic) {
    RADNET_REQUIRE(churn > 0.0 && churn <= 1.0,
                   named("churn") + " must be in (0, 1]");
    RADNET_REQUIRE(fail_prob >= 0.0 && fail_prob < 1.0,
                   named("fail-prob") + " must be in [0, 1)");
  } else {
    RADNET_REQUIRE(p_amp == 0.0,
                   named("p-amp") + " applies only to the idgnp family");
  }
  RADNET_REQUIRE(resolved_max_rounds() >= 1 &&
                     resolved_max_rounds() <=
                         std::numeric_limits<sim::Round>::max(),
                 named("max-rounds") + " is out of range");
  adversary.validate();
}

std::uint64_t BatchSpec::hash() const {
  validate();
  // Resolved values, not as-written ones: `delta=8` and the explicit p it
  // resolves to hash identically, as do an explicit max-rounds equal to
  // the derived default. Tags are append-only (see HashStream).
  HashStream h("radnet-batch-spec-v1");
  h.put_string(1, protocol);
  h.put_u64(2, static_cast<std::uint64_t>(family));
  h.put_u64(3, n);
  h.put_double(4, effective_p());
  h.put_double(5, q);
  h.put_double(6, churn);
  h.put_double(7, fail_prob);
  h.put_double(8, radius_mult);
  h.put_double(9, step);
  h.put_u64(10, trials);
  h.put_u64(11, seed);
  h.put_u64(12, resolved_max_rounds());
  h.put_double(13, tol);
  h.put_double(14, confidence);
  h.put_double(15, adversary.jammer_fraction);
  h.put_double(16, adversary.byzantine_fraction);
  h.put_double(17, adversary.budget_mean);
  h.put_double(18, adversary.budget_spread);
  h.put_u64(19, static_cast<std::uint64_t>(adversary.exhaust_mode));
  h.put_u64(20, adversary.fault_schedule.size());
  for (const sim::FaultEvent& ev : adversary.fault_schedule) {
    h.put_u64(21, ev.round);
    h.put_u64(22, static_cast<std::uint64_t>(ev.kind));
    h.put_double(23, ev.fraction);
  }
  // The protected set to_mc_spec derives: {source} iff the adversary acts.
  h.put_u64(24, adversary.active() ? 1 : 0);
  if (adversary.active()) h.put_u64(25, source);
  // Later keys hash only when they differ from their defaults, so every
  // spec written before they existed keeps its hash (its cache address).
  if (source != 0) h.put_u64(26, source);
  if (diameter != 0) h.put_u64(27, diameter);
  if (lambda != 0.0) h.put_double(28, lambda);
  if (p_amp != 0.0) {
    h.put_double(29, p_amp);
    h.put_u64(30, p_period);
  }
  return h.value();
}

McSpec BatchSpec::to_mc_spec() const {
  validate();
  McSpec mc;
  mc.trials = trials;
  mc.seed = seed;
  const double eff_p = effective_p();
  const graph::NodeId nodes = n;
  switch (family) {
    case BatchFamily::kCsr:
      mc.make_graph = [nodes, eff_p](std::uint32_t, Rng rng) {
        return std::make_shared<const graph::Digraph>(
            graph::gnp_directed(nodes, eff_p, rng));
      };
      break;
    case BatchFamily::kImplicitGnp:
      mc.implicit_gnp = sim::ImplicitGnp{nodes, eff_p, Rng{}};
      break;
    case BatchFamily::kImplicitDynamic: {
      sim::ImplicitDynamicGnp d;
      d.n = nodes;
      d.p = eff_p;
      d.churn = churn;
      d.fail_prob = fail_prob;
      if (p_amp != 0.0) {
        d.p_of_round = [eff_p, amp = p_amp, period = p_period](sim::Round r) {
          return eff_p * (1.0 + amp * std::sin(2.0 * kPi *
                                               static_cast<double>(r) /
                                               static_cast<double>(period)));
        };
      }
      mc.implicit_dynamic = std::move(d);
      break;
    }
    case BatchFamily::kImplicitRgg: {
      const double r = rgg_radius();
      mc.implicit_rgg = sim::ImplicitRgg{nodes, r, r * step, Rng{}};
      break;
    }
  }
  const ProtocolArgs args{.n = nodes,
                          .p = eff_p,
                          .source = source,
                          .diameter = resolved_diameter(),
                          .q = q,
                          .lambda = lambda};
  mc.make_protocol = [make = find_protocol(protocol)->make, args](
                         const graph::Digraph&, std::uint32_t) {
    return make(args);
  };
  mc.run_options.max_rounds = static_cast<sim::Round>(resolved_max_rounds());
  mc.run_options.stop_on_empty_candidates = true;
  mc.run_options.adversary = adversary;
  // The attacked quantity is the spread of the message, not its existence.
  if (adversary.active()) mc.run_options.adversary.protected_nodes = {source};
  return mc;
}

void BatchSpec::set(std::string_view key, std::string_view value,
                    std::string_view what) {
  const auto node_id = [&] {
    const std::uint64_t v = parse_u64_strict(value, what);
    RADNET_REQUIRE(v <= std::numeric_limits<graph::NodeId>::max(),
                   std::string(what) + " is out of range");
    return static_cast<graph::NodeId>(v);
  };
  if (key == "protocol") {
    protocol = value;  // checked against the protocol table by validate()
  } else if (key == "family") {
    family = family_from_name(value, what);
  } else if (key == "n") {
    n = node_id();
    RADNET_REQUIRE(n >= 1, std::string(what) + " is out of range");
  } else if (key == "p") {
    p = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "delta") {
    delta = parse_double_strict(value, what);
  } else if (key == "q") {
    q = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "churn") {
    churn = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "fail-prob") {
    fail_prob = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "radius-mult") {
    radius_mult = parse_double_strict(value, what);
  } else if (key == "step") {
    step = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "p-amp") {
    p_amp = parse_double_strict(value, what);
    RADNET_REQUIRE(p_amp >= 0.0, std::string(what) + " must be >= 0");
  } else if (key == "p-period") {
    p_period = parse_u64_strict(value, what);
    RADNET_REQUIRE(p_period >= 1, std::string(what) + " must be >= 1");
  } else if (key == "source") {
    source = node_id();
  } else if (key == "diameter") {
    diameter = node_id();  // a hop diameter is below n; keeps budgets finite
  } else if (key == "lambda") {
    lambda = parse_double_strict(value, what);
    RADNET_REQUIRE(lambda >= 0.0, std::string(what) + " must be >= 0");
  } else if (key == "trials") {
    const std::uint64_t v = parse_u64_strict(value, what);
    RADNET_REQUIRE(v >= 1 && v <= McSpec::kMaxTrials,
                   std::string(what) + " is out of range");
    trials = static_cast<std::uint32_t>(v);
  } else if (key == "seed") {
    seed = parse_u64_strict(value, what);
  } else if (key == "max-rounds") {
    max_rounds = parse_u64_strict(value, what);
  } else if (key == "tol") {
    tol = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "confidence") {
    confidence = parse_double_strict(value, what);
  } else if (key == "jammers") {
    adversary.jammer_fraction = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "byzantine") {
    adversary.byzantine_fraction = parse_double_in(value, what, 0.0, 1.0);
  } else if (key == "energy-budget") {
    sim::parse_energy_budget(value, what, adversary);
  } else if (key == "fault-schedule") {
    adversary.fault_schedule = sim::parse_fault_schedule(value, what);
  } else {
    throw std::invalid_argument("unknown spec key '" + std::string(key) +
                                "'");
  }
}

BatchSpec parse_batch_spec(std::string_view line) {
  BatchSpec spec;
  std::unordered_set<std::string> seen;
  std::istringstream tokens{std::string(line)};
  std::string token;
  while (tokens >> token) {
    if (token[0] == '#') break;
    const std::size_t eq = token.find('=');
    RADNET_REQUIRE(eq != std::string::npos && eq > 0,
                   "spec tokens look like key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    RADNET_REQUIRE(seen.insert(key).second,
                   "duplicate spec key '" + key + "'");
    spec.set(key, std::string_view(token).substr(eq + 1), "spec field " + key);
  }
  RADNET_REQUIRE(!seen.empty(), "empty spec line");
  spec.validate();
  return spec;
}

std::vector<BatchSpec> parse_batch_file(std::istream& in) {
  std::vector<BatchSpec> specs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      specs.push_back(parse_batch_spec(line));
    } catch (const std::exception& e) {
      throw std::invalid_argument("spec line " + std::to_string(lineno) +
                                  ": " + e.what());
    }
  }
  return specs;
}

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

  // Journal replay + (re)open. The committed prefix restores trial
  // accumulators mid-spec and finished results verbatim; everything after
  // the first torn or inconsistent record is truncated away and recomputed.
  JournalWriter writer;
  if (!options.journal_path.empty()) {
    std::uint64_t keep_bytes = 0;
    bool write_header = true;
    if (options.resume) {
      const JournalReplay replay = read_journal(options.journal_path);
      if (!replay.records.empty()) {
        const std::string expect = journal_header_payload(specs, options);
        const std::string& head = replay.records.front().payload;
        if (head.rfind("header ", 0) != 0)
          throw std::invalid_argument("journal '" + options.journal_path +
                                      "' is not a radnet batch journal");
        if (head != expect)
          throw std::invalid_argument(
              "journal '" + options.journal_path +
              "' was written by a different sweep or grant schedule — "
              "refusing to splice result streams");
        write_header = false;
        keep_bytes = replay.records.front().end_offset;
        for (std::size_t r = 1; r < replay.records.size(); ++r) {
          if (!apply_journal_record(replay.records[r].payload, states, stats))
            break;  // first inconsistent record ends the committed prefix
          keep_bytes = replay.records[r].end_offset;
        }
      }
    }
    writer.open(options.journal_path, keep_bytes);
    if (write_header) writer.append(journal_header_payload(specs, options));
  }

  const auto cancelled = [&] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // Each emitted line is flushed at once, so a consumer (or a file a later
  // signal leaves behind) holds every finished spec's line, not just the
  // ones a full stream buffer happened to push out.
  std::size_t frontier = 0;
  const auto flush = [&] {
    while (frontier < order.size() && states[order[frontier]].done) {
      out << states[order[frontier]].json << '\n';
      ++frontier;
    }
    out.flush();
  };

  // Journal-then-emit: the result record is committed before the line can
  // reach `out`, so a resumed run re-emits exactly what was (or would have
  // been) printed.
  const auto commit_result = [&](std::size_t idx) {
    if (writer.is_open()) writer.append(result_payload(idx, states[idx]));
    flush();
  };

  const auto try_finish = [&](std::size_t idx) -> bool {
    SpecState& st = states[idx];
    if (st.granted == 0) return false;
    const bool converged = spec_converged(*st.spec, st.acc, st.granted);
    const bool exhausted = st.granted == st.spec->trials;
    if (!((converged && !options.force_full) || exhausted)) return false;
    st.done = true;
    st.converged = converged;
    stats.trials_saved += st.spec->trials - st.granted;
    st.json = batch_result_json(*st.spec, st.acc, st.granted, converged);
    // force_full runs are diagnostic (prefix-of-full-run comparisons):
    // storing them would make a later early-stopping run replay the
    // full-trial line instead of the bytes it would compute itself.
    if (!options.cache_dir.empty() && !options.force_full)
      cache_store(options.cache_dir, st.hash, st.spec->seed, st.granted,
                  converged, st.json, stats);
    commit_result(idx);
    return true;
  };

  // Disk lookups for specs the journal did not already answer. A spec the
  // replay left mid-schedule keeps computing — its grant sequence must
  // match the uninterrupted run's, not jump to a cache entry the original
  // run never saw.
  if (!options.cache_dir.empty() && !options.force_full) {
    for (const std::size_t idx : order) {
      SpecState& st = states[idx];
      if (st.done || st.dup_of != kNoDup || st.granted > 0) continue;
      if (auto entry =
              cache_load(options.cache_dir, st.hash, st.spec->seed, stats)) {
        st.done = true;
        st.from_cache = true;
        st.granted = entry->granted;
        st.converged = entry->converged;
        st.json = std::move(entry->json);
        ++stats.cache_hits;
        stats.trials_saved += st.spec->trials - st.granted;
        commit_result(idx);
      }
    }
  }

  // A crash between a grant's `trials` append and its `result` append
  // leaves a restored accumulator that may already satisfy its stop rule;
  // finishing it here (instead of granting again) keeps the grant
  // sequence — hence the reported trial counts — identical to the
  // uninterrupted run's.
  for (const std::size_t idx : order) {
    SpecState& st = states[idx];
    if (!st.done && st.dup_of == kNoDup && st.granted > 0) try_finish(idx);
  }

  // An error line is final like a result line, but never cached: the next
  // run retries the spec.
  const auto fail_spec = [&](std::size_t idx, std::string_view cause,
                             std::uint32_t attempts) {
    SpecState& st = states[idx];
    st.done = true;
    st.error = true;
    st.converged = false;
    st.json = batch_error_json(*st.spec, cause, attempts);
    ++stats.spec_errors;
    commit_result(idx);
  };

  const auto run_isolated = [&](std::size_t idx) {
    SpecState& st = states[idx];
    std::string_view cause = "error";
    for (std::uint32_t attempt = 0; attempt < options.isolate_attempts;
         ++attempt) {
      if (attempt > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<std::uint64_t>(options.isolate_backoff_ms)
            << (attempt - 1)));
      const ChildResult res = supervise_spec(st, options);
      if (res.status == ChildResult::Status::kOk) {
        stats.trials_run += res.granted - st.granted;
        st.done = true;
        st.converged = res.converged;
        st.granted = res.granted;
        stats.trials_saved += st.spec->trials - st.granted;
        st.json = res.json;
        if (!options.cache_dir.empty() && !options.force_full)
          cache_store(options.cache_dir, st.hash, st.spec->seed, st.granted,
                      st.converged, st.json, stats);
        commit_result(idx);
        return;
      }
      switch (res.status) {
        case ChildResult::Status::kCrash: cause = "crash"; break;
        case ChildResult::Status::kTimeout: cause = "timeout"; break;
        default: cause = "error"; break;
      }
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
      if (st.done) continue;
      if (st.dup_of != kNoDup) {
        const SpecState& primary = states[st.dup_of];
        // The primary precedes the dup in emission order but may still be
        // mid-schedule this pass; the dup just waits for it.
        if (!primary.done) {
          pending = true;
          continue;
        }
        st.done = true;
        st.converged = primary.converged;
        st.from_cache = true;
        st.error = primary.error;
        st.granted = primary.granted;
        st.json = primary.json;
        ++stats.cache_hits;
        stats.trials_saved += st.spec->trials;
        commit_result(idx);
        continue;
      }
      if (options.isolate) {
        run_isolated(idx);
        if (!st.done) pending = true;  // cancelled mid-retry
        continue;
      }
      const std::uint32_t remaining = st.spec->trials - st.granted;
      const std::uint32_t grant =
          options.force_full
              ? remaining
              : std::min(remaining, std::max(options.min_grant, st.granted));
      (void)io::check_fault("grant");  // crash window: grant not yet run
      const std::uint32_t first = st.granted;
      try {
        run_monte_carlo_range(st.mc, first, grant, st.acc);
      } catch (const std::bad_alloc&) {
        // A spec too large for this process ends as the error line an
        // isolated child's failure leaves; the other specs run on.
        fail_spec(idx, "error", 1);
        continue;
      }
      st.granted += grant;
      stats.trials_run += grant;
      if (writer.is_open()) {
        // Crash window between compute and commit: resume reruns the grant
        // and — trial t being a pure function of (seed, t) — reproduces
        // the same outcomes bit-for-bit.
        (void)io::check_fault("grant-commit");
        writer.append(trials_payload(idx, first, st.acc, grant));
      }
      if (!try_finish(idx)) pending = true;
    }
  }
  flush();
  if (!stats.interrupted)
    RADNET_CHECK(frontier == order.size(), "batch ended with unemitted specs");

  std::vector<BatchOutcome> outcomes(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    outcomes[i] = BatchOutcome{states[i].hash,       states[i].granted,
                               states[i].converged,  states[i].from_cache,
                               states[i].error,      std::move(states[i].json)};
  }
  if (stats_out != nullptr) *stats_out = stats;
  return outcomes;
}

}  // namespace radnet::harness
