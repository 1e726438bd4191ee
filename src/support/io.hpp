// Crash-safe file I/O primitives for the harness's persistent state.
//
// The batch sweep service keeps two kinds of on-disk state — the result
// cache and the run journal, both in harness/batch_record.hpp's records —
// and both must satisfy one invariant: a process death at ANY instant
// (SIGKILL, ENOSPC, power loss mid-write) leaves files that are either
// complete or detectably incomplete, never silently wrong. This header
// supplies the building blocks:
//
//   * atomic_write_file — write-to-temp + rename() commit, so a reader
//     never observes a half-written file under the final name; the stream
//     state is checked after writing and the temp is unlinked on any
//     failure;
//   * quarantine_file — corrupt or foreign files are renamed aside to
//     `<name>.quarantine` instead of deleted, preserving the evidence
//     while guaranteeing they can never be replayed as an answer;
//   * sweep_stale_files — startup reaping of `*.tmp.*` / `*.quarantine`
//     debris older than a cutoff, age-gated so a concurrent run's live
//     temp files are left alone;
//   * check_fault — the RADNET_FAULT injection hook the fault tests drive:
//     named fault points in the cache/journal/grant paths that can kill
//     the process, simulate ENOSPC or hang on their N-th hit, so crash
//     windows are exercised deterministically rather than by timing.
//
// tests/support/io_test.cpp pins the primitives;
// tests/harness/faultinject_test.cpp drives them end-to-end.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace radnet::io {

/// Thrown when a write the caller cannot safely ignore fails (journal
/// appends: continuing past an unjournaled grant would break resume).
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- Fault injection ------------------------------------------------------
//
// One fault is armed at a time, from the RADNET_FAULT environment variable
// or programmatically via set_fault. Spec syntax:
//
//   <point>@<n>:<action>     e.g.  grant@3:kill   journal-append@1:enospc
//
// The fault fires on the n-th hit (1-based) of the named point and then
// disarms — one shot per process. Forked children inherit the parent's
// armed state by memory copy, so each isolate-mode child re-fires
// independently (how the watchdog tests crash every retry attempt).
// Actions: `kill` raises SIGKILL at the point (a crash at a precise
// boundary), `hang` sleeps forever (a wedged spec for the watchdog),
// `enospc` makes the current write fail as if the disk were full.

enum class FaultAction : std::uint8_t {
  kNone = 0,   ///< nothing armed here — proceed
  kEnospc = 1, ///< caller must fail this write as if ENOSPC
};

/// Arms a fault from a spec string ("" disarms). Malformed specs throw
/// std::invalid_argument naming the field.
void set_fault(std::string_view spec);

/// Reports (and consumes) the fault armed at `point`. kKill and kHang are
/// executed here — callers only ever see kNone or kEnospc. The first call
/// also reads RADNET_FAULT if set_fault was never used.
[[nodiscard]] FaultAction check_fault(std::string_view point);

// ---- Atomic file primitives ----------------------------------------------

/// Reads the whole file; std::nullopt if it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Atomically replaces `path` with `content`: writes `path + ".tmp.<pid>"`,
/// checks the stream state after write + flush, then rename()s onto the
/// final name. On ANY failure (including an injected ENOSPC at fault point
/// `fault_point`) the temp file is removed and false is returned — the
/// final name is never left holding a partial write.
bool atomic_write_file(const std::string& path, std::string_view content,
                       std::string_view fault_point);

/// Moves a corrupt/foreign file aside to `path + ".quarantine"` (replacing
/// any previous quarantine of the same name). Returns false if the rename
/// failed; the caller must treat the path as a miss either way.
bool quarantine_file(const std::string& path);

/// Removes `*.tmp.*` and `*.quarantine` entries in `dir` whose mtime is
/// older than `max_age`, returning the number removed. Younger files are
/// left untouched — they may belong to a live concurrent run. Missing or
/// unreadable directories reap nothing.
std::size_t sweep_stale_files(const std::string& dir,
                              std::chrono::seconds max_age);

}  // namespace radnet::io
