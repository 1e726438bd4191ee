// Append-only, per-record-checksummed run journal.
//
// The batch sweep service logs every grant's trial outcomes and every
// error line here, so a run killed at any instant can resume from its
// committed prefix and still produce a byte-identical output stream
// (harness/batch.hpp `--resume`). The format is deliberately dumb — text
// lines, one record each:
//
//   <fnv1a-16-hex of payload> <payload>\n
//
// Replay reads records until the first line whose checksum does not match
// or whose trailing newline is missing; everything from that point on is a
// torn tail (the write the crash interrupted) and is DISCARDED, never
// half-applied. Each record carries its end byte offset so a resuming
// writer can truncate the file back to the committed prefix before
// appending — the torn bytes must not survive in front of new records.
// Cache entries and the isolate pipe carry the same lines.
//
// Appends flush to the OS per record and throw io::IoError on any stream
// failure (including injected ENOSPC): a crash-safe layer must stop rather
// than run on past an unjournaled grant. Durability is process-crash
// level — an OS/power crash can lose the tail, which replay then treats
// exactly like a kill: the committed prefix resumes, the rest recomputes.
//
// tests/support/journal_test.cpp pins the record format and tail
// semantics; tests/harness/faultinject_test.cpp tortures it end-to-end.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace radnet {

struct JournalRecord {
  std::string payload;
  std::uint64_t end_offset = 0;  ///< file offset just past this record
};

struct JournalReplay {
  std::vector<JournalRecord> records;  ///< the committed prefix, in order
  bool torn_tail = false;  ///< trailing bytes were truncated/garbled
  std::uint64_t committed_bytes = 0;  ///< prefix length holding `records`
};

/// The committed prefix of journal-formatted bytes.
[[nodiscard]] JournalReplay parse_journal(std::string_view content);

/// Reads the committed prefix of a journal file. A missing file is an
/// empty replay, not an error — resume from nothing is a fresh run.
[[nodiscard]] JournalReplay read_journal(const std::string& path);

/// "<checksum16> <payload>\n"; `payload` must not contain '\n'.
[[nodiscard]] std::string journal_line(std::string_view payload);

class JournalWriter {
 public:
  /// Opens `path` for appending after truncating it to `keep_bytes`
  /// (0 starts a fresh journal; a resumer passes the replay's
  /// committed_bytes so torn tail bytes never precede new records).
  /// Throws io::IoError if the file cannot be opened.
  void open(const std::string& path, std::uint64_t keep_bytes);

  [[nodiscard]] bool is_open() const { return out_.is_open(); }

  /// Appends one checksummed record and flushes it to the OS. `payload`
  /// must not contain '\n' (RADNET_REQUIRE). Throws io::IoError on any
  /// stream failure — fault point "journal-append" can inject one.
  void append(std::string_view payload);

  void close() { out_.close(); }

 private:
  std::ofstream out_;
  std::string path_;
};

}  // namespace radnet
