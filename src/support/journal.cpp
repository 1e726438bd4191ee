#include "support/journal.hpp"

#include <filesystem>

#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/require.hpp"

namespace radnet {

JournalReplay parse_journal(std::string_view content) {
  JournalReplay replay;
  std::uint64_t offset = 0;
  while (offset < content.size()) {
    const std::size_t eol = content.find('\n', offset);
    if (eol == std::string_view::npos) {
      replay.torn_tail = true;  // the write a crash interrupted
      break;
    }
    const std::string_view line = content.substr(offset, eol - offset);
    // "<hex16> <payload>": a line too short for the checksum field, a
    // non-hex checksum or a mismatch all end the committed prefix here.
    if (line.size() < 17 || line[16] != ' ') {
      replay.torn_tail = true;
      break;
    }
    const std::string_view payload = line.substr(17);
    if (std::string_view(line.substr(0, 16)) != hex16(fnv1a64(payload))) {
      replay.torn_tail = true;
      break;
    }
    offset = eol + 1;
    replay.records.push_back(JournalRecord{std::string(payload), offset});
    replay.committed_bytes = offset;
  }
  if (offset < content.size()) replay.torn_tail = true;
  return replay;
}

JournalReplay read_journal(const std::string& path) {
  const auto content = io::read_file(path);
  return content.has_value() ? parse_journal(*content) : JournalReplay{};
}

std::string journal_line(std::string_view payload) {
  RADNET_REQUIRE(payload.find('\n') == std::string_view::npos,
                 "journal payloads are single lines");
  return hex16(fnv1a64(payload)) + ' ' + std::string(payload) + '\n';
}

void JournalWriter::open(const std::string& path, std::uint64_t keep_bytes) {
  namespace fs = std::filesystem;
  path_ = path;
  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Truncate away any torn tail (or, with keep_bytes = 0, the whole
    // previous journal) BEFORE appending: committed records must never
    // sit behind garbage bytes.
    fs::resize_file(path, keep_bytes, ec);
    if (ec)
      throw io::IoError("cannot truncate journal '" + path +
                        "': " + ec.message());
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) throw io::IoError("cannot open journal '" + path + "'");
}

void JournalWriter::append(std::string_view payload) {
  RADNET_CHECK(out_.is_open(), "journal append before open");
  out_ << journal_line(payload);
  if (io::check_fault("journal-append") == io::FaultAction::kEnospc)
    out_.setstate(std::ios::badbit);
  out_.flush();
  // An unjournaled grant must stop the run — resume depends on the journal
  // never silently lagging the work.
  if (!out_.good())
    throw io::IoError("journal append to '" + path_ +
                      "' failed (disk full?) — run is resumable from the "
                      "committed prefix");
}

}  // namespace radnet
