#pragma once
/// \file record_log.hpp
/// \brief The checksummed NDJSON record codec shared by the append-only
/// persistence formats (`rdse.cachedb.v2`, `rdse.journal.v1`).
///
/// A record file is one header line followed by one record per line. A
/// record is a JSON object carrying two named string fields and
///
///   "checksum": fnv1a64_hex(first + '\n' + second)
///
/// after any leading members the format adds (the journal's `seq`). Every
/// line is verified on its own, so a torn or tampered line is skipped and
/// counted and never poisons its neighbours.
///
/// RecordAppender is the write side: a long-lived O_APPEND fd, one
/// write + fsync per append through util/faultfs, so the fault-injection
/// suites can prove that a failed append damages at most its own line.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace rdse {

/// Names of a format's two checksummed string fields.
struct RecordFields {
  std::string_view first;
  std::string_view second;
};

/// One verified record: the values of the two checksummed fields.
using Record = std::pair<std::string, std::string>;

/// fnv1a64_hex(first + '\n' + second).
[[nodiscard]] std::string record_checksum(std::string_view first,
                                          std::string_view second);

/// One newline-terminated record line: the members of `prefix` (an object,
/// possibly empty), then the two fields, then the checksum.
[[nodiscard]] std::string encode_record(JsonValue prefix, RecordFields fields,
                                        const std::string& first,
                                        const std::string& second);

struct RecordScan {
  /// The first line; nullopt for a missing or empty file.
  std::optional<std::string> header;
  /// Verified records after the header, in file order.
  std::vector<Record> records;
  /// Non-blank lines that were malformed or failed the checksum.
  std::uint64_t skipped = 0;
};

/// Read `path` and verify every line after the header. Blank lines (the
/// recovery byte after a failed append) are ignored. Never throws on file
/// contents; the caller judges the header.
[[nodiscard]] RecordScan scan_records(const std::string& path,
                                      RecordFields fields);

/// Durable appends to one record file. The fd is opened lazily (creating
/// the file) on the first append, so an idle writer costs no syscall. A
/// new or empty file gets `header` in the same write as the first record;
/// a file whose last line is unterminated (a torn tail) gets a newline
/// first, so the torn line cannot swallow the new record. Not thread-safe:
/// callers serialize appends.
class RecordAppender {
 public:
  /// `header` is the format's header line, newline-terminated.
  RecordAppender(std::string path, std::string header);
  ~RecordAppender();

  RecordAppender(const RecordAppender&) = delete;
  RecordAppender& operator=(const RecordAppender&) = delete;

  /// Write `lines` and fsync. On a storage fault returns false and leaves
  /// the damage to one line: a file this append would have started is
  /// truncated back to empty; otherwise a raw recovery newline ends the
  /// torn line.
  bool append(std::string_view lines);

  /// fsync the open fd; true when there is nothing to sync.
  bool sync();

  /// Close the fd; the next append reopens `path`. Call after an atomic
  /// rewrite renamed a new file over it: the old fd points at the unlinked
  /// inode, and appends through it would be lost.
  void reopen();

 private:
  bool open();

  std::string path_;
  std::string header_;
  int fd_ = -1;
  /// Bytes the next append writes first: the header for an empty file, a
  /// newline after an unterminated last line, else nothing.
  std::string lead_;
};

}  // namespace rdse
