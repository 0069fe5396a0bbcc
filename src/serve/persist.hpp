#pragma once
/// \file persist.hpp
/// \brief Crash-safe persistence for the serve solution cache.
///
/// Format `rdse.cachedb.v2`: an append-only log in newline-delimited JSON.
/// The first line is the header `{"format": "rdse.cachedb.v2"}`; every
/// following line is one cache entry
///
///   {"key": "...", "payload": "...", "checksum": "<16 hex digits>"}
///
/// with `checksum` = fnv1a64_hex(key + '\n' + payload) — the record codec
/// of util/record_log, shared with the work journal. Records are in
/// chronological order, oldest first. The service appends one record per
/// fresh result (write + fsync on a long-lived O_APPEND fd); a cache hit's
/// recency is not written and persists only at the next compaction.
///
/// Loading replays the records in file order: the last write of a key
/// wins, and the order of those last writes restores the LRU order (the
/// cache's capacity then trims the cold end). The loader verifies every
/// line independently and skips anything malformed or checksum-mismatched
/// with a counter instead of failing the load: a corrupt persisted cache
/// degrades to cache misses, never to wrong payloads.
///
/// Compaction rewrites the live entries, oldest first, through
/// save_cache_db: the whole database goes to `path.tmp`, is fsync'd, then
/// renamed over `path`. The service compacts at drain and SIGHUP, at
/// startup when the loaded file has dead or skipped lines or is v1, and
/// when the file's dead records outnumber the live entries. All data-path
/// syscalls go through util/faultfs so the fault-injection tests can prove
/// every failure mode leaves either the old file or the new file (possibly
/// truncated) — never a half-written mix.
///
/// A `rdse.cachedb.v1` file (the same lines, whole-file rewrites, MRU
/// first) still loads — in reverse order — and is compacted to v2.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace rdse::serve {

inline constexpr const char* kCacheDbFormat = "rdse.cachedb.v2";
inline constexpr const char* kCacheDbFormatV1 = "rdse.cachedb.v1";

/// Result of loading a persisted cache database.
struct LoadedCacheDb {
  /// Verified (key, payload) entries, oldest first: each key's last write,
  /// in the order of those writes.
  std::vector<std::pair<std::string, std::string>> entries;
  /// Lines skipped because they were malformed, incomplete or failed the
  /// checksum. A missing file loads as zero entries, zero skipped.
  std::uint64_t skipped = 0;
  /// Verified records superseded by a later write of the same key.
  std::uint64_t dead = 0;
  /// The file was `rdse.cachedb.v1`.
  bool legacy = false;
};

/// Load and verify `path`. Never throws on bad file contents — corrupt
/// lines (including a bad or missing header, which voids the whole file)
/// are counted in `skipped` and the rest is recovered where possible.
[[nodiscard]] LoadedCacheDb load_cache_db(const std::string& path);

/// Atomically persist `entries` (oldest first) to `path` as v2 via temp
/// file + fsync + rename. Returns false — leaving the previous file
/// untouched where the OS permits — when any step fails; never throws on
/// I/O errors.
[[nodiscard]] bool save_cache_db(
    const std::string& path,
    std::span<const std::pair<std::string, std::string>> entries);

/// The v2 header line, newline-terminated.
[[nodiscard]] std::string cache_db_header();

/// One v2 record line, newline-terminated.
[[nodiscard]] std::string cache_db_record(const std::string& key,
                                          const std::string& payload);

}  // namespace rdse::serve
