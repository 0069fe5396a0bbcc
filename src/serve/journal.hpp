#pragma once
/// \file journal.hpp
/// \brief Write-ahead work journal for the exploration service
/// (`rdse serve --journal PATH`).
///
/// Format `rdse.journal.v1`: a header line holding the format tag, then one
/// checksummed NDJSON entry per work-request state transition:
///
///   rdse.journal.v1
///   {"seq": 1, "event": "accepted", "key": "{...}", "checksum": "<16 hex>"}
///
/// `key` is the request's canonical normalized form (serve/protocol.hpp) —
/// enough to re-execute the work — and `checksum` is fnv1a64_hex of
/// event + '\n' + key, so a torn tail line (crash mid-append) is detected
/// and skipped rather than replayed corrupt. Events: accepted (admitted to
/// the queue), started (a worker picked it up), completed (answered ok),
/// cancelled (deadline/drain/definitive error — the client was told).
///
/// On startup the journal replays itself: entries whose key was accepted
/// (or started) but never completed/cancelled are the work a crash
/// swallowed, surfaced through pending() for the service to re-enqueue.
/// The file is then compacted — rewritten atomically with only the pending
/// entries — so completed work does not accumulate forever.
///
/// Entries use the checksummed record codec of util/record_log, shared with
/// the cache database. Appends go through its RecordAppender (write + fsync
/// via util/faultfs), so the fault-injection suite can prove every storage
/// failure degrades to "entry not journaled, run still correct" — an append
/// failure never corrupts the file beyond what the checksummed replay
/// already skips.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/record_log.hpp"

namespace rdse::serve {

inline constexpr const char* kJournalFormat = "rdse.journal.v1";

class WorkJournal {
 public:
  struct Counters {
    std::uint64_t replayed = 0;     ///< pending entries found at startup
    std::uint64_t skipped = 0;      ///< corrupt/torn lines skipped at startup
    std::uint64_t compactions = 0;  ///< successful startup rewrites
    std::uint64_t appends = 0;      ///< entries durably appended
    std::uint64_t append_failures = 0;  ///< write/fsync faults swallowed
  };

  /// Open (creating if absent), replay and compact the journal at `path`.
  /// Throws Error when the file exists but carries a foreign format tag —
  /// a journal that is not ours must not be silently rewritten.
  explicit WorkJournal(std::string path);

  WorkJournal(const WorkJournal&) = delete;
  WorkJournal& operator=(const WorkJournal&) = delete;

  /// Durably append one state transition (write + fsync through faultfs).
  /// Returns false on a storage fault; the failure is counted and a
  /// best-effort newline is written so a partial line cannot swallow the
  /// *next* entry too.
  bool append(std::string_view event, const std::string& key);

  /// fsync the journal (SIGHUP flush); false when the sync failed.
  bool flush();

  /// Keys accepted-but-not-completed at startup, in first-accepted order —
  /// the work to re-enqueue. Fixed after construction.
  [[nodiscard]] const std::vector<std::string>& pending() const {
    return pending_;
  }

  [[nodiscard]] Counters counters() const;

 private:
  std::string path_;
  mutable std::mutex mutex_;
  RecordAppender log_;
  std::uint64_t seq_ = 0;
  std::vector<std::string> pending_;
  Counters counters_;
};

}  // namespace rdse::serve
