#pragma once
/// \file service.hpp
/// \brief The exploration service: request execution, admission control and
/// the solution cache — everything `rdse serve` does except the socket.
///
/// ExplorationService turns one request line into one response line. Work
/// requests (explore/sweep) are memoized through the SolutionCache — a
/// repeated identical request is O(1) and bit-identical to a fresh run —
/// and executed on a util/ThreadPool behind a *bounded* admission queue:
/// when `queue_capacity` requests are already waiting, new work is rejected
/// immediately with a retry_after_ms backpressure hint instead of being
/// queued without bound or dropped. status/ping are served inline (they
/// must answer even when the queue is full). The class is fully
/// thread-safe: the socket server calls handle() from many connection
/// threads concurrently.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "util/cancel.hpp"
#include "util/record_log.hpp"
#include "util/thread_pool.hpp"

namespace rdse::serve {

struct ServiceConfig {
  /// Worker threads executing explore/sweep requests.
  unsigned workers = 2;
  /// Maximum requests *waiting* for a worker; beyond it new work is
  /// rejected with a backpressure error carrying `retry_after_ms`.
  std::size_t queue_capacity = 16;
  /// Solution-cache entries (0 disables caching).
  std::size_t cache_capacity = 128;
  /// SweepEngine threads per request (0 = hardware concurrency). Keep the
  /// product workers * run_threads near the core count.
  unsigned run_threads = 1;
  /// Reject requests whose per-run iteration budget (iters + warmup)
  /// exceeds this cap — one oversized request must not starve the queue.
  std::int64_t max_iterations = 1'000'000;
  std::int64_t retry_after_ms = 250;
  /// Path of the persisted solution cache (rdse.cachedb.v2, see
  /// serve/persist.hpp); empty disables persistence. Loaded and verified at
  /// construction; every fresh result appends one record (write + fsync).
  /// The file is compacted — rewritten atomically with only the live
  /// entries — at drain and SIGHUP, at startup when it has dead or skipped
  /// lines or is v1, and when its dead records outnumber the live entries.
  /// A cache hit's recency is persisted only at compaction.
  std::string persist_path;
  /// Path of the write-ahead work journal (rdse.journal.v1); empty
  /// disables journaling. Replayed and compacted at construction;
  /// accepted-but-not-completed work is re-enqueued in the background.
  std::string journal_path;
  /// Test hook: invoked by a worker when it starts executing a request
  /// (before any annealing). Lets tests hold workers inside a job to
  /// exercise the queue-full path deterministically.
  std::function<void()> on_job_start;
};

/// Aggregate counters surfaced through the `status` request.
struct ServiceStats {
  SolutionCache::Stats cache;
  std::size_t queue_depth = 0;      ///< requests waiting for a worker
  std::size_t in_flight = 0;        ///< requests executing right now
  std::size_t queue_capacity = 0;
  unsigned workers = 0;
  std::uint64_t requests_total = 0;  ///< every line handled, any op
  std::uint64_t completed = 0;       ///< work requests answered ok
  std::uint64_t rejected = 0;        ///< backpressure rejections
  std::uint64_t errors = 0;          ///< malformed / failed requests
  std::uint64_t cancelled = 0;       ///< deadline-expired + drain-cancelled
  bool persist_enabled = false;
  std::uint64_t persist_loaded = 0;   ///< entries restored at startup
  std::uint64_t persist_skipped = 0;  ///< corrupt lines skipped at startup
  std::uint64_t persist_saves = 0;    ///< fresh results durably appended
  std::uint64_t persist_compactions = 0;  ///< successful whole-file rewrites
  /// Failed appends and failed compactions.
  std::uint64_t persist_save_failures = 0;
  std::int64_t uptime_ms = 0;  ///< since service construction
  /// One entry per request executing right now: the request fingerprint
  /// (fnv64 hex of its canonical key) and how long it has been running.
  struct InFlightInfo {
    std::string fingerprint;
    std::int64_t age_ms = 0;
  };
  std::vector<InFlightInfo> in_flight_requests;
  bool journal_enabled = false;
  WorkJournal::Counters journal;
};

class ExplorationService {
 public:
  explicit ExplorationService(ServiceConfig config = {});

  /// Drains queued and in-flight work, then joins the workers.
  ~ExplorationService();

  ExplorationService(const ExplorationService&) = delete;
  ExplorationService& operator=(const ExplorationService&) = delete;

  struct Handled {
    std::string response;  ///< one response line (no trailing newline)
    RequestOp op = RequestOp::kStatus;
    bool ok = false;
  };

  /// Handle one request line; blocks until the response is ready (cache
  /// hits and status/ping return immediately; queue-full work returns the
  /// backpressure error immediately). Never throws: every failure becomes
  /// an error response.
  [[nodiscard]] Handled handle(const std::string& line);

  /// Stop admitting work requests (they get a "shutting down" error);
  /// queued-but-unstarted work is cancelled at pickup (its caller gets a
  /// "cancelled" error without the run executing), in-flight runs still
  /// complete, and the persisted cache — if any — is compacted.
  void begin_drain();

  /// SIGHUP hook: compact the persisted cache and fsync the journal without
  /// touching admission state — connections and in-flight work continue.
  void reload();

  [[nodiscard]] ServiceStats stats() const;

 private:
  [[nodiscard]] std::string run_work_request(const Request& request);
  [[nodiscard]] JsonValue execute(const Request& request,
                                  const CancelToken* cancel) const;
  [[nodiscard]] JsonValue status_payload() const;
  void load_persisted_cache();
  void persist_fresh_result(const std::string& key,
                            const std::string& payload);
  void compact_persisted_cache();
  void compact_persisted_cache_locked();
  void journal_event(std::string_view event, const std::string& key);
  void replay_journal();

  ServiceConfig config_;
  SolutionCache cache_;
  ThreadPool pool_;
  std::unique_ptr<WorkJournal> journal_;
  std::chrono::steady_clock::time_point start_time_;
  /// Re-runs crash-recovered journal entries; joined before the pool dies.
  std::thread replay_thread_;

  mutable std::mutex mutex_;  ///< admission state + counters
  std::size_t waiting_ = 0;
  std::size_t in_flight_ = 0;
  /// Requests executing right now, keyed by a per-job id (registry for the
  /// status report's per-request ages).
  struct InFlightJob {
    std::string fingerprint;
    std::chrono::steady_clock::time_point started;
  };
  std::uint64_t next_job_id_ = 0;
  std::map<std::uint64_t, InFlightJob> in_flight_jobs_;
  bool draining_ = false;
  std::uint64_t requests_total_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t cancelled_ = 0;

  /// Serializes appends and compactions. A compaction snapshots the cache
  /// while holding it, so a result inserted before the snapshot is in the
  /// rewrite and one inserted after is appended to the new file.
  mutable std::mutex persist_mutex_;
  RecordAppender persist_log_;
  /// Verified records in the database file, live and dead.
  std::size_t persist_records_ = 0;
  /// The file needs a rewrite: set at startup (v1, skipped lines or dead
  /// records) and by a failed compaction, which the next miss retries.
  bool persist_dirty_ = false;
  std::uint64_t persist_loaded_ = 0;
  std::uint64_t persist_skipped_ = 0;
  std::uint64_t persist_saves_ = 0;
  std::uint64_t persist_compactions_ = 0;
  std::uint64_t persist_save_failures_ = 0;
};

}  // namespace rdse::serve
