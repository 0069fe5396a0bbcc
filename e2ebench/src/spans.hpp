#pragma once
/// \file spans.hpp
/// \brief In-memory spans recorded by the benchmark around its calls into
/// each rdse layer, and the self-time arithmetic over them.
///
/// A span is (name, start, end, parent, job): `job` is the exploration or
/// request every span of one operation shares. Each worker thread records
/// into its own SpanBuffer with buffer-local ids; the Tracer merges finished
/// buffers under one lock, re-basing the ids, and writes everything out as
/// CSV when the run ends.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {
[[nodiscard]] inline std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace detail

/// CPU time of the calling thread. The kernel does not count time the
/// thread waited for a CPU, including time the hypervisor gave the virtual
/// CPU to someone else, so on a shared host it measures the work done, not
/// the contention.
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  return detail::clock_ns(CLOCK_THREAD_CPUTIME_ID);
}
/// CPU time of the whole process (every thread), same accounting.
[[nodiscard]] inline std::int64_t process_cpu_ns() {
  return detail::clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< static string: the layer call it wraps
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;  ///< index into the same span list
  std::uint64_t job = 0;
};

/// One thread's spans; ids are indices into `spans`.
class SpanBuffer {
 public:
  /// Open a span starting now; close it with close().
  std::int32_t open(const char* name, std::int32_t parent, std::uint64_t job);
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  /// Record a span whose times were already taken.
  std::int32_t add(const char* name, std::int32_t parent, std::uint64_t job,
                   std::int64_t start_ns, std::int64_t end_ns);
  [[nodiscard]] std::vector<Span> take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
};

/// The run's span store (thread-safe). Keeps at most `capacity` spans; a
/// buffer that does not fit is dropped whole (so parent links never dangle)
/// and counted.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : capacity_(capacity) {}
  void merge(SpanBuffer& buffer);
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Write "id,parent,job,name,start_ns,end_ns" lines; false on I/O error.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent, so
/// overlapping children — concurrent sub-calls — are not subtracted twice).
[[nodiscard]] std::vector<std::int64_t> self_times(std::span<const Span> spans);

struct LayerTime {
  std::int64_t total_ns = 0;  ///< summed span durations
  std::int64_t self_ns = 0;   ///< summed self times
  std::int64_t count = 0;     ///< spans
};

/// Per-name totals over a span list.
[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    std::span<const Span> spans);

}  // namespace e2e
