#pragma once
/// \file cancel.hpp
/// \brief Cooperative cancellation: an atomic stop flag plus an optional
/// wall-clock deadline, checked by the engines at iteration granularity.
///
/// A CancelToken is owned by the request issuer (the serve front door, a
/// CLI driver, a test) and threaded *by pointer* through the configuration
/// structs (AnnealConfig, GaConfig, and MapperConfig — the base that
/// ExplorerConfig and ParallelExplorerConfig inherit `cancel` from). The
/// engines poll it between iterations — never mid-evaluation — and bail
/// out by throwing Cancelled, which unwinds through the thread-pool job
/// barrier to the caller. Throwing (instead of returning partial results)
/// is what guarantees the serve layer's contract: a deadline-expired run
/// produces a deterministic error response, never a partial payload.
///
/// The token is thread-safe: many worker threads may poll one token while
/// another thread cancels it. A null token pointer means "never cancelled"
/// everywhere, so existing call sites pay one branch.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/assert.hpp"

namespace rdse {

/// Thrown by the engines when a CancelToken fires mid-run. Derives from
/// Error so existing catch sites report it as a normal failure; the message
/// is deterministic ("deadline exceeded" or "cancelled") so responses built
/// from it are reproducible.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what) : Error(what) {}
};

class CancelToken {
 public:
  CancelToken() = default;

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation (sticky; reason() becomes "cancelled" unless a
  /// deadline already expired).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm a deadline `ms` milliseconds from now (steady clock). A
  /// non-positive duration expires immediately.
  void set_deadline_after_ms(std::int64_t ms) {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
    deadline_ns_.store(now_ns + ms * 1'000'000, std::memory_order_relaxed);
  }

  /// True once cancel() was called or the armed deadline passed. Reading
  /// the clock only when a deadline is armed keeps the unarmed path to one
  /// relaxed atomic load.
  [[nodiscard]] bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == 0) return false;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >=
           deadline;
  }

  /// True when the armed deadline (if any) has passed, regardless of the
  /// explicit flag.
  [[nodiscard]] bool deadline_expired() const {
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == 0) return false;
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count() >=
           deadline;
  }

  /// The deterministic message Cancelled carries for this token's state.
  [[nodiscard]] const char* reason() const {
    return deadline_expired() ? "deadline exceeded" : "cancelled";
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
};

/// The engines' polling helper: no-op on null, throws Cancelled once the
/// token fires.
inline void throw_if_cancelled(const CancelToken* token) {
  if (token != nullptr && token->cancelled()) {
    throw Cancelled(token->reason());
  }
}

}  // namespace rdse
