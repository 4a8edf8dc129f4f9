#ifndef MVIEW_UTIL_DEADLINE_H_
#define MVIEW_UTIL_DEADLINE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace mview::util {

/// Cooperative cancellation token: an optional absolute deadline plus a
/// force-cancel flag, polled at cheap checkpoints along the statement's
/// execution path.
///
/// The contract mirrors the fault registry's: the disabled cost of a poll
/// is a null-pointer branch (`if (cancel) cancel->Check()`), and an armed
/// token costs one `steady_clock::now()` per poll — poll points therefore
/// sit per *batch* / per *join step*, never per tuple.  `Check()` throws
/// `DeadlineExceededError`, and every poll point is placed where stack
/// unwinding restores all invariants: a maintenance round keeps nothing
/// between rounds but its scratch arena, prepared deltas are dropped before
/// any base or view buffer is touched, and the WAL has not yet logged the
/// commit.
/// The point of no return is the WAL append — after it, maintenance runs
/// to completion regardless of the token (`ViewManager::CommitPrepared`
/// never polls).
///
/// Thread-safety: `Cancel()` may race `Check()`/`Expired()` freely (the
/// flag is an atomic); the deadline itself is immutable after
/// construction.  The server's drain path shares one token per connection
/// and force-cancels it when the drain timeout lapses.
class Cancellation {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token with no deadline: only `Cancel()` can expire it.
  Cancellation() = default;

  /// A token that expires `timeout_ms` from now (<= 0 expires immediately).
  /// Timeouts beyond a century are clamped to one, so any int64 (a wire
  /// deadline prefix, say) stays inside the clock's range.
  static Cancellation After(int64_t timeout_ms) {
    constexpr int64_t kCenturyMs = int64_t{100} * 365 * 24 * 3600 * 1000;
    return Cancellation(Clock::now() + std::chrono::milliseconds(std::min(
                                           timeout_ms, kCenturyMs)));
  }

  explicit Cancellation(Clock::time_point deadline) : deadline_(deadline) {}

  /// Expires the token from another thread (drain force-cancel).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True when cancelled or past the deadline.  Does not throw.
  bool Expired() const {
    if (cancelled()) return true;
    return deadline_.has_value() && Clock::now() >= *deadline_;
  }

  /// Poll point body: throws `DeadlineExceededError` when expired.  Also a
  /// fault point ("cancel.poll") so tests can force an expiry at exactly
  /// the k-th poll of a statement and verify the unwind from every site.
  void Check() const;

  /// Milliseconds until the deadline (0 when expired, nullopt when none).
  std::optional<int64_t> RemainingMillis() const {
    if (!deadline_.has_value()) return std::nullopt;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    *deadline_ - Clock::now())
                    .count();
    return left > 0 ? left : 0;
  }

 private:
  std::optional<Clock::time_point> deadline_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace mview::util

#endif  // MVIEW_UTIL_DEADLINE_H_
