#ifndef MVIEW_OBS_TRACE_H_
#define MVIEW_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mview::obs {

/// One completed span, snapshotted out of the ring buffers.
struct TraceEvent {
  std::string name;         // interned span name ("commit", "wal_fsync", …)
  std::string thread_name;  // "" when the thread never named itself
  int64_t tid = 0;          // OS thread id (gettid)
  int64_t start_nanos = 0;  // steady-clock timestamp (Stopwatch::NowNanos)
  int64_t dur_nanos = 0;
  std::string arg_name;     // optional counter attached to the span
  int64_t arg = 0;
};

/// Process-global span recorder.
///
/// Design constraints, in order:
///  1. Disabled cost is one relaxed atomic load and a branch — the
///     `TraceSpan` constructor does nothing else when tracing is off.
///  2. Enabled recording never takes a lock after a thread's first span.
///     Each thread writes completed spans into its own fixed-capacity ring
///     buffer whose slots are made entirely of relaxed
///     `std::atomic<uint64_t>` fields guarded by a per-slot seqlock
///     generation counter: the single owning thread writes (odd seq →
///     fields → even seq, release), readers validate the generation and
///     drop torn slots.  The ring overwrites its oldest entries.
///  3. Exports are crash-consistent snapshots: `Snapshot()` walks every
///     registered buffer under the registry mutex without stopping writers.
///
/// Rings follow the threads that record.  A thread's ring is allocated
/// (and registered, under the mutex) by its first recorded span, so a
/// thread that never records while tracing is on costs nothing.  When a
/// thread with a ring exits, its spans newer than the last `Clear()` move
/// into one shared ring of `kSlotCapacity` slots for exited threads
/// (keeping tid and thread name) and its own ring is freed.  Tracer memory
/// is bounded by (live threads that have recorded + 1) rings of
/// `kSlotCapacity` × 40 B.
///
/// Span *names* are interned once per call site
/// (`static const uint32_t id = Tracer::Global().InternName("x");`) so the
/// hot path records two 32-bit ids, two timestamps, and one argument —
/// never a string.
///
/// `Clear()` does not reset the rings (a foreign thread resetting a ring
/// head would race with its owner); it advances an epoch timestamp and
/// snapshots filter out spans that started before it.
class Tracer {
 public:
  /// Spans each ring can hold before it wraps (power of two).
  static constexpr size_t kSlotCapacity = 8192;

  /// The rings the tracer holds: one per live thread that has recorded a
  /// span, plus the shared ring of exited threads' spans (0 until a thread
  /// exits with spans newer than the last `Clear()`, then 1).
  struct RingCounts {
    size_t live = 0;
    size_t retired = 0;
  };

  static Tracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Discards all recorded spans (epoch-based; see class comment).
  void Clear();

  /// Returns a stable id for `name` (id 0 is reserved for "no name").
  /// Takes the registry mutex — intern once per call site, not per record.
  uint32_t InternName(const std::string& name);

  /// Records one completed span into the calling thread's ring buffer.
  /// Lock-free once the thread has a ring (its first span allocates and
  /// registers one); safe from any thread, including WAL leader and pool
  /// workers.  `arg_name_id` 0 means no argument.
  void Record(uint32_t name_id, int64_t start_nanos, int64_t dur_nanos,
              uint32_t arg_name_id = 0, int64_t arg = 0);

  /// Labels the calling thread in exports ("engine", "pool-worker-3", …).
  /// Allocates no ring: the label is applied when the thread's first span
  /// creates its ring, or at once (under the registry mutex) if it has one.
  void SetCurrentThreadName(const std::string& name);

  /// All spans recorded since the last `Clear()`, sorted by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// The snapshot in Chrome `trace_event` JSON (the `{"traceEvents": […]}`
  /// object form): "X" complete events with microsecond ts/dur plus "M"
  /// thread_name metadata, loadable in chrome://tracing and Perfetto.
  std::string ExportChromeJson() const;

  RingCounts ring_counts() const;

 private:
  struct Slot {
    // Seqlock generation: 2h+1 while the owner writes slot for the h-th
    // push, 2h+2 once complete.  All fields relaxed atomics — the seqlock
    // only guards against *torn logical reads* (fields from two pushes),
    // not data races, which relaxed atomics already preclude.
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> start_nanos{0};
    std::atomic<int64_t> dur_nanos{0};
    std::atomic<uint64_t> ids{0};  // name_id << 32 | arg_name_id
    std::atomic<int64_t> arg{0};
  };

  struct ThreadBuffer {
    explicit ThreadBuffer(int64_t os_tid) : tid(os_tid) {}
    std::vector<Slot> slots{kSlotCapacity};
    std::atomic<uint64_t> head{0};  // monotonic push count
    const int64_t tid;
    std::string thread_name;  // written and read under Tracer::mu_
  };

  // One exited thread's span in the shared retired ring.  Written and read
  // under `mu_` only, so plain fields; the same 40 B as a `Slot`.
  struct RetiredSlot {
    int64_t start_nanos = 0;
    int64_t dur_nanos = 0;
    uint64_t ids = 0;  // as in Slot
    int64_t arg = 0;
    int32_t tid = 0;
    uint32_t thread_name_id = 0;  // interned like span names
  };

  // The calling thread's label; its destructor retires the thread's ring.
  struct ThreadState;

  Tracer() = default;

  static ThreadState& ThisThread();
  // The calling thread's ring, null before its first span.  Trivially
  // destructible, so `Record` finds it with one thread-local load.
  static thread_local ThreadBuffer* this_thread_ring_;

  ThreadBuffer* CreateRingForThisThread();
  void Retire(ThreadBuffer* ring);
  uint32_t InternNameLocked(const std::string& name);

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> clear_epoch_nanos_{0};
  std::vector<std::unique_ptr<ThreadBuffer>> rings_;    // under mu_
  std::vector<RetiredSlot> retired_;  // under mu_; empty or kSlotCapacity
  uint64_t retired_head_ = 0;         // under mu_; monotonic push count
  std::unordered_map<std::string, uint32_t> name_ids_;  // under mu_
  std::vector<std::string> names_{""};                  // under mu_; id 0 = ""
};

/// RAII span: captures the start timestamp if tracing is enabled at
/// construction and records on destruction.  Cheap to place on the hot
/// path — disabled cost is the enabled() branch.
class TraceSpan {
 public:
  explicit TraceSpan(uint32_t name_id);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Attaches one named counter (delta rows, batch size, …) to the span.
  void SetArg(uint32_t arg_name_id, int64_t value) {
    arg_name_id_ = arg_name_id;
    arg_ = value;
  }

  /// Ends the span now, recording it; the destructor becomes a no-op.
  /// Useful when a span's extent is narrower than its enclosing scope.
  void End();

  bool active() const { return active_; }

 private:
  bool active_;
  uint32_t name_id_ = 0;
  uint32_t arg_name_id_ = 0;
  int64_t start_nanos_ = 0;
  int64_t arg_ = 0;
};

}  // namespace mview::obs

#endif  // MVIEW_OBS_TRACE_H_
