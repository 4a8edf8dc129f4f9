#ifndef MVIEW_UTIL_ARENA_H_
#define MVIEW_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace mview::util {

/// Usage counters of one `Arena`; the differential maintainer surfaces them
/// per view through `MaintenanceStats` / `SHOW STATS [JSON]` / Prometheus.
struct ArenaStats {
  int64_t allocations = 0;     // Allocate calls since construction
  int64_t bytes_allocated = 0; // bytes handed out since construction
  int64_t resets = 0;          // Reset calls (one per maintenance round)
  int64_t blocks = 0;          // gauge: blocks currently owned
  int64_t bytes_reserved = 0;  // gauge: block bytes currently owned
  int64_t high_water = 0;      // max bytes live between two Resets
};

/// A bump-pointer allocation arena for per-maintenance-round scratch memory.
///
/// The columnar batch pipeline (`src/ra/batch.h`) allocates its column
/// vectors and selection vectors here instead of the heap: a maintenance
/// round performs thousands of small, identically-scoped allocations whose
/// lifetimes all end when the round's delta has been emitted, which is the
/// textbook arena workload.  `Reset()` recycles every block in O(#blocks)
/// without touching the heap, so steady-state rounds allocate from memory
/// that is already hot in cache.  Full evaluations and ad-hoc queries use
/// an arena local to the call.
///
/// Poisoning: under AddressSanitizer the unused tail of every block — and,
/// after `Reset()`, the entire recycled block — is poisoned, so a batch or
/// selection vector that outlives its round (use-after-round-reset) aborts
/// with an ASan report instead of silently reading recycled rows.  The
/// `batch`-labelled tests exercise this contract.
///
/// Fault injection: every allocation passes the `ra.batch.alloc` point, so
/// the chaos matrix can simulate scratch-memory exhaustion mid-round; the
/// thrown error unwinds the round and quarantines the view instead of
/// corrupting it, or fails the full evaluation (view creation, REPAIR)
/// that was allocating.
///
/// Thread-safety: none.  Each `DifferentialMaintainer` owns one arena and
/// the commit pipeline runs at most one worker per view per commit.
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = size_t{64} << 10;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align` (a power
  /// of two ≤ alignof(std::max_align_t)).  The storage stays valid until
  /// the next `Reset()`.  Never returns null; throws `std::bad_alloc` when
  /// the heap refuses a new block.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed convenience: uninitialized array of `n` trivially-destructible
  /// `T`s (the arena never runs destructors).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Ends the round: every block is recycled (and poisoned under ASan) but
  /// stays owned, so the next round's allocations reuse the same memory.
  /// All pointers previously handed out become invalid.
  void Reset();

  /// Bytes handed out since the last `Reset` (the current round's live
  /// scratch footprint).
  size_t bytes_used() const { return bytes_used_; }

  const ArenaStats& stats() const { return stats_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  /// Makes `blocks_[next_block_]` a block with ≥ `min_bytes` free.
  Block& GrowBlock(size_t min_bytes);

  const size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t next_block_ = 0;  // blocks_[next_block_-1] is the active block
  size_t bytes_used_ = 0;
  ArenaStats stats_;
};

}  // namespace mview::util

#endif  // MVIEW_UTIL_ARENA_H_
