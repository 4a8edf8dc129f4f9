#include "util/arena.h"

#include <algorithm>
#include <cstdint>

#include "util/fault.h"

#if defined(__SANITIZE_ADDRESS__)
#define MVIEW_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MVIEW_ARENA_ASAN 1
#endif
#endif

#ifdef MVIEW_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define MVIEW_ARENA_POISON(ptr, size) __asan_poison_memory_region(ptr, size)
#define MVIEW_ARENA_UNPOISON(ptr, size) \
  __asan_unpoison_memory_region(ptr, size)
#else
#define MVIEW_ARENA_POISON(ptr, size) ((void)(ptr), (void)(size))
#define MVIEW_ARENA_UNPOISON(ptr, size) ((void)(ptr), (void)(size))
#endif

namespace mview::util {

Arena::Arena(size_t block_bytes) : block_bytes_(block_bytes) {}

Arena::~Arena() {
  // Unpoison before the unique_ptrs free: the allocator may legally touch
  // the bytes it hands back.
  for (Block& b : blocks_) {
    MVIEW_ARENA_UNPOISON(b.data.get(), b.size);
  }
}

void* Arena::Allocate(size_t bytes, size_t align) {
  // The chaos matrix arms this point to simulate scratch-memory exhaustion
  // mid-round; the throw unwinds the round and quarantines the view (see
  // tests/chaos_matrix_test.cc).
  MVIEW_FAULT_POINT("ra.batch.alloc");
  if (bytes == 0) bytes = 1;  // keep returned pointers distinct
  Block* b = next_block_ == 0 ? nullptr : &blocks_[next_block_ - 1];
  size_t offset = 0;
  if (b != nullptr) {
    offset = (b->used + align - 1) & ~(align - 1);
    if (offset + bytes > b->size) b = nullptr;
  }
  if (b == nullptr) {
    b = &GrowBlock(bytes + align);
    offset = (b->used + align - 1) & ~(align - 1);
  }
  char* ptr = b->data.get() + offset;
  MVIEW_ARENA_UNPOISON(ptr, bytes);
  b->used = offset + bytes;
  bytes_used_ += bytes;
  ++stats_.allocations;
  stats_.bytes_allocated += static_cast<int64_t>(bytes);
  stats_.high_water =
      std::max(stats_.high_water, static_cast<int64_t>(bytes_used_));
  return ptr;
}

Arena::Block& Arena::GrowBlock(size_t min_bytes) {
  // Advance over already-owned blocks (recycled by Reset) until one is big
  // enough; append a fresh block only when none fits.
  while (next_block_ < blocks_.size()) {
    Block& candidate = blocks_[next_block_];
    ++next_block_;
    if (candidate.size - candidate.used >= min_bytes) return candidate;
  }
  Block fresh;
  fresh.size = std::max(block_bytes_, min_bytes);
  fresh.data = std::make_unique<char[]>(fresh.size);
  MVIEW_ARENA_POISON(fresh.data.get(), fresh.size);
  blocks_.push_back(std::move(fresh));
  ++next_block_;
  stats_.blocks = static_cast<int64_t>(blocks_.size());
  stats_.bytes_reserved += static_cast<int64_t>(blocks_.back().size);
  return blocks_.back();
}

void Arena::Reset() {
  for (Block& b : blocks_) {
    MVIEW_ARENA_POISON(b.data.get(), b.size);
    b.used = 0;
  }
  next_block_ = 0;
  bytes_used_ = 0;
  ++stats_.resets;
}

}  // namespace mview::util
