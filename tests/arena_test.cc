// The per-round bump arena behind the columnar batch pipeline: alignment,
// block recycling, stats, and — under AddressSanitizer — the poisoning
// contract that a pointer outliving its round aborts instead of reading
// recycled memory.

#include <gtest/gtest.h>

#include <cstdint>

#include "util/arena.h"

namespace mview::util {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDistinct) {
  Arena arena;
  void* a = arena.Allocate(1);
  void* b = arena.Allocate(1);
  EXPECT_NE(a, b);
  int64_t* ints = arena.AllocateArray<int64_t>(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ints) % alignof(int64_t), 0u);
  for (size_t i = 0; i < 100; ++i) ints[i] = static_cast<int64_t>(i);
  EXPECT_EQ(ints[99], 99);
  uint32_t* sel = arena.AllocateArray<uint32_t>(7);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(sel) % alignof(uint32_t), 0u);
}

TEST(ArenaTest, ZeroByteAllocationsStayDistinct) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0), arena.Allocate(0));
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnBlock) {
  Arena arena(/*block_bytes=*/128);
  char* big = arena.AllocateArray<char>(1 << 16);
  big[0] = 'x';
  big[(1 << 16) - 1] = 'y';
  EXPECT_GE(arena.stats().bytes_reserved, int64_t{1} << 16);
}

TEST(ArenaTest, ResetRecyclesBlocksWithoutNewReservation) {
  Arena arena(/*block_bytes=*/1024);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) arena.AllocateArray<int64_t>(8);
    arena.Reset();
  }
  const ArenaStats& stats = arena.stats();
  EXPECT_EQ(stats.resets, 4);
  // Steady state: every round after the first reuses round one's blocks.
  const int64_t reserved_after_warmup = stats.bytes_reserved;
  const int64_t blocks_after_warmup = stats.blocks;
  for (int i = 0; i < 64; ++i) arena.AllocateArray<int64_t>(8);
  EXPECT_EQ(arena.stats().bytes_reserved, reserved_after_warmup);
  EXPECT_EQ(arena.stats().blocks, blocks_after_warmup);
}

TEST(ArenaTest, StatsTrackUsageAndHighWater) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.Allocate(100);
  arena.Allocate(50);
  EXPECT_EQ(arena.bytes_used(), 150u);
  EXPECT_EQ(arena.stats().allocations, 2);
  EXPECT_EQ(arena.stats().bytes_allocated, 150);
  EXPECT_EQ(arena.stats().high_water, 150);
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.Allocate(10);
  // High water persists across resets (largest round so far).
  EXPECT_EQ(arena.stats().high_water, 150);
}

#if defined(__SANITIZE_ADDRESS__)
#define MVIEW_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MVIEW_TEST_ASAN 1
#endif
#endif

#ifdef MVIEW_TEST_ASAN
// The poisoning contract the batch pipeline relies on: arena memory read
// after the round's Reset is a use-after-round-reset and must abort with
// an ASan report, not silently yield recycled rows.
TEST(ArenaAsanDeathTest, UseAfterRoundResetAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena;
        int64_t* column = arena.AllocateArray<int64_t>(16);
        column[0] = 42;
        arena.Reset();
        // Read from the previous round's scratch — poisoned by Reset.
        volatile int64_t leak = column[0];
        (void)leak;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace mview::util
