// Footprint regression test for the row representation: counts the heap
// blocks and bytes a stored row costs, through a replaced global
// `operator new`.  Every base relation, view and epoch spare holds its rows
// this way, so bytes per row is what the engine pays to keep the paper's
// state.  The bounds sit between the 16-byte `Value` / exact-size `Tuple`
// layout and the 40-byte `std::variant` values in a `std::vector` it
// replaced (about 216 and 184 bytes per row in the two cases below).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace {

std::atomic<int64_t> blocks_requested{0};
std::atomic<int64_t> bytes_requested{0};

}  // namespace

// Out of line, so the compiler never pairs an inlined `free` with a `new`.
[[gnu::noinline]] void* operator new(std::size_t size) {
  blocks_requested.fetch_add(1, std::memory_order_relaxed);
  bytes_requested.fetch_add(static_cast<int64_t>(size),
                            std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mview {
namespace {

constexpr int64_t kRows = 20000;

struct Footprint {
  double blocks_per_row = 0;
  double bytes_per_row = 0;
};

// What `store` requests from the allocator, per row, for `kRows` rows.
// The rows are built before counting starts, so only the stored copies
// (container nodes, value arrays, bucket arrays) are counted.
template <typename Store>
Footprint Measure(const std::vector<Tuple>& rows, Store&& store) {
  const int64_t blocks0 = blocks_requested.load();
  const int64_t bytes0 = bytes_requested.load();
  for (const Tuple& row : rows) store(row);
  Footprint f;
  f.blocks_per_row =
      static_cast<double>(blocks_requested.load() - blocks0) / rows.size();
  f.bytes_per_row =
      static_cast<double>(bytes_requested.load() - bytes0) / rows.size();
  return f;
}

std::vector<Tuple> IntRows(size_t arity) {
  std::vector<Tuple> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    std::vector<Value> values;
    for (size_t a = 0; a < arity; ++a) {
      values.emplace_back(i * 7 + static_cast<int64_t>(a));
    }
    rows.emplace_back(std::move(values));
  }
  return rows;
}

TEST(FootprintTest, FourIntBaseRowCostsOneNodeAndOneExactArray) {
  Relation relation(Schema::OfInts({"a", "b", "c", "d"}));
  const std::vector<Tuple> rows = IntRows(4);
  Footprint f = Measure(rows, [&](const Tuple& t) { relation.Insert(t); });
  ASSERT_EQ(relation.size(), static_cast<size_t>(kRows));
  // A node (link, 16-byte tuple, cached hash: 32 B) and a 64 B array, plus
  // the bucket arrays' amortized share: 112 B measured.
  EXPECT_LE(f.blocks_per_row, 2.01);
  EXPECT_LE(f.bytes_per_row, 128.0);
  RecordProperty("bytes_per_row", std::to_string(f.bytes_per_row));
}

TEST(FootprintTest, ThreeIntViewRowCostsOneNodeAndOneExactArray) {
  CountedRelation view(Schema::OfInts({"a", "b", "c"}));
  const std::vector<Tuple> rows = IntRows(3);
  Footprint f = Measure(rows, [&](const Tuple& t) { view.Add(t, 2); });
  ASSERT_EQ(view.size(), static_cast<size_t>(kRows));
  // A node (link, tuple, count, cached hash: 40 B) and a 48 B array, plus
  // the bucket arrays' amortized share: 104 B measured.
  EXPECT_LE(f.blocks_per_row, 2.01);
  EXPECT_LE(f.bytes_per_row, 120.0);
  RecordProperty("bytes_per_row", std::to_string(f.bytes_per_row));
}

}  // namespace
}  // namespace mview
