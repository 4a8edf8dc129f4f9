// Footprint regression tests.
//
// The row representation: counts the heap blocks and bytes a stored row
// costs, through a replaced global `operator new`.  Every base relation,
// view and epoch spare holds its rows this way, so bytes per row is what
// the engine pays to keep the paper's state.  The bounds sit between the
// 16-byte `Value` / exact-size `Tuple` layout and the 40-byte
// `std::variant` values in a `std::vector` it replaced (about 216 and 184
// bytes per row in the two cases below).
//
// The maintenance scratch: a round that moves a handful of delta rows keeps
// its arena within one block, because column batches start at 16 rows and
// grow with the rows in flight.  A single 1024-row batch of the 3-way
// join's 11 combined columns would take about 96 KiB.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "sql/engine.h"
#include "util/arena.h"

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

// Small commits against a 3-way join with an `x > y + c` atom and a
// 4-partition join: every round's scratch must fit one arena block per
// arena, however many rounds ran before.
TEST(ScratchFootprintTest, SmallCommitsKeepScratchWithinOneBlockPerArena) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE customers (cid INT64, region INT64, tier INT64);"
      "CREATE TABLE orders (oid INT64, cid INT64, amt INT64, status INT64);"
      "CREATE TABLE items (iid INT64, oid INT64, qty INT64, price INT64);");
  std::string load;
  for (int64_t c = 0; c < 200; ++c) {
    load += "INSERT INTO customers VALUES (" + std::to_string(c) + ", " +
            std::to_string(c % 7) + ", " + std::to_string(c % 3) + ");";
  }
  for (int64_t o = 0; o < 1000; ++o) {
    load += "INSERT INTO orders VALUES (" + std::to_string(o) + ", " +
            std::to_string(o % 200) + ", " + std::to_string(o * 37 % 5000) +
            ", " + std::to_string(o % 5) + ");";
  }
  for (int64_t i = 0; i < 2000; ++i) {
    load += "INSERT INTO items VALUES (" + std::to_string(i) + ", " +
            std::to_string(i % 1000) + ", " + std::to_string(i % 9 + 1) +
            ", " + std::to_string(i * 53 % 9000) + ");";
  }
  engine.ExecuteScript(load);
  engine.ExecuteScript(
      "CREATE MATERIALIZED VIEW v_join3 AS SELECT items.iid, orders.oid, "
      "customers.region FROM items, orders, customers "
      "WHERE items.oid = orders.oid AND orders.cid = customers.cid "
      "AND items.price > orders.amt + 2000;"
      "CREATE MATERIALIZED VIEW v_part PARTITIONS 4 AS SELECT items.iid, "
      "items.qty, orders.cid FROM items, orders "
      "WHERE items.oid = orders.oid;");

  for (int64_t k = 0; k < 50; ++k) {
    const std::string oid = std::to_string(1000 + k);
    const std::string iid = std::to_string(2000 + 2 * k);
    const std::string iid2 = std::to_string(2001 + 2 * k);
    engine.ExecuteScript(
        "BEGIN;"
        "INSERT INTO orders VALUES (" + oid + ", " + std::to_string(k * 3) +
        ", " + std::to_string(k * 11) + ", 1);"
        "INSERT INTO items VALUES (" + iid + ", " + oid + ", 2, 7000), (" +
        iid2 + ", " + std::to_string(k * 17) + ", 1, 8500);"
        "DELETE FROM items WHERE iid = " + std::to_string(k * 31) + ";"
        "COMMIT;");
  }

  constexpr int64_t kBlock = util::Arena::kDefaultBlockBytes;
  const struct {
    const char* view;
    int64_t arenas;
  } cases[] = {{"v_join3", 1}, {"v_part", 4}};
  for (const auto& c : cases) {
    const ViewInfo info = engine.views().Describe(c.view);
    EXPECT_EQ(info.stats.transactions, 50) << c.view;
    EXPECT_GT(info.stats.batch_rows, 0) << c.view;
    EXPECT_LE(info.stats.arena_bytes, c.arenas * kBlock) << c.view;
    EXPECT_LE(info.stats.arena_high_water, 2 * kBlock) << c.view;
    RecordProperty(std::string(c.view) + "_arena_bytes",
                   std::to_string(info.stats.arena_bytes));
    RecordProperty(std::string(c.view) + "_arena_high_water",
                   std::to_string(info.stats.arena_high_water));
  }
}

}  // namespace
}  // namespace mview
