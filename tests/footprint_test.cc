// Footprint regression tests.
//
// The row store: a stored row lives in a slot of its relation's own
// memory — chunks and tables the store maps itself once they pass 16 KiB,
// and a few small first blocks from `operator new` — so a row costs no
// heap block of its own.  These tests count the process's mapped bytes
// and the blocks and bytes requested through a replaced global
// `operator new`.  Every base relation, view and
// epoch spare holds its rows this way, so bytes per row is what the engine
// pays to keep the paper's state.  The `std::unordered_*` layout this
// replaced cost two heap blocks per row: 144 B (base) and 128 B (view) in
// glibc chunks for the rows below.
//
// The maintenance scratch: a round that moves a handful of delta rows keeps
// its arena within one block, because column batches start at 16 rows and
// grow with the rows in flight.  A single 1024-row batch of the 3-way
// join's 11 combined columns would take about 96 KiB.
//
// The maintainer's state: a view whose join has a cross-join step reads the
// clean base in place at that step, so what its maintainer holds between
// commits does not grow with the base.
//
// The per-round join tables: a table indexes the rows its input streams in
// place (row pointers, a chain-head table and chain links), so hashing a
// row takes no heap block of its own.  A table of owning tuple copies
// keyed through a node-based map took three blocks per hashed row.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "db/transaction.h"
#include "ivm/differential.h"
#include "ivm/view_manager.h"
#include "predicate/parser.h"
#include "ra/input.h"
#include "ra/planner.h"
#include "relational/relation.h"
#include "relational/row_store.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "sql/engine.h"
#include "util/arena.h"

namespace {

std::atomic<int64_t> blocks_requested{0};
std::atomic<int64_t> bytes_requested{0};
// Usable bytes of the blocks `operator new` handed out and that are not yet
// deleted.
std::atomic<int64_t> bytes_live{0};

void Release(void* p) {
  if (p == nullptr) return;
  bytes_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Out of line, so the compiler never pairs an inlined `free` with a `new`.
[[gnu::noinline]] void* operator new(std::size_t size) {
  blocks_requested.fetch_add(1, std::memory_order_relaxed);
  bytes_requested.fetch_add(static_cast<int64_t>(size),
                            std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    bytes_live.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { Release(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  Release(p);
}

namespace mview {
namespace {

constexpr int64_t kRows = 20000;

struct Footprint {
  double blocks_per_row = 0;  // heap blocks requested
  double bytes_per_row = 0;   // heap bytes requested plus bytes mapped
};

// What `store` costs per row for `kRows` rows.  The rows are built before
// counting starts, so only the stored copies are counted.
template <typename Store>
Footprint Measure(const std::vector<Tuple>& rows, Store&& store) {
  const int64_t blocks0 = blocks_requested.load();
  const int64_t bytes0 = bytes_requested.load();
  const int64_t mapped0 = row_memory::MappedBytes();
  for (const Tuple& row : rows) store(row);
  Footprint f;
  f.blocks_per_row =
      static_cast<double>(blocks_requested.load() - blocks0) / rows.size();
  f.bytes_per_row = static_cast<double>(bytes_requested.load() - bytes0 +
                                        row_memory::MappedBytes() - mapped0) /
                    rows.size();
  return f;
}

std::vector<Tuple> IntRows(size_t arity, int64_t n = kRows) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (size_t a = 0; a < arity; ++a) {
      values.emplace_back(i * 7 + static_cast<int64_t>(a));
    }
    rows.emplace_back(std::move(values));
  }
  return rows;
}

TEST(FootprintTest, FourIntBaseRowTakesNoHeapBlockOfItsOwn) {
  Relation relation(Schema::OfInts({"a", "b", "c", "d"}));
  const std::vector<Tuple> rows = IntRows(4);
  Footprint f = Measure(rows, [&](const Tuple& t) { relation.Insert(t); });
  ASSERT_EQ(relation.size(), static_cast<size_t>(kRows));
  // An 80 B slot (16 B header, four 16 B values), plus the slack of the
  // last chunk and the lookup table's 5 B entries: 93 B measured.
  EXPECT_LE(f.blocks_per_row, 0.01);
  EXPECT_LE(f.bytes_per_row, 96.0);
  const RowStoreBytes bytes = relation.memory();
  EXPECT_EQ(bytes.live, 80 * kRows);
  EXPECT_GT(bytes.mapped, 0);
  RecordProperty("bytes_per_row", std::to_string(f.bytes_per_row));
  RecordProperty("blocks_per_row", std::to_string(f.blocks_per_row));
}

TEST(FootprintTest, ThreeIntViewRowTakesNoHeapBlockOfItsOwn) {
  CountedRelation view(Schema::OfInts({"a", "b", "c"}));
  const std::vector<Tuple> rows = IntRows(3);
  Footprint f = Measure(rows, [&](const Tuple& t) { view.Add(t, 2); });
  ASSERT_EQ(view.size(), static_cast<size_t>(kRows));
  // A 72 B slot (header, 8 B count, three values) plus the same slack and
  // table share: 85 B measured.
  EXPECT_LE(f.blocks_per_row, 0.01);
  EXPECT_LE(f.bytes_per_row, 88.0);
  EXPECT_EQ(view.memory().live, 72 * kRows);
  RecordProperty("bytes_per_row", std::to_string(f.bytes_per_row));
  RecordProperty("blocks_per_row", std::to_string(f.blocks_per_row));
}

// A relation's rows may be inserted by one thread (a pool worker, a
// connection) and dropped by another (a reopen): its mapped chunks and
// tables go back to the system either way, not into some thread's arena.
TEST(FootprintTest, RelationFilledOnWorkersGivesBackEveryMappedByte) {
  const int64_t mapped0 = row_memory::MappedBytes();
  auto base = std::make_unique<Relation>(Schema::OfInts({"a", "b", "c", "d"}));
  base->CreateIndex("b");
  auto view = std::make_unique<CountedRelation>(Schema::OfInts({"a", "b"}));
  const std::vector<Tuple> rows = IntRows(4);
  constexpr int kWorkers = 4;
  for (int w = 0; w < kWorkers; ++w) {
    // One worker at a time: a relation has a single writer.
    std::thread([&, w] {
      for (size_t i = w; i < rows.size(); i += kWorkers) {
        base->Insert(rows[i]);
        view->Add(Tuple{rows[i].at(0), rows[i].at(1)}, 1);
      }
    }).join();
  }
  ASSERT_EQ(base->size(), static_cast<size_t>(kRows));
  const int64_t mapped = row_memory::MappedBytes() - mapped0;
  EXPECT_EQ(mapped, base->memory().mapped + view->memory().mapped);
  EXPECT_GT(base->memory().mapped, 0);
  EXPECT_GT(view->memory().mapped, 0);
  std::thread([&] {
    base.reset();
    view.reset();
  }).join();
  EXPECT_EQ(row_memory::MappedBytes(), mapped0);
}

TEST(FootprintTest, SmallRelationsMapNothing) {
  const int64_t mapped0 = row_memory::MappedBytes();
  Relation base(Schema::OfInts({"a", "b", "c", "d"}));
  base.CreateIndex("a");
  CountedRelation view(Schema::OfInts({"a", "b", "c"}));
  for (const Tuple& t : IntRows(4, 64)) {
    base.Insert(t);
    view.Add(Tuple{t.at(0), t.at(1), t.at(2)}, 1);
  }
  EXPECT_EQ(base.memory().mapped, 0);
  EXPECT_EQ(view.memory().mapped, 0);
  EXPECT_EQ(row_memory::MappedBytes(), mapped0);
  // Emptied by erases, a large relation keeps its chunks for reuse until it
  // is cleared.
  CountedRelation big(Schema::OfInts({"a"}));
  for (int64_t i = 0; i < kRows; ++i) big.Add(Tuple{Value(i)}, 1);
  EXPECT_GT(big.memory().mapped, 0);
  for (int64_t i = 0; i < kRows; ++i) big.Add(Tuple{Value(i)}, -1);
  EXPECT_TRUE(big.empty());
  EXPECT_GT(big.memory().mapped, 0);
  big.Clear();
  EXPECT_EQ(big.memory().mapped, 0);
  EXPECT_EQ(row_memory::MappedBytes(), mapped0);
}

// Heap bytes held through `operator new` plus bytes the row stores map.
int64_t HeldBytes() {
  return bytes_live.load() + row_memory::MappedBytes();
}

// A 2-way inequality join over a 20 000-row base, maintained through 20
// one-row commits to its other base.  Each commit's differential row meets
// the clean base at a cross-join step; reading it there in place leaves the
// maintainer holding its fixed scratch (one 64 KiB arena block) and
// nothing per base row.  A copy of the base's rows kept for that step
// (tuples plus an int mirror, ~160 B a row) would hold about 3.2 MB.
TEST(FootprintTest, CrossJoinViewHoldsNothingThatGrowsWithItsBase) {
  Database db;
  Relation& r = db.CreateRelation("r", Schema::OfInts({"r_a", "r_b"}));
  for (const Tuple& t : IntRows(2)) r.Insert(t);  // r_a = 7i, r_b = 7i + 1
  db.CreateRelation("s", Schema::OfInts({"s_a", "s_b"}));
  const ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                           "r_a > s_a + 3", {"r_a", "s_b"});
  const int64_t held0 = HeldBytes();
  DifferentialMaintainer m(def, &db);
  CountedRelation view = m.FullEvaluate();
  for (int64_t i = 0; i < 20; ++i) {
    // Each s row joins the ten largest r rows, so the view stays small.
    Transaction txn;
    txn.Insert("s", Tuple{Value(7 * (kRows - 10) - 4), Value(i)});
    TransactionEffect effect = txn.Normalize(db);
    ViewDelta delta = m.ComputeDelta(effect);
    effect.ApplyTo(&db);
    delta.ApplyTo(&view);
  }
  ASSERT_EQ(view.size(), 200u);
  // The view's own rows: 64 B slots, with their lookup table and slack
  // counted generously.
  const int64_t own = 2 * 64 * static_cast<int64_t>(view.size());
  const int64_t held = HeldBytes() - held0 - own;
  // Beyond the arena block, less than a byte per base row.
  constexpr int64_t kBlock = util::Arena::kDefaultBlockBytes;
  EXPECT_LT(held, kBlock + kRows) << "bytes held beyond the view's rows";
  RecordProperty("held_bytes", std::to_string(held));
}

// An ad-hoc 2-way equi join whose offset matches nothing: the 16-row side
// is scanned first and the 50 000-row side hashed, so the join table is
// all the evaluation builds beyond its fixed scratch.
TEST(JoinTableFootprintTest, HashedRowTakesNoHeapBlockOfItsOwn) {
  constexpr int64_t kHashed = 50000;
  Relation small(Schema::OfInts({"r_a", "r_b"}));
  for (const Tuple& t : IntRows(2, 16)) small.Insert(t);
  Relation large(Schema::OfInts({"s_a", "s_b"}));
  for (const Tuple& t : IntRows(2, kHashed)) large.Insert(t);
  FullRelationInput r(&small, small.schema());
  FullRelationInput s(&large, large.schema());
  const Condition cond = ParseCondition("r_a = s_a + 1000000000");
  SpjQuery q;
  q.inputs = {&r, &s};
  q.condition = &cond;
  CountedRelation out(CombinedSchema(q));
  PlanStats stats;
  const int64_t blocks0 = blocks_requested.load();
  EvaluateSpjInto(q, &out, 1, &stats);
  const double blocks_per_row =
      static_cast<double>(blocks_requested.load() - blocks0) / kHashed;
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.rows_scanned, 16 + kHashed);  // the scan, then the build
  EXPECT_LE(blocks_per_row, 0.01);
  RecordProperty("blocks_per_row", std::to_string(blocks_per_row));
}

// One maintenance round of an equi-join view whose transaction inserts one
// row into r and 50 000 into s.  The rows (i_r, i_s) and (r, i_s) both
// meet the large delta at a later join step, where it outgrows the rows in
// flight and has no index: the round hashes it once, in place.  None of
// its rows joins, so the view delta stays empty.  The irrelevance screen
// runs as at every commit and must not take a block per update either: it
// keeps every row here, so the round reads the effect's own relations.
// The round's fixed cost (schemas, scratch, the screen's survivor lists)
// is about 175 blocks, 0.0035 per delta row.
TEST(JoinTableFootprintTest, LargeDeltaAtLaterStepTakesNoBlockPerRow) {
  constexpr int64_t kDelta = 50000;
  Database db;
  Relation& r = db.CreateRelation("r", Schema::OfInts({"r_a", "r_b"}));
  Relation& s = db.CreateRelation("s", Schema::OfInts({"s_a", "s_b"}));
  for (const Tuple& t : IntRows(2, 100)) {
    r.Insert(t);
    s.Insert(t);
  }
  const ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                           "r_b = s_b", {"r_a", "s_a"});
  DifferentialMaintainer m(def, &db);
  Transaction txn;
  txn.Insert("r", Tuple{Value(-1), Value(-1)});
  for (int64_t i = 0; i < kDelta; ++i) {
    txn.Insert("s", Tuple{Value(1000000 + i), Value(1000000 + i)});
  }
  const TransactionEffect effect = txn.Normalize(db);
  MaintenanceStats stats;
  const int64_t blocks0 = blocks_requested.load();
  const ViewDelta delta = m.ComputeDelta(effect, &stats);
  const double blocks_per_row =
      static_cast<double>(blocks_requested.load() - blocks0) / kDelta;
  EXPECT_TRUE(delta.inserts.empty());
  EXPECT_TRUE(delta.deletes.empty());
  EXPECT_EQ(stats.rows_evaluated, 3);
  // Scans of i_r (twice) and r, and one build of i_s shared by two rows.
  EXPECT_EQ(stats.plan.rows_scanned, 1 + 1 + 100 + kDelta);
  EXPECT_LE(blocks_per_row, 0.01);
  RecordProperty("blocks_per_row", std::to_string(blocks_per_row));
}

// The ingest path builds each row once: the parser moves a row's values
// into the tuple the transaction carries, and the effect and the base copy
// it into their row stores' own memory.  So a bulk INSERT into a fresh
// table asks `operator new` for about one block per row, the rest being
// the statement's and the stores' amortized growth.  Parsing each row
// into a vector of values, copying it into a tuple and normalizing through
// a per-tuple overlay costs about six blocks a row; the bound of two
// catches any of those copies coming back.
TEST(FootprintTest, InsertBuildsEachRowOnce) {
  sql::Engine engine;
  engine.Execute("CREATE TABLE t (a INT64, b INT64, c INT64, d INT64)");
  constexpr int64_t kInsertRows = 500;
  std::string insert = "INSERT INTO t VALUES ";
  for (int64_t i = 0; i < kInsertRows; ++i) {
    if (i > 0) insert += ",";
    insert += "(" + std::to_string(i) + "," + std::to_string(i % 16) + "," +
              std::to_string(i * 37 % 10000) + "," + std::to_string(i % 8) +
              ")";
  }
  const int64_t blocks0 = blocks_requested.load();
  engine.Execute(insert);
  const double blocks_per_row =
      static_cast<double>(blocks_requested.load() - blocks0) / kInsertRows;
  ASSERT_EQ(engine.database().Get("t").size(),
            static_cast<size_t>(kInsertRows));
  EXPECT_LE(blocks_per_row, 2.0);
  RecordProperty("blocks_per_row", std::to_string(blocks_per_row));
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
