#include "db/transaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>

#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/error.h"
#include "util/random.h"

namespace mview {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::T;

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() {
    MakeRelation(&db_, "r", {"A", "B"}, {{1, 2}, {3, 4}});
    MakeRelation(&db_, "s", {"C"}, {{7}});
  }
  Database db_;
};

TEST_F(TransactionTest, DatabaseCatalog) {
  EXPECT_TRUE(db_.Exists("r"));
  EXPECT_FALSE(db_.Exists("x"));
  EXPECT_EQ(db_.Find("x"), nullptr);
  EXPECT_THROW(db_.Get("x"), Error);
  EXPECT_THROW(db_.CreateRelation("r", Schema::OfInts({"A"})), Error);
  EXPECT_EQ(db_.Names(), (std::vector<std::string>{"r", "s"}));
}

TEST_F(TransactionTest, SimpleInsertDelete) {
  Transaction txn;
  txn.Insert("r", T({5, 6})).Delete("r", T({1, 2}));
  TransactionEffect effect = txn.Normalize(db_);
  const RelationEffect* re = effect.Find("r");
  ASSERT_NE(re, nullptr);
  EXPECT_TRUE(re->inserts.Contains(T({5, 6})));
  EXPECT_TRUE(re->deletes.Contains(T({1, 2})));
  EXPECT_EQ(effect.TotalTuples(), 2u);
}

TEST_F(TransactionTest, InsertOfPresentTupleIsNoop) {
  Transaction txn;
  txn.Insert("r", T({1, 2}));
  EXPECT_TRUE(txn.Normalize(db_).Empty());
}

TEST_F(TransactionTest, DeleteOfAbsentTupleIsNoop) {
  Transaction txn;
  txn.Delete("r", T({9, 9}));
  EXPECT_TRUE(txn.Normalize(db_).Empty());
}

TEST_F(TransactionTest, InsertThenDeleteCancels) {
  // Section 5: "if a tuple not in the relation is inserted and then deleted
  // within a transaction, it is not represented at all".
  Transaction txn;
  txn.Insert("r", T({9, 9})).Delete("r", T({9, 9}));
  EXPECT_TRUE(txn.Normalize(db_).Empty());
}

TEST_F(TransactionTest, DeleteThenInsertOfExistingTupleCancels) {
  Transaction txn;
  txn.Delete("r", T({1, 2})).Insert("r", T({1, 2}));
  EXPECT_TRUE(txn.Normalize(db_).Empty());
}

TEST_F(TransactionTest, DeleteThenInsertOfAbsentTupleIsInsert) {
  Transaction txn;
  txn.Delete("r", T({9, 9})).Insert("r", T({9, 9}));
  TransactionEffect effect = txn.Normalize(db_);
  const RelationEffect* re = effect.Find("r");
  ASSERT_NE(re, nullptr);
  EXPECT_TRUE(re->inserts.Contains(T({9, 9})));
  EXPECT_TRUE(re->deletes.empty());
}

TEST_F(TransactionTest, NetEffectSetsAreDisjointFromBase) {
  // Invariants of Section 3: i ∩ r = ∅, d ⊆ r, i ∩ d = ∅.
  Transaction txn;
  txn.Insert("r", T({1, 2}))    // already present → no-op
      .Insert("r", T({8, 8}))   // new
      .Delete("r", T({3, 4}))   // present → delete
      .Delete("r", T({8, 8}))   // cancels the insert
      .Insert("r", T({8, 8}));  // reinstates the insert
  TransactionEffect effect = txn.Normalize(db_);
  const RelationEffect* re = effect.Find("r");
  ASSERT_NE(re, nullptr);
  re->inserts.Scan([&](const Tuple& t) {
    EXPECT_FALSE(db_.Get("r").Contains(t));
    EXPECT_FALSE(re->deletes.Contains(t));
  });
  re->deletes.Scan(
      [&](const Tuple& t) { EXPECT_TRUE(db_.Get("r").Contains(t)); });
  EXPECT_TRUE(re->inserts.Contains(T({8, 8})));
  EXPECT_TRUE(re->deletes.Contains(T({3, 4})));
}

TEST_F(TransactionTest, MultiRelationTransaction) {
  Transaction txn;
  txn.Insert("r", T({5, 6})).Insert("s", T({8}));
  TransactionEffect effect = txn.Normalize(db_);
  EXPECT_EQ(effect.TouchedRelations(),
            (std::vector<std::string>{"r", "s"}));
}

TEST_F(TransactionTest, ApplyToUpdatesDatabase) {
  Transaction txn;
  txn.Insert("r", T({5, 6})).Delete("r", T({1, 2}));
  txn.Normalize(db_).ApplyTo(&db_);
  EXPECT_TRUE(db_.Get("r").Contains(T({5, 6})));
  EXPECT_FALSE(db_.Get("r").Contains(T({1, 2})));
  EXPECT_EQ(db_.Get("r").size(), 2u);
}

TEST_F(TransactionTest, UnknownRelationThrows) {
  Transaction txn;
  txn.Insert("nope", T({1}));
  EXPECT_THROW(txn.Normalize(db_), Error);
}

TEST_F(TransactionTest, ArityMismatchThrows) {
  Transaction txn;
  txn.Insert("r", T({1}));
  EXPECT_THROW(txn.Normalize(db_), Error);
}

TEST_F(TransactionTest, BatchHelpers) {
  Transaction txn;
  txn.InsertAll("r", {T({10, 10}), T({11, 11})});
  txn.DeleteAll("r", {T({1, 2})});
  EXPECT_EQ(txn.NumOperations(), 3u);
  TransactionEffect effect = txn.Normalize(db_);
  EXPECT_EQ(effect.TotalTuples(), 3u);
}

TEST_F(TransactionTest, UpdateIsDeletePlusInsert) {
  Transaction txn;
  txn.Update("r", T({1, 2}), T({1, 99}));
  TransactionEffect effect = txn.Normalize(db_);
  const RelationEffect* re = effect.Find("r");
  ASSERT_NE(re, nullptr);
  EXPECT_TRUE(re->deletes.Contains(T({1, 2})));
  EXPECT_TRUE(re->inserts.Contains(T({1, 99})));
}

TEST_F(TransactionTest, SelfUpdateIsNoop) {
  Transaction txn;
  txn.Update("r", T({1, 2}), T({1, 2}));
  EXPECT_TRUE(txn.Normalize(db_).Empty());
}

TEST_F(TransactionTest, UpdateOfAbsentTupleInsertsOnly) {
  Transaction txn;
  txn.Update("r", T({9, 9}), T({8, 8}));
  TransactionEffect effect = txn.Normalize(db_);
  const RelationEffect* re = effect.Find("r");
  ASSERT_NE(re, nullptr);
  EXPECT_TRUE(re->deletes.empty());
  EXPECT_TRUE(re->inserts.Contains(T({8, 8})));
}

TEST_F(TransactionTest, EmptyEffectFindReturnsNull) {
  Transaction txn;
  txn.Insert("r", T({1, 2}));  // no-op
  TransactionEffect effect = txn.Normalize(db_);
  EXPECT_EQ(effect.Find("r"), nullptr);
  EXPECT_EQ(effect.Find("s"), nullptr);
}

// Normalize against a naive oracle.  Random operation sequences over a
// 4x4 tuple domain, on random bases of two relations, make repeats,
// insert-then-delete, delete-then-insert and self-updates common.  The
// oracle replays the operations on each base's membership set; the net
// effect must be exactly what the final membership gained and lost.
TEST(NormalizePropertyTest, EffectEqualsNaiveOracle) {
  Rng rng(1986);
  const std::vector<std::string> names = {"r", "s"};
  auto draw = [&rng] {
    return T({rng.Uniform(0, 3), rng.Uniform(0, 3)});
  };
  for (int trial = 0; trial < 400; ++trial) {
    Database db;
    std::map<std::string, std::set<Tuple>> before;
    for (const std::string& name : names) {
      Relation& rel = db.CreateRelation(name, Schema::OfInts({"a", "b"}));
      for (int64_t a = 0; a < 4; ++a) {
        for (int64_t b = 0; b < 4; ++b) {
          if (!rng.Bernoulli(0.4)) continue;
          rel.Insert(T({a, b}));
          before[name].insert(T({a, b}));
        }
      }
    }
    std::map<std::string, std::set<Tuple>> after = before;
    Transaction txn;
    for (int64_t op = rng.Uniform(0, 40); op > 0; --op) {
      const std::string& name = names[rng.Uniform(0, 1)];
      const Tuple t = draw();
      switch (rng.Uniform(0, 2)) {
        case 0:
          txn.Insert(name, t);
          after[name].insert(t);
          break;
        case 1:
          txn.Delete(name, t);
          after[name].erase(t);
          break;
        default: {
          const Tuple to = rng.Bernoulli(0.3) ? t : draw();  // self-update
          txn.Update(name, t, to);
          after[name].erase(t);
          after[name].insert(to);
          break;
        }
      }
    }
    const TransactionEffect effect = txn.Normalize(db);
    for (const std::string& name : names) {
      std::vector<Tuple> inserts;
      std::vector<Tuple> deletes;
      std::set_difference(after[name].begin(), after[name].end(),
                          before[name].begin(), before[name].end(),
                          std::back_inserter(inserts));
      std::set_difference(before[name].begin(), before[name].end(),
                          after[name].begin(), after[name].end(),
                          std::back_inserter(deletes));
      const RelationEffect* re = effect.Find(name);
      EXPECT_EQ(re == nullptr ? std::vector<Tuple>{}
                              : re->inserts.ToSortedVector(),
                inserts)
          << "trial " << trial << ", relation " << name;
      EXPECT_EQ(re == nullptr ? std::vector<Tuple>{}
                              : re->deletes.ToSortedVector(),
                deletes)
          << "trial " << trial << ", relation " << name;
    }
    effect.ApplyTo(&db);
    for (const std::string& name : names) {
      EXPECT_EQ(db.Get(name).ToSortedVector(),
                std::vector<Tuple>(after[name].begin(), after[name].end()))
          << "trial " << trial << ", relation " << name;
    }
  }
}

// FNV-1a over a file's bytes.
uint64_t FileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 1469598103934665603ULL;
  char c;
  while (in.get(c)) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// A fixed DML script — bulk inserts with duplicates, cancelling pairs inside
// BEGIN … COMMIT, no-op inserts and deletes, updates, a view — writes a
// log with recorded bytes.  The hash was taken with a Normalize that kept a
// per-tuple map of final presence; the effect sets, and so the WAL
// codec's input, must stay exactly those.
TEST(NormalizeGoldenTest, DmlScriptWritesTheRecordedLog) {
  const std::string dir = testing::ScratchDir();
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(dir, options);
    sql::Engine engine(storage.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b STRING);"
        "CREATE TABLE s (c INT64, d INT64);"
        "CREATE MATERIALIZED VIEW v AS SELECT a, b, d FROM r, s WHERE a = c;"
        "INSERT INTO r VALUES (5, 'e'), (1, 'a'), (3, 'a string past "
        "fifteen bytes'), (1, 'a'), (-9223372036854775807, ''), "
        "(9223372036854775807, 'it''s');"
        "INSERT INTO s VALUES (3, 30), (1, 10), (5, 50), (3, 31), (7, 70);"
        "INSERT INTO r VALUES (1, 'a');"
        "DELETE FROM s WHERE c = 99;"
        "BEGIN;"
        "INSERT INTO r VALUES (2, 'b'), (4, 'd');"
        "DELETE FROM r WHERE a = 2;"
        "DELETE FROM s WHERE c = 1;"
        "INSERT INTO s VALUES (1, 10), (8, 80);"
        "UPDATE r SET b = 'z' WHERE a = 5;"
        "COMMIT;"
        "UPDATE s SET d = 0 WHERE c >= 3;"
        "UPDATE r SET b = 'a' WHERE a = 1;"
        "DELETE FROM r WHERE a > 2 OR a < 0;");
  }
  EXPECT_EQ(FileHash(dir + "/wal.mv"), 6942386520894467967ULL)
      << "wal.mv changed";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mview
