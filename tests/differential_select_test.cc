#include <gtest/gtest.h>

#include "ivm/differential.h"
#include "ivm_test_util.h"
#include "test_util.h"

namespace mview {
namespace {

using ::mview::testing::CheckMaintenance;
using ::mview::testing::MakeRelation;
using ::mview::testing::T;

// Section 5.1: a select view V = σ_C(R) is maintained by
// v' = v ∪ σ_C(i_r) − σ_C(d_r).
class SelectViewTest : public ::testing::Test {
 protected:
  SelectViewTest() {
    MakeRelation(&db_, "r", {"A", "B"},
                 {{1, 10}, {2, 20}, {3, 30}, {8, 80}});
    def_ = ViewDefinition::Select("v", "r", "A < 5");
  }
  Database db_;
  ViewDefinition def_;
};

TEST_F(SelectViewTest, InitialMaterialization) {
  DifferentialMaintainer m(def_, &db_);
  CountedRelation v = m.FullEvaluate();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.Contains(T({1, 10})));
  EXPECT_FALSE(v.Contains(T({8, 80})));
}

TEST_F(SelectViewTest, InsertMatchingTuple) {
  Transaction txn;
  txn.Insert("r", T({4, 40}));
  DifferentialMaintainer m(def_, &db_);
  TransactionEffect effect = txn.Normalize(db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(effect, &stats);
  EXPECT_EQ(delta.inserts.TotalCount(), 1);
  EXPECT_TRUE(delta.inserts.Contains(T({4, 40})));
  EXPECT_TRUE(delta.deletes.empty());
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(SelectViewTest, InsertNonMatchingTupleFilteredAsIrrelevant) {
  Transaction txn;
  txn.Insert("r", T({9, 90}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_), &stats);
  EXPECT_TRUE(delta.Empty());
  // Algorithm 4.1 removed the tuple before any re-evaluation.
  EXPECT_EQ(stats.updates_filtered, 1);
  EXPECT_EQ(stats.rows_evaluated, 0);
}

TEST_F(SelectViewTest, DeleteMatchingTuple) {
  Transaction txn;
  txn.Delete("r", T({3, 30}));
  DifferentialMaintainer m(def_, &db_);
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_));
  EXPECT_EQ(delta.deletes.TotalCount(), 1);
  EXPECT_TRUE(delta.deletes.Contains(T({3, 30})));
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(SelectViewTest, MixedInsertAndDelete) {
  Transaction txn;
  txn.Insert("r", T({0, 5})).Delete("r", T({1, 10})).Insert("r", T({7, 70}));
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(SelectViewTest, WithoutFilterResultIsTheSame) {
  // (9, 90) fails A < 5, so the screen would drop it; the differential
  // alone must still be exact with it in the truth table.
  Transaction txn;
  txn.Insert("r", T({0, 5})).Insert("r", T({9, 90})).Delete("r", T({2, 20}));
  DifferentialMaintainer m(def_, &db_);
  CountedRelation view = m.FullEvaluate();
  TransactionEffect effect = txn.Normalize(db_);
  MaintenanceStats stats;
  m.ComputeDeltaFromParts(testing::RawParts(def_, effect), &stats)
      .ApplyTo(&view);
  effect.ApplyTo(&db_);
  EXPECT_TRUE(view.SameContents(testing::NaiveEvaluate(def_, db_)));
  EXPECT_EQ(stats.updates_seen, 0);  // `ComputeDeltaFromParts` never screens
  EXPECT_EQ(stats.updates_filtered, 0);
}

TEST_F(SelectViewTest, PrepareCopiesOnlyWhatTheScreenKeeps) {
  DifferentialMaintainer m(def_, &db_);
  // Nothing dropped: both parts are the effect's own relations.
  Transaction relevant;
  relevant.Insert("r", T({0, 5})).Delete("r", T({2, 20}));
  TransactionEffect kept_all = relevant.Normalize(db_);
  const RelationEffect* re = kept_all.Find("r");
  DifferentialMaintainer::PreparedDelta prep = m.Prepare(kept_all);
  EXPECT_EQ(prep.parts[0].inserts, &re->inserts);
  EXPECT_EQ(prep.parts[0].deletes, &re->deletes);
  EXPECT_EQ(prep.parts[0].subtract, &re->deletes);
  EXPECT_TRUE(prep.owned.empty());
  // (9, 90) is dropped: the insert part is a copy holding only the
  // survivor, the untouched delete part still the effect's own.
  Transaction mixed;
  mixed.Insert("r", T({0, 5})).Insert("r", T({9, 90})).Delete("r", T({2, 20}));
  TransactionEffect dropped_one = mixed.Normalize(db_);
  re = dropped_one.Find("r");
  prep = m.Prepare(dropped_one);
  EXPECT_NE(prep.parts[0].inserts, &re->inserts);
  EXPECT_EQ(prep.parts[0].inserts->ToSortedVector(),
            std::vector<Tuple>{T({0, 5})});
  EXPECT_EQ(prep.parts[0].deletes, &re->deletes);
  EXPECT_EQ(prep.parts[0].subtract, &re->deletes);
  EXPECT_EQ(prep.owned.size(), 1u);
}

TEST_F(SelectViewTest, SelectProjectView) {
  // σ then π with counters: two source tuples can project to one view tuple.
  Database db;
  MakeRelation(&db, "r", {"A", "B"}, {{1, 7}, {2, 7}, {9, 7}});
  ViewDefinition def = ViewDefinition::Select("v", "r", "A < 5", {"B"});
  DifferentialMaintainer m(def, &db);
  CountedRelation v = m.FullEvaluate();
  EXPECT_EQ(v.Count(T({7})), 2);
  Transaction txn;
  txn.Delete("r", T({1, 7}));
  CountedRelation maintained = CheckMaintenance(&db, def, txn);
  EXPECT_EQ(maintained.Count(T({7})), 1);
}

TEST_F(SelectViewTest, DisjunctiveSelectCondition) {
  ViewDefinition def = ViewDefinition::Select("v", "r", "A < 2 || B > 50");
  Transaction txn;
  txn.Insert("r", T({6, 60})).Insert("r", T({6, 6})).Delete("r", T({1, 10}));
  CheckMaintenance(&db_, def, txn);
}

TEST_F(SelectViewTest, StringConditionMaintainsExactly) {
  Database db;
  Relation& r = db.CreateRelation(
      "people", Schema({{"name", ValueType::kString},
                        {"age", ValueType::kInt64}}));
  r.Insert(Tuple({Value("alice"), Value(30)}));
  r.Insert(Tuple({Value("bob"), Value(40)}));
  ViewDefinition def =
      ViewDefinition::Select("v", "people", "name = \"alice\"");
  Transaction txn;
  txn.Insert("people", Tuple({Value("alice"), Value(31)}));
  txn.Insert("people", Tuple({Value("carol"), Value(22)}));
  txn.Delete("people", Tuple({Value("bob"), Value(40)}));
  CountedRelation v = CheckMaintenance(&db, def, txn);
  EXPECT_EQ(v.size(), 2u);
}

TEST_F(SelectViewTest, TransactionOnOtherRelationIsIgnored) {
  MakeRelation(&db_, "unrelated", {"X"}, {{1}});
  Transaction txn;
  txn.Insert("unrelated", T({2}));
  DifferentialMaintainer m(def_, &db_);
  EXPECT_FALSE(m.AffectedBy(txn.Normalize(db_)));
}

TEST_F(SelectViewTest, DeltaStatsCountRowsEnumerated) {
  Transaction txn;
  txn.Insert("r", T({0, 1})).Delete("r", T({1, 10}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  m.ComputeDelta(txn.Normalize(db_), &stats);
  // Single relation with both parts: rows {ins}, {del} → 2 enumerated.
  EXPECT_EQ(stats.rows_enumerated, 2);
  EXPECT_EQ(stats.rows_evaluated, 2);
}

}  // namespace
}  // namespace mview
