#include <gtest/gtest.h>

#include "ivm/differential.h"
#include "ivm_test_util.h"
#include "test_util.h"

namespace mview {
namespace {

using ::mview::testing::CheckMaintenance;
using ::mview::testing::MakeRelation;
using ::mview::testing::T;

// Examples 5.2–5.4: R = {A, B}, S = {B, C}, V = R ⋈ S.
class JoinViewTest : public ::testing::Test {
 protected:
  JoinViewTest() {
    MakeRelation(&db_, "R", {"A", "B"}, {{1, 2}, {3, 4}, {5, 4}});
    MakeRelation(&db_, "S", {"B2", "C"}, {{2, 20}, {4, 40}});
    def_ = ViewDefinition("v", {BaseRef{"R", {}}, BaseRef{"S", {}}},
                          "B = B2", {"A", "B", "C"});
  }
  Database db_;
  ViewDefinition def_;
};

TEST_F(JoinViewTest, InitialJoin) {
  DifferentialMaintainer m(def_, &db_);
  CountedRelation v = m.FullEvaluate();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.Contains(T({1, 2, 20})));
  EXPECT_TRUE(v.Contains(T({3, 4, 40})));
  EXPECT_TRUE(v.Contains(T({5, 4, 40})));
}

TEST_F(JoinViewTest, Example52InsertIntoOneRelation) {
  // v' = v ∪ (i_r ⋈ s): only the new tuples' contribution is computed.
  Transaction txn;
  txn.Insert("R", T({7, 2}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_), &stats);
  EXPECT_TRUE(delta.deletes.empty());
  EXPECT_EQ(delta.inserts.TotalCount(), 1);
  EXPECT_TRUE(delta.inserts.Contains(T({7, 2, 20})));
  // Exactly one truth-table row (i_r ⋈ s) for one modified relation.
  EXPECT_EQ(stats.rows_evaluated, 1);
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(JoinViewTest, InsertsIntoBothRelations) {
  // Section 5.3's 2^k − 1 rows: for k=2, rows (i_r ⋈ s), (r ⋈ i_s),
  // (i_r ⋈ i_s) — the truth table minus the all-old row.
  Transaction txn;
  txn.Insert("R", T({7, 9})).Insert("S", T({9, 90}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_), &stats);
  EXPECT_EQ(stats.rows_enumerated, 3);
  // (7,9) joins only the inserted (9,90): contributed by the i_r ⋈ i_s row.
  EXPECT_EQ(delta.inserts.TotalCount(), 1);
  EXPECT_TRUE(delta.inserts.Contains(T({7, 9, 90})));
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(JoinViewTest, Example53DeleteFromOneRelation) {
  // v' = v − (d_r ⋈ s).
  Transaction txn;
  txn.Delete("R", T({3, 4}));
  DifferentialMaintainer m(def_, &db_);
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_));
  EXPECT_TRUE(delta.inserts.empty());
  EXPECT_EQ(delta.deletes.TotalCount(), 1);
  EXPECT_TRUE(delta.deletes.Contains(T({3, 4, 40})));
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(JoinViewTest, DeletesFromBothRelations) {
  // Deletion rows: (d_r ⋈ (s − d_s)), ((r − d_r) ⋈ d_s), (d_r ⋈ d_s) — all
  // delete-tagged (Example 5.4 cases 4 and 5).
  Transaction txn;
  txn.Delete("R", T({3, 4})).Delete("S", T({4, 40}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_), &stats);
  EXPECT_EQ(stats.rows_enumerated, 3);
  EXPECT_TRUE(delta.inserts.empty());
  // Both (3,4,40) and (5,4,40) leave the view.
  EXPECT_EQ(delta.deletes.TotalCount(), 2);
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(JoinViewTest, Example54MixedInsertAndDelete) {
  // Case 2 of Example 5.4: i_r ⋈ d_s must be ignored — the inserted R-tuple
  // would join a deleted S-tuple.
  Transaction txn;
  txn.Insert("R", T({7, 4}));   // joins S.(4,40), which is being deleted
  txn.Delete("S", T({4, 40}));
  DifferentialMaintainer m(def_, &db_);
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_));
  // (7,4,40) must NOT appear as an insert.
  EXPECT_FALSE(delta.inserts.Contains(T({7, 4, 40})));
  // The old join tuples with B=4 are deleted.
  EXPECT_TRUE(delta.deletes.Contains(T({3, 4, 40})));
  EXPECT_TRUE(delta.deletes.Contains(T({5, 4, 40})));
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(JoinViewTest, MixedRowsArePrunedNotEvaluated) {
  Transaction txn;
  txn.Insert("R", T({7, 4})).Delete("S", T({4, 40}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  m.ComputeDelta(txn.Normalize(db_), &stats);
  // Valid rows: (i_R, clean_S), (clean_R, d_S) — i_R×d_S is pruned by the
  // ignore rule before evaluation.
  EXPECT_EQ(stats.rows_enumerated, 2);
}

TEST_F(JoinViewTest, InsertAndDeleteOnSameRelation) {
  Transaction txn;
  txn.Insert("R", T({7, 2})).Delete("R", T({1, 2}));
  DifferentialMaintainer m(def_, &db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_), &stats);
  EXPECT_TRUE(delta.inserts.Contains(T({7, 2, 20})));
  EXPECT_TRUE(delta.deletes.Contains(T({1, 2, 20})));
  CheckMaintenance(&db_, def_, txn);
}

TEST_F(JoinViewTest, ThreeWayJoinTruthTable) {
  MakeRelation(&db_, "U", {"C2", "D"}, {{20, 7}, {40, 8}});
  ViewDefinition def("w",
                     {BaseRef{"R", {}}, BaseRef{"S", {}}, BaseRef{"U", {}}},
                     "B = B2 && C = C2", {"A", "D"});
  // Insert into R and U only (k = 2 of p = 3): the truth table of Section
  // 5.3's worked example — rows 3, 5, 7 → 2^2 − 1 = 3 rows.
  Transaction txn;
  txn.Insert("R", T({9, 2})).Insert("U", T({20, 9}));
  DifferentialMaintainer m(def, &db_);
  MaintenanceStats stats;
  ViewDelta delta = m.ComputeDelta(txn.Normalize(db_), &stats);
  EXPECT_EQ(stats.rows_enumerated, 3);
  CheckMaintenance(&db_, def, txn);
}

TEST_F(JoinViewTest, JoinProjectionWithCounters) {
  // π_A(R ⋈ S): join fan-out accumulates counters.
  ViewDefinition def("w", {BaseRef{"R", {}}, BaseRef{"S", {}}}, "B = B2",
                     {"B"});
  DifferentialMaintainer m(def, &db_);
  CountedRelation v = m.FullEvaluate();
  EXPECT_EQ(v.Count(T({4})), 2);  // (3,4) and (5,4) both join (4,40)
  Transaction txn;
  txn.Delete("R", T({3, 4}));
  CountedRelation maintained = CheckMaintenance(&db_, def, txn);
  EXPECT_EQ(maintained.Count(T({4})), 1);
}

TEST_F(JoinViewTest, SelfJoin) {
  auto def = ViewDefinition::NaturalJoin("w", {"R", "R"}, db_);
  Transaction txn;
  txn.Insert("R", T({9, 2})).Delete("R", T({3, 4}));
  CheckMaintenance(&db_, def, txn);
}

TEST_F(JoinViewTest, NaturalJoinViaDefinitionBuilder) {
  // Natural join with genuinely shared attribute names.
  Database db;
  MakeRelation(&db, "emp", {"id", "dept"}, {{1, 10}, {2, 20}});
  MakeRelation(&db, "dept_rel", {"dept", "name"}, {{10, 100}, {20, 200}});
  auto def = ViewDefinition::NaturalJoin("w", {"emp", "dept_rel"}, db);
  DifferentialMaintainer m(def, &db);
  EXPECT_EQ(m.FullEvaluate().size(), 2u);
  Transaction txn;
  txn.Insert("emp", T({3, 10})).Delete("dept_rel", T({20, 200}));
  CheckMaintenance(&db, def, txn);
}

TEST_F(JoinViewTest, ThreeWayChurnOnEveryBase) {
  // k = p = 3, each base with inserts and deletes: 2^3 − 1 insert-tagged
  // and 2^3 − 1 delete-tagged rows; the mixed ones are never enumerated.
  MakeRelation(&db_, "U", {"C2", "D"}, {{20, 7}, {40, 8}});
  ViewDefinition def("w",
                     {BaseRef{"R", {}}, BaseRef{"S", {}}, BaseRef{"U", {}}},
                     "B = B2 && C = C2", {"A", "D"});
  Transaction txn;
  txn.Insert("R", T({9, 2})).Delete("R", T({3, 4}));
  txn.Insert("S", T({5, 50})).Delete("S", T({2, 20}));
  txn.Insert("U", T({50, 9})).Delete("U", T({40, 8}));
  MaintenanceOptions options;
  options.use_irrelevance_filter = false;
  MaintenanceStats stats;
  CheckMaintenance(&db_, def, txn, options, &stats);
  EXPECT_EQ(stats.rows_enumerated, 14);
}

}  // namespace
}  // namespace mview
