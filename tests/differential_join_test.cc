#include <gtest/gtest.h>

#include "ivm/differential.h"
#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "test_util.h"
#include "workload/generator.h"

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
  MaintenanceStats stats;
  CheckMaintenance(&db_, def, txn, {}, &stats);
  EXPECT_EQ(stats.rows_enumerated, 14);
}

// Joins with a cross-join step: `r_a1 > s_a0 + 3` has no equality, so
// every differential row meets the clean other base by reading it in place
// at that step, and the maintainer keeps nothing of it between commits.
ViewDefinition CrossDef() {
  return ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                        "r_a1 > s_a0 + 3", {"r_a0", "s_a1"});
}

ViewDefinition EquiDef() {
  return ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                        "r_a1 = s_a0", {"r_a0", "s_a1"});
}

const RelationSpec kR{"r", 2, 12, 60}, kS{"s", 2, 12, 60};

void PopulateJoinDb(Database* db, uint32_t seed) {
  WorkloadGenerator gen(seed);
  gen.Populate(db, kR);
  gen.Populate(db, kS);
}

// One maintained commit: delta on the pre-state, then base + view apply.
void Step(Database* db, const DifferentialMaintainer& m, CountedRelation* view,
          const Transaction& txn, MaintenanceStats* stats = nullptr) {
  TransactionEffect effect = txn.Normalize(*db);
  ViewDelta delta = m.ComputeDelta(effect, stats);
  effect.ApplyTo(db);
  delta.ApplyTo(view);
}

TEST(CrossJoinViewTest, CommitsOnOneSideEqualNaive) {
  Database db;
  PopulateJoinDb(&db, 42);
  DifferentialMaintainer m(CrossDef(), &db);
  CountedRelation view = m.FullEvaluate();
  WorkloadGenerator gen(7);
  for (int step = 0; step < 10; ++step) {
    Transaction txn;
    gen.AddUpdates(&txn, kR, 2, 2);  // only r changes
    Step(&db, m, &view, txn);
    ASSERT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)))
        << "step " << step;
  }
}

TEST(CrossJoinViewTest, CommitsOnBothSidesEqualNaive) {
  Database db;
  PopulateJoinDb(&db, 43);
  DifferentialMaintainer m(CrossDef(), &db);
  CountedRelation view = m.FullEvaluate();
  WorkloadGenerator gen(11);
  for (int step = 0; step < 8; ++step) {
    Transaction txn;
    gen.AddUpdates(&txn, kR, 2, 2);
    gen.AddUpdates(&txn, kS, 2, 2);
    Step(&db, m, &view, txn);
    ASSERT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)))
        << "step " << step;
  }
}

// A base mutated outside maintenance (no ComputeDelta saw the change) is
// read as it now stands by the next commit's cross-join step.
TEST(CrossJoinViewTest, OutOfBandMutationStaysCorrect) {
  Database db;
  PopulateJoinDb(&db, 45);
  DifferentialMaintainer m(CrossDef(), &db);
  WorkloadGenerator gen(5);

  Transaction first;
  gen.AddUpdates(&first, kR, 2, 2);
  TransactionEffect effect = first.Normalize(db);
  m.ComputeDelta(effect);
  effect.ApplyTo(&db);

  // Mutate s behind the maintainer's back.
  Transaction sneak;
  gen.AddUpdates(&sneak, kS, 3, 3);
  sneak.Normalize(db).ApplyTo(&db);

  // The next maintained commit must take the view to the oracle's state.
  CountedRelation view = m.FullEvaluate();
  Transaction txn;
  gen.AddUpdates(&txn, kR, 2, 2);
  Step(&db, m, &view, txn);
  EXPECT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)));
}

// A computed delta whose transaction never commits (the effect is not
// applied) leaves nothing behind that the next commit could trip over.
TEST(CrossJoinViewTest, RejectedCommitLeavesNoTrace) {
  Database db;
  PopulateJoinDb(&db, 46);
  DifferentialMaintainer m(CrossDef(), &db);
  CountedRelation view = m.FullEvaluate();
  WorkloadGenerator gen(9);

  Transaction rejected;
  gen.AddUpdates(&rejected, kR, 2, 2);
  gen.AddUpdates(&rejected, kS, 2, 2);
  m.ComputeDelta(rejected.Normalize(db));  // never applied

  Transaction txn;
  gen.AddUpdates(&txn, kR, 2, 2);
  Step(&db, m, &view, txn);
  EXPECT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)));
}

// A cross product whose in-place side carries a string column (so its
// rows are merged value by value, not as raw words) and a local filter.
TEST(CrossJoinViewTest, FilteredProductWithStringColumnEqualsNaive) {
  Database db;
  MakeRelation(&db, "r", {"r_a0", "r_a1"}, {{1, 2}, {3, 4}, {5, 6}});
  Relation& s = db.CreateRelation(
      "s", Schema({{"s_k", ValueType::kInt64}, {"s_name", ValueType::kString}}));
  auto name = [](int64_t k) {
    return "name-" + std::to_string(k) + "-long-enough-for-the-heap";
  };
  for (int64_t k = 0; k < 6; ++k) s.Insert(Tuple({Value(k), Value(name(k))}));
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "s_k < 4 && r_a0 > 1", {"r_a1", "s_name"});
  Transaction txn;
  txn.Insert("r", T({7, 8})).Delete("r", T({3, 4}));
  txn.Insert("s", Tuple({Value(2), Value("two")}));
  txn.Delete("s", Tuple({Value(5), Value(name(5))}));
  CheckMaintenance(&db, def, txn);
}

// A string inequality between the two bases is a step filter either way
// round: each base is read in place when the other changes.
TEST(CrossJoinViewTest, StringInequalityJoinEqualsNaive) {
  Database db;
  const Schema named({{"k", ValueType::kInt64}, {"name", ValueType::kString}});
  Relation& r = db.CreateRelation("r", named);
  Relation& s = db.CreateRelation("s", named);
  const char* const names[] = {"ash", "birch", "cedar", "dogwood", "elm"};
  for (int64_t k = 0; k < 5; ++k) {
    r.Insert(Tuple({Value(k), Value(names[k])}));
    s.Insert(Tuple({Value(k), Value(names[4 - k])}));
  }
  ViewDefinition def("v", {BaseRef{"r", {"rk", "rname"}},
                           BaseRef{"s", {"sk", "sname"}}},
                     "rname < sname && sk < 4", {"rk", "sname"});
  Transaction txn;
  txn.Insert("r", Tuple({Value(7), Value("beech")}));
  txn.Delete("r", Tuple({Value(2), Value("cedar")}));
  txn.Insert("s", Tuple({Value(1), Value("cherry")}));
  txn.Delete("s", Tuple({Value(0), Value("elm")}));
  CheckMaintenance(&db, def, txn);
}

// An equi-join view's maintainer indexes both join attributes, and its
// commits probe them.
TEST(IndexedJoinTest, MaintainerIndexesEquiJoinAttributes) {
  Database db;
  PopulateJoinDb(&db, 44);
  DifferentialMaintainer m(EquiDef(), &db);
  EXPECT_TRUE(db.Get("r").HasIndex(1));  // r_a1
  EXPECT_TRUE(db.Get("s").HasIndex(0));  // s_a0
  CountedRelation view = m.FullEvaluate();
  WorkloadGenerator gen(3);
  MaintenanceStats stats;
  Transaction txn;
  gen.AddUpdates(&txn, kR, 2, 2);
  Step(&db, m, &view, txn, &stats);
  EXPECT_TRUE(view.SameContents(testing::NaiveEvaluate(EquiDef(), db)));
  EXPECT_GT(stats.plan.probes, 0);
}

// After one transaction as large as the clean base, later small commits
// must go back to probing the base's index.  The bulk round's delta ties
// with `s`, so the planner scans the delta first and hashes `s` for that
// round; nothing of that table may outlive the round and serve the small
// commits in place of the index.
TEST(IndexedJoinTest, EquiJoinProbesIndexAfterBulkCommit) {
  Database db;
  WorkloadGenerator pop(48);
  pop.Populate(&db, {"r", 2, 400, 50});
  pop.Populate(&db, {"s", 2, 400, 200});
  ViewDefinition def = EquiDef();
  ViewManager vm(&db);
  vm.RegisterView(def, MaintenanceMode::kImmediate, MaintenanceOptions{});

  Transaction bulk;
  const int64_t n = static_cast<int64_t>(db.Get("s").size());
  for (int64_t i = 0; i < n; ++i) bulk.Insert("r", T({10000 + i, i % 400}));
  vm.Apply(bulk);

  for (int64_t i = 0; i < 5; ++i) {
    const MaintenanceStats before = vm.Describe("v").stats;
    Transaction one;
    one.Insert("r", T({20000 + i, (7 * i) % 400}));
    vm.Apply(one);
    const MaintenanceStats after = vm.Describe("v").stats;
    EXPECT_GT(after.plan.probes, before.plan.probes) << "commit " << i;
  }
  EXPECT_TRUE(vm.View("v").SameContents(testing::NaiveEvaluate(def, db)));
}

// A transaction whose delta on `s` outgrows the rows in flight.  The rows
// (i_r, i_s), (d_r, d_s), (r, i_s) and (r, d_s) meet that delta at a later
// join step, where it has no index: each round hashes it once and those
// rows share the table.  Partitioned rounds keep the full delta at such
// non-anchor positions, so every slice hashes it in its own cache.
TEST(IndexedJoinTest, LargeDeltaAtLaterStepEqualsNaive) {
  for (uint32_t partitions : {1u, 3u}) {
    Database db;
    PopulateJoinDb(&db, 45);
    Transaction txn;
    txn.Insert("r", T({100, 3}));
    txn.Insert("r", T({101, 5}));
    txn.Delete("r", db.Get("r").ToSortedVector().front());
    for (int64_t i = 0; i < 200; ++i) txn.Insert("s", T({i % 12, 100 + i}));
    const std::vector<Tuple> s_rows = db.Get("s").ToSortedVector();
    for (size_t i = 0; i < 10; ++i) txn.Delete("s", s_rows[i * 5]);
    MaintenanceOptions options;
    options.partition_count = partitions;
    MaintenanceStats stats;
    CheckMaintenance(&db, EquiDef(), txn, options, &stats);
    if (partitions == 1) {
      EXPECT_EQ(stats.rows_evaluated, 6);
    }
  }
}

}  // namespace
}  // namespace mview
