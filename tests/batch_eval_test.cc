// Correctness of the columnar executor: for arbitrary workloads, the
// materializations it maintains and its cold FullEvaluate must equal the naive tuple-at-a-time evaluator of
// ra/eval.cc (`testing::NaiveEvaluate`), through DML, DDL (view
// register/drop), REFRESH, and WAL-replay recovery.  Plus unit tests for
// `ColumnBatch` itself.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "ra/batch.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

// ---------------------------------------------------------------------------
// ColumnBatch unit tests.

TEST(ColumnBatchTest, AppendTruncateAndMaterialize) {
  util::Arena arena;
  Schema schema = Schema::OfInts({"a", "b"});
  ColumnBatch batch(schema, 8, &arena);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 8u);

  batch.AppendTuple(testing::T({1, 10}), 2);
  batch.AppendTuple(testing::T({2, 20}), -1);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.ints(0)[1], 2);
  EXPECT_EQ(batch.ints(1)[0], 10);
  EXPECT_EQ(batch.counts()[1], -1);
  EXPECT_EQ(batch.MakeTuple(0), testing::T({1, 10}));
  EXPECT_EQ(batch.MakeTuple(1, {1}), testing::T({20}));

  batch.Truncate(1);
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

TEST(ColumnBatchTest, BorrowedStringsAreMaterializedOnDemand) {
  util::Arena arena;
  Schema schema({{"name", ValueType::kString}, {"n", ValueType::kInt64}});
  ColumnBatch batch(schema, 4, &arena);
  std::string owner = "waterloo";
  Tuple t(std::vector<Value>{Value(owner), Value(int64_t{7})});
  batch.AppendTuple(t, 1);
  // The batch borrows the string; materializing copies it.
  EXPECT_EQ(batch.strs(0)[0].data(), t.at(0).AsString().data());
  Tuple out = batch.MakeTuple(0);
  EXPECT_EQ(out.at(0).AsString(), "waterloo");
  EXPECT_NE(out.at(0).AsString().data(), t.at(0).AsString().data());
  EXPECT_EQ(batch.ValueAt(0, 1), Value(int64_t{7}));
}

TEST(ColumnBatchTest, KeepCompactsSelectedRows) {
  util::Arena arena;
  ColumnBatch batch(Schema::OfInts({"a"}), 16, &arena);
  for (int64_t i = 0; i < 10; ++i) batch.AppendTuple(testing::T({i}), i + 1);
  const uint32_t sel[] = {1, 4, 9};
  batch.Keep(sel, 3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.ints(0)[0], 1);
  EXPECT_EQ(batch.ints(0)[1], 4);
  EXPECT_EQ(batch.ints(0)[2], 9);
  EXPECT_EQ(batch.counts()[2], 10);
}

TEST(ColumnBatchTest, ProjectViewShufflesColumnsWithoutCopying) {
  util::Arena arena;
  ColumnBatch batch(Schema::OfInts({"a", "b", "c"}), 4, &arena);
  batch.AppendTuple(testing::T({1, 2, 3}), 5);
  ColumnBatch view = batch.ProjectView({2, 0}, &arena);
  ASSERT_EQ(view.num_columns(), 2u);
  ASSERT_EQ(view.size(), 1u);
  // Columns alias the source arrays — projection moves no row data.
  EXPECT_EQ(view.ints(0), batch.ints(2));
  EXPECT_EQ(view.ints(1), batch.ints(0));
  EXPECT_EQ(view.counts(), batch.counts());
  EXPECT_EQ(view.MakeTuple(0), testing::T({3, 1}));
}

TEST(ColumnBatchTest, CopyRowCopiesColumnRanges) {
  // CopyRow addresses the same column indices in source and destination —
  // both sides are combined-scheme batches; only the copied range need be
  // initialized in the source.
  util::Arena arena;
  Schema combined = Schema::OfInts({"x", "a", "b"});
  ColumnBatch src(combined, 4, &arena);
  src.AppendTuple(testing::T({7, 8}), 1, /*first_col=*/1);
  ColumnBatch dst(combined, 4, &arena);
  size_t row = dst.AppendRow(3);
  dst.ints(0)[row] = 42;
  dst.CopyRow(src, 0, row, /*first_col=*/1, /*n_cols=*/2);
  EXPECT_EQ(dst.MakeTuple(0), testing::T({42, 7, 8}));
}

TEST(CountedRelationSinkTest, BatchAndTupleEmissionAgree) {
  util::Arena arena;
  ColumnBatch batch(Schema::OfInts({"a"}), 8, &arena);
  batch.AppendTuple(testing::T({1}), 2);
  batch.AppendTuple(testing::T({2}), 1);
  batch.AppendTuple(testing::T({1}), 1);

  CountedRelation via_batch(Schema::OfInts({"a"}));
  CountedRelation via_tuple(Schema::OfInts({"a"}));
  CountedRelationSink batch_sink(&via_batch, 2);
  batch_sink.EmitBatch(batch);
  CountedRelationSink tuple_sink(&via_tuple, 2);
  for (size_t row = 0; row < batch.size(); ++row) {
    tuple_sink.Emit(batch.MakeTuple(row), batch.counts()[row]);
  }
  EXPECT_TRUE(via_batch.SameContents(via_tuple));
  EXPECT_EQ(via_batch.Count(testing::T({1})), 6);
}

// ---------------------------------------------------------------------------
// Property: maintained == naive oracle == cold FullEvaluate, step by step,
// on the E9/E16 workload shapes.  (The tuple-at-a-time side of the test
// name is the naive evaluator.)

struct Scenario {
  const char* name;
  const char* condition;  // over r/s/t attribute names (arity 2 each)
  std::vector<std::string> projection;
  size_t num_relations;  // 1..3 (r, s, t)
};

class BatchIdentityTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(BatchIdentityTest, BatchEqualsTupleEqualsFullEvaluate) {
  const Scenario& sc = GetParam();
  Rng seeds(0x5eedb47cu);
  for (int round = 0; round < 3; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    std::vector<RelationSpec> specs;
    const char* names[] = {"r", "s", "t"};
    for (size_t i = 0; i < sc.num_relations; ++i) {
      specs.push_back({names[i], 2, 12, 40});
      gen.Populate(&db, specs.back());
    }
    std::vector<BaseRef> bases;
    for (const auto& spec : specs) bases.push_back(BaseRef{spec.name, {}});
    ViewDefinition def("v", bases, sc.condition, sc.projection);

    DifferentialMaintainer maintainer(def, &db);
    CountedRelation view = maintainer.FullEvaluate();
    ASSERT_TRUE(view.SameContents(testing::NaiveEvaluate(def, db)))
        << sc.name << " initial evaluation diverged at round " << round;

    for (int step = 0; step < 10; ++step) {
      Transaction txn;
      for (const auto& spec : specs) {
        gen.AddUpdates(&txn, spec,
                       static_cast<size_t>(gen.rng().Uniform(0, 4)),
                       static_cast<size_t>(gen.rng().Uniform(0, 4)));
      }
      TransactionEffect effect = txn.Normalize(db);
      ViewDelta delta = maintainer.ComputeDelta(effect);
      effect.ApplyTo(&db);
      delta.ApplyTo(&view);
      const CountedRelation expected = testing::NaiveEvaluate(def, db);
      ASSERT_TRUE(view.SameContents(expected))
          << sc.name << " view diverged at round " << round << " step "
          << step << "\ngot:\n"
          << view.ToString() << "expected:\n"
          << expected.ToString();
      if (step % 3 == 2) {
        ASSERT_TRUE(maintainer.FullEvaluate().SameContents(expected))
            << sc.name << " cold evaluation diverged at round " << round
            << " step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewClasses, BatchIdentityTest,
    ::testing::Values(
        Scenario{"select", "r_a0 < 6", {}, 1},
        Scenario{"project", "true", {"r_a1"}, 1},
        Scenario{"select_project", "r_a0 >= 4", {"r_a1"}, 1},
        Scenario{"equijoin", "r_a1 = s_a0", {"r_a0", "s_a1"}, 2},
        Scenario{"spj", "r_a1 = s_a0 && r_a0 < 8", {"s_a1"}, 2},
        Scenario{"inequality_join", "r_a0 < s_a0", {"r_a1", "s_a1"}, 2},
        Scenario{"offset_join", "r_a1 = s_a0 + 2", {"r_a0"}, 2},
        Scenario{"disjunctive",
                 "(r_a1 = s_a0 && r_a0 < 4) || (r_a1 = s_a0 && s_a1 > 8)",
                 {"r_a0", "s_a1"}, 2},
        Scenario{"three_way_chain", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// End-to-end through the view manager: the views stay identical to the
// naive oracle through DML, mid-stream DDL (drop + re-register, which
// evaluates the new shape cold), and deferred REFRESH.

TEST(BatchManagerIdentityTest, DmlDdlRefreshStayIdentical) {
  Rng seeds(0xba7c4e57u);
  for (int round = 0; round < 3; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    RelationSpec r{"r", 2, 12, 40}, s{"s", 2, 12, 40};
    for (const auto& spec : {r, s}) gen.Populate(&db, spec);

    ViewDefinition join("vj", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                        "r_a1 = s_a0", {"r_a0", "s_a1"});
    ViewDefinition sel("vs", {BaseRef{"r", {}}}, "r_a0 < 8", {"r_a1"});

    ViewManager vm(&db);
    vm.RegisterView(join, MaintenanceMode::kImmediate, MaintenanceOptions{});
    vm.RegisterView(sel, MaintenanceMode::kDeferred, MaintenanceOptions{});

    for (int step = 0; step < 12; ++step) {
      Transaction txn;
      for (const auto& spec : {r, s}) {
        gen.AddUpdates(&txn, spec,
                       static_cast<size_t>(gen.rng().Uniform(0, 4)),
                       static_cast<size_t>(gen.rng().Uniform(0, 4)));
      }
      vm.Apply(txn);
      ASSERT_TRUE(vm.View("vj").SameContents(testing::NaiveEvaluate(join, db)))
          << "vj diverged at round " << round << " step " << step;

      if (step == 5) {
        // DDL mid-stream: replace the join view with a different shape.
        join = ViewDefinition("vj", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                              "r_a1 = s_a0 && s_a1 > 3", {"r_a0"});
        vm.DropView("vj");
        vm.RegisterView(join, MaintenanceMode::kImmediate,
                        MaintenanceOptions{});
        ASSERT_TRUE(
            vm.View("vj").SameContents(testing::NaiveEvaluate(join, db)))
            << "re-registered vj diverged at round " << round;
      }
      if (step % 4 == 3) {
        vm.Refresh("vs");
        ASSERT_TRUE(
            vm.View("vs").SameContents(testing::NaiveEvaluate(sel, db)))
            << "refreshed vs diverged at round " << round << " step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recovery: a durable engine is killed without a close checkpoint, so
// reopening replays the WAL through the maintenance path.  The recovered
// materializations must equal the naive (tuple-at-a-time) cold evaluation
// over the recovered base tables.

TEST(BatchRecoveryIdentityTest, ReplayedViewsMatchTupleArmColdEvaluation) {
  const std::string dir = testing::ScratchDir();
  {
    Storage::Options options;
    options.checkpoint_on_close = false;  // force WAL replay on reopen
    auto storage = Storage::Open(dir, options);
    sql::Engine engine(storage.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE TABLE s (b2 INT64, c INT64);"
        "CREATE MATERIALIZED VIEW joined AS "
        "  SELECT a, c FROM r, s WHERE b = b2;"
        "CREATE MATERIALIZED VIEW small_a DEFERRED AS "
        "  SELECT a, b FROM r WHERE a < 100;");
    engine.Execute("INSERT INTO r VALUES (1, 10), (2, 20), (150, 30)");
    engine.Execute("INSERT INTO s VALUES (10, 100), (20, 200), (30, 300)");
    engine.Execute("UPDATE r SET b = 20 WHERE a = 1");
    engine.Execute("DELETE FROM s WHERE b2 = 30");
    engine.Execute("INSERT INTO r VALUES (3, 30), (4, 10)");
    engine.Execute("REFRESH VIEW small_a");
    engine.Execute("INSERT INTO s VALUES (10, 101)");
  }

  auto storage = Storage::Open(dir);
  sql::Engine recovered(storage.get());
  recovered.Execute("REFRESH VIEW small_a");

  const Database& db = recovered.database();
  const ViewDefinition joined("o1", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                              "b = b2", {"a", "c"});
  const ViewDefinition small_a("o2", {BaseRef{"r", {}}}, "a < 100",
                               {"a", "b"});
  EXPECT_TRUE(recovered.views().View("joined").SameContents(
      testing::NaiveEvaluate(joined, db)))
      << "recovered 'joined':\n"
      << recovered.views().View("joined").ToString();
  EXPECT_TRUE(recovered.views().View("small_a").SameContents(
      testing::NaiveEvaluate(small_a, db)))
      << "recovered 'small_a':\n"
      << recovered.views().View("small_a").ToString();
}

}  // namespace
}  // namespace mview
