#include "ivm/view_manager.h"

#include <gtest/gtest.h>

#include "ivm_test_util.h"
#include "test_util.h"
#include "util/error.h"
#include "util/fault.h"

namespace mview {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::T;

class ViewManagerTest : public ::testing::Test {
 protected:
  ViewManagerTest() : vm_(&db_) {
    MakeRelation(&db_, "R", {"A", "B"}, {{1, 2}, {3, 4}});
    MakeRelation(&db_, "S", {"B2", "C"}, {{2, 20}, {4, 40}});
  }
  Database db_;
  ViewManager vm_;

  ViewDefinition JoinDef(const std::string& name) {
    return ViewDefinition(name, {BaseRef{"R", {}}, BaseRef{"S", {}}},
                          "B = B2", {"A", "C"});
  }
};

TEST_F(ViewManagerTest, RegisterMaterializesImmediately) {
  vm_.RegisterView(JoinDef("v"));
  EXPECT_EQ(vm_.View("v").size(), 2u);
  EXPECT_TRUE(vm_.View("v").Contains(T({1, 20})));
}

TEST_F(ViewManagerTest, RegisterCreatesJoinIndexes) {
  vm_.RegisterView(JoinDef("v"));
  EXPECT_TRUE(db_.Get("R").HasIndex(1));   // B
  EXPECT_TRUE(db_.Get("S").HasIndex(0));   // B2
}

TEST_F(ViewManagerTest, DuplicateNameThrows) {
  vm_.RegisterView(JoinDef("v"));
  EXPECT_THROW(vm_.RegisterView(JoinDef("v")), Error);
}

TEST_F(ViewManagerTest, UnknownViewThrows) {
  EXPECT_THROW(vm_.View("nope"), Error);
  EXPECT_THROW(vm_.Describe("nope"), Error);
  EXPECT_THROW(vm_.Refresh("nope"), Error);
  EXPECT_THROW(vm_.DropView("nope"), Error);
}

TEST_F(ViewManagerTest, ImmediateMaintenanceOnCommit) {
  vm_.RegisterView(JoinDef("v"));
  Transaction txn;
  txn.Insert("R", T({5, 2})).Delete("S", T({4, 40}));
  vm_.Apply(txn);
  // Base relations updated...
  EXPECT_TRUE(db_.Get("R").Contains(T({5, 2})));
  EXPECT_FALSE(db_.Get("S").Contains(T({4, 40})));
  // ...and the view too.
  EXPECT_TRUE(vm_.View("v").Contains(T({5, 20})));
  EXPECT_FALSE(vm_.View("v").Contains(T({3, 40})));
  EXPECT_EQ(vm_.Describe("v").stats.transactions, 1);
}

TEST_F(ViewManagerTest, MultipleViewsMaintainedIndependently) {
  vm_.RegisterView(JoinDef("join_view"));
  vm_.RegisterView(ViewDefinition::Select("r_small", "R", "A < 3"));
  vm_.RegisterView(ViewDefinition::Project("s_keys", "S", {"B2"}));
  Transaction txn;
  txn.Insert("R", T({2, 4})).Insert("S", T({2, 21}));
  vm_.Apply(txn);
  EXPECT_TRUE(vm_.View("join_view").Contains(T({2, 40})));
  EXPECT_TRUE(vm_.View("join_view").Contains(T({1, 21})));
  EXPECT_TRUE(vm_.View("r_small").Contains(T({2, 4})));
  EXPECT_EQ(vm_.View("s_keys").Count(T({2})), 2);
}

TEST_F(ViewManagerTest, IrrelevantTransactionSkipsView) {
  vm_.RegisterView(
      ViewDefinition::Select("small", "R", "A < 0"));
  Transaction txn;
  txn.Insert("R", T({100, 100}));
  vm_.Apply(txn);
  EXPECT_TRUE(vm_.View("small").empty());
  const MaintenanceStats stats = vm_.Describe("small").stats;
  EXPECT_EQ(stats.skipped_irrelevant, 1);
  EXPECT_EQ(stats.updates_filtered, 1);
}

TEST_F(ViewManagerTest, FullReevaluationModeMatchesImmediate) {
  vm_.RegisterView(JoinDef("diff"), MaintenanceMode::kImmediate);
  vm_.RegisterView(JoinDef("full"), MaintenanceMode::kFullReevaluation);
  Transaction txn;
  txn.Insert("R", T({5, 4})).Delete("R", T({1, 2})).Insert("S", T({9, 90}));
  vm_.Apply(txn);
  EXPECT_TRUE(vm_.View("diff").SameContents(vm_.View("full")));
  EXPECT_EQ(vm_.Describe("full").stats.full_reevaluations, 1);
  EXPECT_EQ(vm_.Describe("diff").stats.full_reevaluations, 0);
}

TEST_F(ViewManagerTest, DeferredViewGoesStaleAndRefreshes) {
  vm_.RegisterView(JoinDef("snap"), MaintenanceMode::kDeferred);
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  vm_.Apply(txn);
  EXPECT_TRUE(vm_.Describe("snap").stale);
  EXPECT_GT(vm_.Describe("snap").pending_tuples, 0u);
  // Stale contents: still the old materialization.
  EXPECT_FALSE(vm_.View("snap").Contains(T({5, 20})));
  vm_.Refresh("snap");
  EXPECT_FALSE(vm_.Describe("snap").stale);
  EXPECT_TRUE(vm_.View("snap").Contains(T({5, 20})));
  EXPECT_EQ(vm_.Describe("snap").stats.refreshes, 1);
}

TEST_F(ViewManagerTest, DeferredRefreshAcrossManyTransactions) {
  vm_.RegisterView(JoinDef("snap"), MaintenanceMode::kDeferred);
  vm_.RegisterView(JoinDef("live"), MaintenanceMode::kImmediate);
  for (int i = 0; i < 10; ++i) {
    Transaction txn;
    txn.Insert("R", T({100 + i, 2}));
    if (i % 2 == 0) txn.Delete("R", T({100 + i - 2, 2}));
    vm_.Apply(txn);
  }
  vm_.Refresh("snap");
  EXPECT_TRUE(vm_.View("snap").SameContents(vm_.View("live")));
}

TEST_F(ViewManagerTest, RefreshAllAndNoopRefresh) {
  vm_.RegisterView(JoinDef("a"), MaintenanceMode::kDeferred);
  vm_.RegisterView(JoinDef("b"), MaintenanceMode::kDeferred);
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  vm_.Apply(txn);
  vm_.RefreshAll();
  EXPECT_FALSE(vm_.Describe("a").stale);
  EXPECT_FALSE(vm_.Describe("b").stale);
  // Refreshing an up-to-date view is a no-op.
  vm_.Refresh("a");
  EXPECT_EQ(vm_.Describe("a").stats.refreshes, 1);
}

TEST_F(ViewManagerTest, DropView) {
  vm_.RegisterView(JoinDef("v"));
  vm_.DropView("v");
  EXPECT_THROW(vm_.View("v"), Error);
  EXPECT_TRUE(vm_.ViewNames().empty());
}

TEST_F(ViewManagerTest, ViewNamesSorted) {
  vm_.RegisterView(JoinDef("b"));
  vm_.RegisterView(JoinDef("a"));
  EXPECT_EQ(vm_.ViewNames(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(ViewManagerTest, EmptyTransactionIsNoop) {
  vm_.RegisterView(JoinDef("v"));
  Transaction txn;
  txn.Insert("R", T({1, 2}));  // already present → net no-op
  vm_.Apply(txn);
  EXPECT_EQ(vm_.Describe("v").stats.transactions, 0);
}

TEST_F(ViewManagerTest, StatsAccumulateAcrossTransactions) {
  vm_.RegisterView(JoinDef("v"));
  for (int64_t i = 0; i < 5; ++i) {
    Transaction txn;
    txn.Insert("R", T({10 + i, 2}));
    vm_.Apply(txn);
  }
  const MaintenanceStats stats = vm_.Describe("v").stats;
  EXPECT_EQ(stats.transactions, 5);
  EXPECT_EQ(stats.delta_inserts, 5);
  EXPECT_GT(stats.maintenance_nanos, 0);
}

TEST_F(ViewManagerTest, DescribeReturnsFullSnapshot) {
  vm_.RegisterView(JoinDef("snap"), MaintenanceMode::kDeferred);
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  vm_.Apply(txn);
  ViewInfo info = vm_.Describe("snap");
  EXPECT_EQ(info.name, "snap");
  EXPECT_EQ(info.mode, MaintenanceMode::kDeferred);
  EXPECT_EQ(info.definition.name(), "snap");
  EXPECT_EQ(info.definition.bases().size(), 2u);
  EXPECT_EQ(info.stats.transactions, 1);
  EXPECT_EQ(info.rows, vm_.View("snap").size());
  EXPECT_TRUE(info.stale);
  EXPECT_GT(info.pending_tuples, 0u);
  // The info is a snapshot: refreshing does not mutate it.
  vm_.Refresh("snap");
  EXPECT_TRUE(info.stale);
  EXPECT_FALSE(vm_.Describe("snap").stale);
}

TEST_F(ViewManagerTest, RestoreViewDerivesTheStaleStateFromBasesAndBacklog) {
  // Capture a stale deferred view's backlog, then restore the view into a
  // second manager over the same database contents: it is derived from the
  // bases with the backlog undone, so it equals the stale materialization,
  // and the backlog still drives a correct refresh.
  vm_.RegisterView(JoinDef("snap"), MaintenanceMode::kDeferred);
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  txn.Delete("S", T({2, 20}));
  vm_.Apply(txn);
  ViewInfo info = vm_.Describe("snap");
  ASSERT_TRUE(info.stale);

  ViewManager restored(&db_);
  std::vector<std::unique_ptr<BaseDeltaLog>> pending;
  for (const auto& log : vm_.PendingLogs("snap")) {
    auto copy = std::make_unique<BaseDeltaLog>(log->inserts().schema());
    log->ForEachNetChange([&](const Tuple& t, bool is_insert) {
      if (is_insert) {
        copy->LogInsert(t);
      } else {
        copy->LogDelete(t);
      }
    });
    pending.push_back(std::move(copy));
  }
  restored.RestoreView(info.definition, info.mode, MaintenanceOptions{},
                       std::move(pending));

  EXPECT_TRUE(restored.Describe("snap").stale);
  EXPECT_TRUE(restored.View("snap").SameContents(vm_.View("snap")));
  EXPECT_FALSE(restored.View("snap").SameContents(
      testing::NaiveEvaluate(info.definition, db_)));
  vm_.Refresh("snap");
  restored.Refresh("snap");
  EXPECT_TRUE(restored.View("snap").SameContents(vm_.View("snap")));
}

TEST_F(ViewManagerTest, RestoreViewKeepsHealthAndQuarantinesAFailedEvaluation) {
  RestoredHealth health;
  health.quarantined = true;
  health.reason = "checkpointed reason";
  health.sticky = true;
  vm_.RestoreView(JoinDef("sick"), MaintenanceMode::kImmediate,
                  MaintenanceOptions{}, {}, health);
  ViewInfo sick = vm_.Describe("sick");
  EXPECT_TRUE(sick.quarantined);
  EXPECT_EQ(sick.quarantine_reason, "checkpointed reason");
  EXPECT_TRUE(sick.quarantine_sticky);
  // Evaluated all the same: REPAIR finds nothing to change.
  EXPECT_TRUE(vm_.Materialization("sick").SameContents(
      testing::NaiveEvaluate(JoinDef("sick"), db_)));

  {
    util::ScopedFault fault("ra.batch.alloc", util::FaultSpec{});
    vm_.RestoreView(JoinDef("failed"), MaintenanceMode::kImmediate,
                    MaintenanceOptions{}, {});
  }
  ViewInfo failed = vm_.Describe("failed");
  EXPECT_TRUE(failed.quarantined);
  EXPECT_NE(failed.quarantine_reason.find("ra.batch.alloc"), std::string::npos)
      << failed.quarantine_reason;
  EXPECT_TRUE(failed.quarantine_sticky);
  EXPECT_EQ(vm_.Materialization("failed").size(), 0u);
  vm_.Repair("failed");
  EXPECT_TRUE(vm_.View("failed").SameContents(
      testing::NaiveEvaluate(JoinDef("failed"), db_)));
}

TEST_F(ViewManagerTest, MetricsRecordPhasesAndDeltaSizes) {
  vm_.RegisterView(JoinDef("v"));
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  vm_.Apply(txn);
  const ViewMetrics* m = vm_.metrics().Find("v");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->stats.transactions, 1);
  EXPECT_GT(m->phases.differential_nanos, 0);
  EXPECT_EQ(m->delta_sizes.total_samples(), 1);
  EXPECT_EQ(vm_.metrics().commit().commits, 1);
  // Apply() (vs. ApplyEffect) also times normalization.
  EXPECT_GT(vm_.metrics().commit().normalize_nanos, 0);
  std::string json = vm_.metrics().ToJson();
  EXPECT_NE(json.find("\"views\": {\"v\": {"), std::string::npos);
  EXPECT_NE(json.find("\"delta_size_histogram\""), std::string::npos);
}

TEST_F(ViewManagerTest, DropViewErasesMetrics) {
  vm_.RegisterView(JoinDef("v"));
  EXPECT_NE(vm_.metrics().Find("v"), nullptr);
  vm_.DropView("v");
  EXPECT_EQ(vm_.metrics().Find("v"), nullptr);
}

TEST_F(ViewManagerTest, ParallelPipelineMatchesSerial) {
  // One manager runs serial, one with a 4-worker pool, over identical
  // databases; contents must match after every commit.
  Database db2;
  ::mview::testing::MakeRelation(&db2, "R", {"A", "B"}, {{1, 2}, {3, 4}});
  ::mview::testing::MakeRelation(&db2, "S", {"B2", "C"}, {{2, 20}, {4, 40}});
  ViewManager parallel(&db2, /*parallelism=*/4);
  EXPECT_EQ(parallel.parallelism(), 4u);
  for (const char* name : {"v1", "v2", "v3"}) {
    vm_.RegisterView(JoinDef(name));
    parallel.RegisterView(JoinDef(name));
  }
  for (int64_t i = 0; i < 10; ++i) {
    Transaction txn;
    txn.Insert("R", T({10 + i, i % 5}));
    txn.Insert("S", T({i % 5, i}));
    vm_.Apply(txn);
    parallel.Apply(txn);
    for (const char* name : {"v1", "v2", "v3"}) {
      EXPECT_TRUE(vm_.View(name).SameContents(parallel.View(name)))
          << name << " diverged at step " << i;
    }
  }
  EXPECT_EQ(vm_.Describe("v2").stats.delta_inserts,
            parallel.Describe("v2").stats.delta_inserts);
}

TEST_F(ViewManagerTest, SequenceOfMixedTransactionsStaysConsistent) {
  vm_.RegisterView(JoinDef("v"));
  DifferentialMaintainer oracle(JoinDef("oracle"), &db_);
  for (int64_t i = 0; i < 20; ++i) {
    Transaction txn;
    txn.Insert("R", T({i, i % 5}));
    txn.Insert("S", T({i % 5, i * 10}));
    if (i > 2) txn.Delete("R", T({i - 2, (i - 2) % 5}));
    vm_.Apply(txn);
    EXPECT_TRUE(vm_.View("v").SameContents(oracle.FullEvaluate()))
        << "diverged at step " << i;
  }
}

}  // namespace
}  // namespace mview
