#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ivm/snapshot.h"
#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

// Oracle property: a warm join-state cache must be *observationally
// invisible* — for random DML streams, every materialization a
// ViewManager maintains equals the naive evaluator of ra/eval.cc
// (`testing::NaiveEvaluate`, which has no cache and no planner) at every
// step, across mid-stream DDL (drop + re-register), deferred refresh, and
// a simulated checkpoint/recovery (destroy the manager, restore the views
// verbatim, keep committing).

struct Scenario {
  const char* name;
  const char* condition;
  std::vector<std::string> projection;
  // Cross-join scenarios (equality predicates leave a base unconnected)
  // carry a cache shard per partition and run the cached-materialization
  // path on every commit, so they must record hits; equi-connected ones
  // must hold no shard at all.
  bool cross_join;
  uint32_t partitions = 1;
};

class JoinCachePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(JoinCachePropertyTest, WarmEqualsDisabledAcrossDdlRefreshRecovery) {
  const Scenario& sc = GetParam();
  const RelationSpec kR{"r", 2, 10, 50}, kS{"s", 2, 10, 50};
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}}, sc.condition,
                     sc.projection);
  ViewDefinition snap_def("snap", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                          sc.condition, sc.projection);
  MaintenanceOptions options;
  options.partition_count = sc.partitions;
  Rng seeds(0x5eedcafe);
  int64_t warm_hits = 0;
  for (int round = 0; round < 3; ++round) {
    const uint32_t seed = seeds.Next();
    Database db;
    WorkloadGenerator pop(seed);
    pop.Populate(&db, kR);
    pop.Populate(&db, kS);
    auto vm = std::make_unique<ViewManager>(&db);
    vm->RegisterView(def, MaintenanceMode::kImmediate, options);
    vm->RegisterView(snap_def, MaintenanceMode::kDeferred, options);
    auto check_shards = [&] {
      const DifferentialMaintainer& m = vm->Maintainer("v");
      ASSERT_EQ(m.partition_count(), sc.partitions);
      ASSERT_EQ(m.join_cache() != nullptr, sc.cross_join) << sc.name;
    };
    check_shards();

    WorkloadGenerator gen(seed ^ 0x9e3779b9u);
    for (int step = 0; step < 16; ++step) {
      Transaction txn;
      for (const auto& spec : {kR, kS}) {
        if (gen.rng().Bernoulli(0.8)) {
          gen.AddUpdates(&txn, spec,
                         static_cast<size_t>(gen.rng().Uniform(0, 4)),
                         static_cast<size_t>(gen.rng().Uniform(0, 4)));
        }
      }
      vm->Apply(txn);
      ASSERT_TRUE(vm->View("v").SameContents(testing::NaiveEvaluate(def, db)))
          << sc.name << " diverged at round " << round << " step " << step;

      if (step % 4 == 3) {
        vm->Refresh("snap");
        ASSERT_TRUE(
            vm->View("snap").SameContents(testing::NaiveEvaluate(snap_def, db)))
            << sc.name << " snapshot diverged at round " << round << " step "
            << step;
      }
      if (step == 5) {
        // DDL mid-stream: the view's shards are destroyed with the
        // maintainer and rebuilt cold.
        warm_hits += vm->Describe("v").stats.cache_hits;
        vm->DropView("v");
        vm->RegisterView(def, MaintenanceMode::kImmediate, options);
        check_shards();
      }
      if (step == 10) {
        // Simulated recovery: bring the deferred view up to date, destroy
        // the manager, and restore the views into a fresh one, which
        // derives them from the bases (the checkpoint/recovery path).
        vm->Refresh("snap");
        warm_hits += vm->Describe("v").stats.cache_hits;
        vm = std::make_unique<ViewManager>(&db);
        vm->RestoreView(def, MaintenanceMode::kImmediate, options, {});
        vm->RestoreView(snap_def, MaintenanceMode::kDeferred, options, {});
        check_shards();
      }
    }

    // Swap-remove of a moved row: append a fresh r row to the cached table,
    // delete another row (the fresh one moves into its slot), then delete
    // the moved row, which the reverse map must find at its new slot.  An
    // s insert that joins every r row then exposes a stale cached table.
    auto commit = [&](const Transaction& txn, const char* what) {
      vm->Apply(txn);
      ASSERT_TRUE(vm->View("v").SameContents(testing::NaiveEvaluate(def, db)))
          << sc.name << " diverged at round " << round << " after " << what;
    };
    const Tuple fresh = testing::T({500 + round, 500 + round});
    Transaction warm_r;  // r clean: its cached table is built or kept warm
    warm_r.Insert("s", testing::T({-500 - round, 9}));
    ASSERT_NO_FATAL_FAILURE(commit(warm_r, "warming r"));
    Transaction append;
    append.Insert("r", fresh);
    ASSERT_NO_FATAL_FAILURE(commit(append, "appending a row"));
    Transaction remove_other;
    bool picked = false;
    db.Get("r").Scan([&](const Tuple& t) {
      if (picked || t == fresh) return;
      remove_other.Delete("r", t);
      picked = true;
    });
    ASSERT_NO_FATAL_FAILURE(commit(remove_other, "deleting a row"));
    Transaction remove_moved;
    remove_moved.Delete("r", fresh);
    ASSERT_NO_FATAL_FAILURE(commit(remove_moved, "deleting the moved row"));
    Transaction join_all;
    join_all.Insert("s", testing::T({1000 + round, 0}));
    join_all.Insert("s", testing::T({-1000 - round, 0}));
    ASSERT_NO_FATAL_FAILURE(commit(join_all, "joining every r row"));
    warm_hits += vm->Describe("v").stats.cache_hits;
  }
  if (sc.cross_join) {
    EXPECT_GT(warm_hits, 0) << sc.name << ": cache never served a hit — the "
                               "equivalence above proved nothing";
  } else {
    EXPECT_EQ(warm_hits, 0) << sc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewClasses, JoinCachePropertyTest,
    ::testing::Values(
        // No equi-core → a cross-join step → keyless cached
        // materializations.
        Scenario{"inequality_join", "r_a0 < s_a0", {"r_a1", "s_a1"}, true},
        Scenario{"offset_inequality", "r_a1 < s_a0 + 2", {"r_a0"}, true},
        // Row-hash partitioning: one shard per partition, each mirroring
        // the full clean tables.
        Scenario{"partitioned_inequality",
                 "r_a1 > s_a0 + 1 && s_a1 < 8",
                 {"r_a0", "s_a1"},
                 true,
                 4},
        // Equi-connected (a disjunction with a common equi-core counts):
        // indexed, no shard.
        Scenario{"disjunctive_core",
                 "(r_a1 = s_a0 && r_a0 < 5) || (r_a1 = s_a0 && s_a1 > 7)",
                 {"r_a0", "s_a1"},
                 false},
        Scenario{"equi_join", "r_a1 = s_a0", {"r_a0", "s_a1"}, false}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// The cached path with a local filter on the cached side, driven on a
// maintainer directly: the maintained view must equal the naive oracle at
// every step, with the warm cache recording hits.
TEST(JoinCacheDirectPropertyTest, KeylessPathWarmEqualsNaive) {
  const RelationSpec kR{"r", 2, 16, 80}, kS{"s", 2, 16, 80};
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "r_a1 > s_a0 + 4 && s_a1 < 9", {"r_a0", "s_a1"});
  Rng seeds(0xfeedbeef);
  for (int round = 0; round < 4; ++round) {
    const uint32_t seed = seeds.Next();
    Database db;
    WorkloadGenerator gen(seed);
    gen.Populate(&db, kR);
    gen.Populate(&db, kS);
    DifferentialMaintainer warm(def, &db);
    CountedRelation view = warm.FullEvaluate();
    MaintenanceStats stats;
    for (int step = 0; step < 12; ++step) {
      Transaction txn;
      for (const auto& spec : {kR, kS}) {
        if (gen.rng().Bernoulli(0.7)) {
          gen.AddUpdates(&txn, spec,
                         static_cast<size_t>(gen.rng().Uniform(0, 4)),
                         static_cast<size_t>(gen.rng().Uniform(0, 4)));
        }
      }
      TransactionEffect effect = txn.Normalize(db);
      ViewDelta delta = warm.ComputeDelta(effect, &stats);
      effect.ApplyTo(&db);
      delta.ApplyTo(&view);
      ASSERT_TRUE(view.SameContents(testing::NaiveEvaluate(def, db)))
          << "round " << round << " step " << step;
    }
    EXPECT_GT(stats.cache_hits, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace mview
