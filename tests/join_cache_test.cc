#include <gtest/gtest.h>

#include "ivm/differential.h"
#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "ra/join_cache.h"
#include "sql/engine.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

using testing::T;

// The join-state cache serves only cross-join steps: a view whose
// equality predicates leave some base unconnected.  `r_a1 > s_a0 + 3` has
// no equi-join at all, so every differential row meets the clean other
// base through the cached keyless materialization.
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

TEST(JoinCacheTest, WarmRoundsHitAndStayCorrect) {
  Database db;
  PopulateJoinDb(&db, 42);
  DifferentialMaintainer m(CrossDef(), &db);
  ASSERT_NE(m.join_cache(), nullptr);
  CountedRelation view = m.FullEvaluate();
  WorkloadGenerator gen(7);
  MaintenanceStats stats;
  for (int step = 0; step < 10; ++step) {
    Transaction txn;
    gen.AddUpdates(&txn, kR, 2, 2);  // only r changes
    Step(&db, m, &view, txn, &stats);
    ASSERT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)))
        << "step " << step;
    if (step == 0) {
      // Cold: the clean-s table had to be built.
      EXPECT_GT(stats.cache_misses, 0);
    }
  }
  // Steady state: the clean-s entry was built exactly once and every later
  // round reuses it.
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_GT(stats.cache_hits, 0);
  EXPECT_GT(stats.cache_bytes, 0);
}

TEST(JoinCacheTest, TouchingAllRelationsStaysWarm) {
  Database db;
  PopulateJoinDb(&db, 43);
  DifferentialMaintainer m(CrossDef(), &db);
  CountedRelation view = m.FullEvaluate();
  WorkloadGenerator gen(11);
  MaintenanceStats stats;
  for (int step = 0; step < 8; ++step) {
    Transaction txn;
    gen.AddUpdates(&txn, kR, 2, 2);
    gen.AddUpdates(&txn, kS, 2, 2);
    Step(&db, m, &view, txn, &stats);
    ASSERT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)))
        << "step " << step;
  }
  EXPECT_GT(stats.cache_hits, 0);
  // Both slots' bases changed, so entries were maintained incrementally.
  EXPECT_GT(m.join_cache()->counters().delta_rows, 0);
}

// An equi-connected view has its cache disabled: every join step probes an
// index the maintainer built, so there is no shard and no cache round.
TEST(JoinCacheTest, DisabledCacheHasNullShard) {
  Database db;
  PopulateJoinDb(&db, 44);
  DifferentialMaintainer m(EquiDef(), &db);
  EXPECT_EQ(m.join_cache(), nullptr);
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
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 0);
  EXPECT_EQ(stats.cache_bytes, 0);
}

// After one transaction as large as the clean base, later small commits
// must go back to probing the base's index.  The bulk round's delta ties
// with `s`, so the planner scans the delta first and hashes `s` for that
// round; nothing of that table may outlive the round and serve the small
// commits in place of the index.
TEST(JoinCacheTest, EquiJoinProbesIndexAfterBulkCommit) {
  Database db;
  WorkloadGenerator pop(48);
  pop.Populate(&db, {"r", 2, 400, 50});
  pop.Populate(&db, {"s", 2, 400, 200});
  ViewDefinition def = EquiDef();
  ViewManager vm(&db);
  vm.RegisterView(def, MaintenanceMode::kImmediate, MaintenanceOptions{});
  EXPECT_EQ(vm.Maintainer("v").join_cache(), nullptr);

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
    EXPECT_EQ(after.cache_hits, 0) << "commit " << i;
  }
  EXPECT_EQ(vm.Maintainer("v").join_cache(), nullptr);
  EXPECT_TRUE(vm.View("v").SameContents(testing::NaiveEvaluate(def, db)));
}

// A base mutated outside the maintenance protocol (no ComputeDelta round
// saw the change) must invalidate cached entries instead of serving stale
// rows: the version token no longer matches.
TEST(JoinCacheTest, OutOfBandMutationInvalidates) {
  Database db;
  PopulateJoinDb(&db, 45);
  DifferentialMaintainer cached(CrossDef(), &db);
  WorkloadGenerator gen(5);

  // Warm the cache with one maintained commit.
  Transaction warm;
  gen.AddUpdates(&warm, kR, 2, 2);
  TransactionEffect we = warm.Normalize(db);
  cached.ComputeDelta(we);
  we.ApplyTo(&db);

  // Mutate s behind the cache's back.
  Transaction sneak;
  gen.AddUpdates(&sneak, kS, 3, 3);
  sneak.Normalize(db).ApplyTo(&db);

  // The next maintained commit must take the view to the oracle's state.
  CountedRelation view = cached.FullEvaluate();
  Transaction txn;
  gen.AddUpdates(&txn, kR, 2, 2);
  MaintenanceStats stats;
  Step(&db, cached, &view, txn, &stats);
  EXPECT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)));
  EXPECT_GT(stats.cache_misses, 0);  // the stale entry was rebuilt
}

// A computed delta whose transaction never commits (the effect is not
// applied) leaves entries half-synchronized; the next round must discard
// them rather than double-apply deletes.
TEST(JoinCacheTest, RejectedCommitInvalidates) {
  Database db;
  PopulateJoinDb(&db, 46);
  DifferentialMaintainer cached(CrossDef(), &db);
  CountedRelation view = cached.FullEvaluate();
  WorkloadGenerator gen(9);

  Transaction rejected;
  gen.AddUpdates(&rejected, kR, 2, 2);
  gen.AddUpdates(&rejected, kS, 2, 2);
  cached.ComputeDelta(rejected.Normalize(db));  // never applied

  Transaction txn;
  gen.AddUpdates(&txn, kR, 2, 2);
  Step(&db, cached, &view, txn);
  EXPECT_TRUE(view.SameContents(testing::NaiveEvaluate(CrossDef(), db)));
}

// Eviction, driven on the cache directly: under a 1-byte budget an entry
// survives its own install (the planner still holds its table) but not the
// round boundary.
TEST(JoinCacheTest, TinyBudgetEvictsAndStaysCorrect) {
  Relation s(Schema({{"s_a0", ValueType::kInt64}, {"s_a1", ValueType::kInt64}}));
  s.Insert(T({1, 2}));
  s.Insert(T({3, 4}));
  JoinStateCache cache(/*budget_bytes=*/1);
  auto round = [&] {
    return std::vector<JoinStateCache::SlotUpdate>{
        {s.uid(), s.version(), nullptr, nullptr}};
  };

  cache.BeginRound(round());
  EXPECT_EQ(cache.Lookup(0), nullptr);
  PlannerCache::Table* table = cache.Install(0, s.schema(), {});
  ASSERT_NE(table, nullptr);
  s.Scan([&](const Tuple& t) { table->AddRow(t, 1); });
  cache.CompleteInstall(0);
  EXPECT_EQ(cache.Lookup(0), table);  // kept while its round is open
  EXPECT_EQ(cache.counters().evictions, 0);
  cache.EndRound();

  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  cache.BeginRound(round());
  EXPECT_EQ(cache.Lookup(0), nullptr);  // the next round rebuilds cold
  cache.EndRound();
}

// The SQL surface: cache counters appear in both SHOW STATS formats.  An
// inequality join has no equi-core, so the view's cross-join step runs
// through the (keyless) cached materialization.
TEST(JoinCacheTest, SqlStatsExposeCacheCounters) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE lo (a INT, b INT);"
      "CREATE TABLE hi (c INT, d INT);"
      "CREATE MATERIALIZED VIEW v AS "
      "  SELECT a, c FROM lo, hi WHERE a < c;"
      "INSERT INTO hi VALUES (3, 4), (9, 9);"
      "INSERT INTO lo VALUES (1, 2);"
      "INSERT INTO lo VALUES (5, 6);");
  sql::Engine::Result tab = engine.Execute("SHOW STATS;");
  ASSERT_EQ(tab.kind, sql::Engine::Result::Kind::kRows);
  auto value_of = [&tab](const std::string& view,
                         const std::string& metric) -> int64_t {
    for (const auto& [tuple, count] : tab.rows) {
      if (tuple.at(0).AsString() == view && tuple.at(1).AsString() == metric) {
        return tuple.at(2).AsInt64();
      }
    }
    return -1;
  };
  // The first lo insert builds the clean-hi table cold; the second reuses
  // it warm.
  EXPECT_GT(value_of("v", "cache_misses"), 0);
  EXPECT_GT(value_of("v", "cache_hits"), 0);
  EXPECT_GE(value_of("v", "cache_evictions"), 0);
  EXPECT_GT(value_of("v", "cache_bytes"), 0);

  sql::Engine::Result js = engine.Execute("SHOW STATS JSON;");
  ASSERT_EQ(js.kind, sql::Engine::Result::Kind::kMessage);
  EXPECT_NE(js.message.find("\"cache_hits\""), std::string::npos);
  EXPECT_NE(js.message.find("\"cache_misses\""), std::string::npos);
  EXPECT_NE(js.message.find("\"cache_evictions\""), std::string::npos);
  EXPECT_NE(js.message.find("\"cache_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace mview
