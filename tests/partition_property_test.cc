// Partitioned-maintenance property tests: for every SPJ shape the paper
// covers, a view split into P hash partitions must materialize exactly
// what the unpartitioned pipeline and the naive evaluator produce, with
// the per-partition jobs fanned over a worker pool.  The
// checkpoint twins assert the storage-layer mirror: an engine writing
// dirty-partition incremental checkpoints recovers byte-for-byte the
// state a monolithic-checkpoint engine (and an undisturbed in-memory
// engine) holds, including across a carry-forward checkpoint that
// rewrote only a fraction of the segments.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "sql/engine.h"
#include "storage/checkpoint.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/error.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

using sql::Engine;

struct Scenario {
  const char* name;
  const char* condition;  // over r/s/t attribute names r_a0, r_a1, ...
  std::vector<std::string> projection;
  size_t num_relations;  // 1..3 (r, s, t)
  size_t arity = 2;      // attributes per base relation
};

class PartitionPropertyTest : public ::testing::TestWithParam<Scenario> {};

// One ViewManager holds the unpartitioned baseline plus a partitioned
// twin per partition count, so every view sees the identical commit
// stream; all must equal the naive evaluation (`testing::NaiveEvaluate`,
// which shares no code with the executor under test) after every
// transaction.
TEST_P(PartitionPropertyTest, PartitionedEqualsUnpartitionedEqualsOracle) {
  const Scenario& sc = GetParam();
  Rng seeds(0x9a8713c4u);
  for (int round = 0; round < 3; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    std::vector<RelationSpec> specs;
    const char* names[] = {"r", "s", "t"};
    for (size_t i = 0; i < sc.num_relations; ++i) {
      specs.push_back({names[i], sc.arity, 12, 40});
      gen.Populate(&db, specs.back());
    }
    std::vector<BaseRef> bases;
    for (const auto& spec : specs) bases.push_back(BaseRef{spec.name, {}});

    ViewManager vm(&db, /*parallelism=*/2);
    std::vector<std::string> views;
    for (uint32_t partitions : {1u, 4u, 7u}) {
      MaintenanceOptions options;
      options.partition_count = partitions;
      std::string name = "v_p" + std::to_string(partitions);
      vm.RegisterView(ViewDefinition(name, bases, sc.condition, sc.projection),
                      MaintenanceMode::kImmediate, options);
      views.push_back(std::move(name));
    }
    const ViewDefinition oracle("oracle", bases, sc.condition, sc.projection);

    for (int step = 0; step < 8; ++step) {
      Transaction txn;
      for (const auto& spec : specs) {
        if (gen.rng().Bernoulli(0.7)) {
          gen.AddUpdates(&txn, spec,
                         static_cast<size_t>(gen.rng().Uniform(0, 4)),
                         static_cast<size_t>(gen.rng().Uniform(0, 4)));
        }
      }
      vm.Apply(txn);
      const CountedRelation expected = testing::NaiveEvaluate(oracle, db);
      for (const std::string& name : views) {
        ASSERT_TRUE(vm.View(name).SameContents(expected))
            << sc.name << " " << name << " diverged at round " << round
            << " step " << step << "\nview:\n"
            << vm.View(name).ToString() << "expected:\n"
            << expected.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewClasses, PartitionPropertyTest,
    ::testing::Values(
        Scenario{"select", "r_a0 < 6", {}, 1},
        Scenario{"project", "true", {"r_a1"}, 1},
        Scenario{"select_project", "r_a0 >= 4", {"r_a1"}, 1},
        Scenario{"join", "r_a1 = s_a0", {"r_a0", "s_a1"}, 2},
        Scenario{"spj", "r_a1 = s_a0 && r_a0 < 8", {"s_a1"}, 2},
        Scenario{"spj_inequality_join", "r_a0 < s_a0", {"r_a1", "s_a1"}, 2},
        Scenario{"spj_disjunctive",
                 "(r_a1 = s_a0 && r_a0 < 4) || (r_a1 = s_a0 && s_a1 > 8)",
                 {"r_a0", "s_a1"}, 2},
        Scenario{"three_way_chain", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// The scrub basis: the P slices of FullEvaluateSlice must partition the
// full re-evaluation exactly — every tuple in exactly one slice, counts
// preserved (linearity of the counted algebra in each base occurrence).
TEST(PartitionSliceTest, SlicesPartitionFullEvaluate) {
  Rng seeds(0x00571ce5u);
  for (int round = 0; round < 5; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    RelationSpec r{"r", 2, 12, 40}, s{"s", 2, 12, 40};
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    DifferentialMaintainer m(
        ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                       "r_a1 = s_a0", {"r_a0", "s_a1"}),
        &db);
    CountedRelation full = m.FullEvaluate();
    for (uint32_t total : {1u, 4u, 7u}) {
      CountedRelation merged(full.schema());
      for (uint32_t slice = 0; slice < total; ++slice) {
        CountedRelation part = m.FullEvaluateSlice(slice, total);
        part.Scan([&](const Tuple& t, int64_t c) { merged.Add(t, c); });
      }
      ASSERT_TRUE(merged.SameContents(full))
          << "round " << round << " total " << total;
    }
  }
}

// ---------------------------------------------------------------------------
// SQL surface: PARTITIONS n, SHOW PARTITIONS, SCRUB ... PARTITION.

TEST(PartitionSqlTest, CreateWithPartitionsAndShow) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE TABLE s (b2 INT64, c INT64);"
      "INSERT INTO r VALUES (1, 10), (2, 20);"
      "INSERT INTO s VALUES (10, 7), (20, 8);");
  std::string created = engine
                            .Execute("CREATE MATERIALIZED VIEW v PARTITIONS 4 "
                                     "AS SELECT a, c FROM r, s WHERE b = b2")
                            .ToString();
  EXPECT_NE(created.find("4 partitions"), std::string::npos) << created;
  std::string shown = engine.Execute("SHOW PARTITIONS").ToString();
  EXPECT_NE(shown.find("v"), std::string::npos) << shown;
  EXPECT_NE(shown.find("4"), std::string::npos) << shown;
  EXPECT_EQ(engine.Execute("SELECT * FROM v").ToString(),
            engine.Execute("SELECT a, c FROM r, s WHERE b = b2").ToString());
  EXPECT_THROW(engine.Execute("CREATE MATERIALIZED VIEW w PARTITIONS 0 "
                              "AS SELECT a FROM r"),
               Error);
}

TEST(PartitionSqlTest, ScrubPartitionWalksSlicesAndRestartsOnMutation) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30);"
      "CREATE MATERIALIZED VIEW v PARTITIONS 4 AS "
      "  SELECT a, b FROM r WHERE a >= 0;");
  // Four calls walk the four slices; only the last carries a verdict.
  for (int slice = 1; slice <= 3; ++slice) {
    std::string out = engine.Execute("SCRUB VIEW v PARTITION").ToString();
    EXPECT_NE(out.find("partial " + std::to_string(slice) + "/4"),
              std::string::npos)
        << out;
  }
  std::string done = engine.Execute("SCRUB VIEW v PARTITION").ToString();
  EXPECT_NE(done.find("clean"), std::string::npos) << done;

  // A commit between slices invalidates the cursor: the walk restarts
  // from slice 1 instead of mixing truths from different epochs.
  engine.Execute("SCRUB VIEW v PARTITION");
  engine.Execute("SCRUB VIEW v PARTITION");
  engine.Execute("INSERT INTO r VALUES (4, 40)");
  std::string restarted = engine.Execute("SCRUB VIEW v PARTITION").ToString();
  EXPECT_NE(restarted.find("partial 1/4"), std::string::npos) << restarted;

  // SCRUB ALL has no partition form — the cursor is per named view.
  EXPECT_THROW(engine.Execute("SCRUB ALL PARTITION"), Error);
}

// ---------------------------------------------------------------------------
// Checkpoint/recovery twins.

class PartitionCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::ScratchDir(); }

  std::string Dir(const char* leaf) const { return (dir_ / leaf).string(); }

  static std::unique_ptr<Storage> Open(const std::string& dir,
                                       bool checkpoint_on_close = true) {
    Storage::Options options;
    options.checkpoint_on_close = checkpoint_on_close;
    return Storage::Open(dir, options);
  }

  // Every base table and view materialization, via sorted SELECT.
  static void ExpectSameState(Engine& actual, Engine& reference,
                              const char* label) {
    for (const char* rel : {"r", "s", "joined", "filtered"}) {
      EXPECT_EQ(actual.Execute(std::string("SELECT * FROM ") + rel).ToString(),
                reference.Execute(std::string("SELECT * FROM ") + rel)
                    .ToString())
          << label << ": divergence in " << rel;
    }
  }

  static const char* Preamble() {
    return "CREATE TABLE r (a INT64, b INT64);"
           "CREATE TABLE s (b2 INT64, c INT64);"
           "CREATE MATERIALIZED VIEW joined PARTITIONS 4 AS "
           "  SELECT a, c FROM r, s WHERE b = b2;"
           "CREATE MATERIALIZED VIEW filtered AS "
           "  SELECT a, b FROM r WHERE a < 600;";
    // `joined` exercises the keyed layout through the durable path.
  }

  // A deterministic workload chunk; `phase` offsets the key space so
  // successive chunks insert fresh tuples and delete earlier ones.
  static void RunChunk(Engine& engine, int phase) {
    for (int i = 0; i < 40; ++i) {
      const int a = 100 * phase + i;
      engine.Execute("INSERT INTO r VALUES (" + std::to_string(a) + ", " +
                     std::to_string(a % 17) + ")");
      engine.Execute("INSERT INTO s VALUES (" + std::to_string(a % 17) +
                     ", " + std::to_string(a) + ")");
    }
    if (phase > 0) {
      for (int i = 0; i < 10; ++i) {
        const int a = 100 * (phase - 1) + i;
        engine.Execute("DELETE FROM r WHERE a = " + std::to_string(a));
      }
    }
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(PartitionCheckpointTest, CheckpointedRecoveryMatchesReference) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  {
    auto storage = Open(Dir("inc"));
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    for (int phase = 0; phase < 4; ++phase) {
      RunChunk(reference, phase);
      RunChunk(engine, phase);
      // Checkpoint mid-stream so later phases replay WAL on top of a
      // partition-granular image at recovery.
      if (phase == 1) engine.Execute("CHECKPOINT");
    }
  }
  auto storage = Open(Dir("inc"));
  Engine engine(storage.get());
  ExpectSameState(engine, reference, "recovery");
  // The recovered engine keeps maintaining correctly.
  RunChunk(reference, 4);
  RunChunk(engine, 4);
  ExpectSameState(engine, reference, "post-recovery");
}

TEST_F(PartitionCheckpointTest, DirtyCarryForwardRecovers) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  {
    auto storage = Open(Dir("inc"));
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    for (int phase = 0; phase < 3; ++phase) {
      RunChunk(reference, phase);
      RunChunk(engine, phase);
    }
    // Anchor: a full image (no manifest exists yet, so this first
    // checkpoint writes every scope's base).
    engine.Execute("CHECKPOINT");
    // A single small commit, then a second checkpoint: it must carry the
    // unchanged scopes (s, filtered) forward instead of rewriting them.
    reference.Execute("INSERT INTO r VALUES (9001, 3)");
    engine.Execute("INSERT INTO r VALUES (9001, 3)");
    StorageMetrics& m = engine.mutable_views().metrics().storage();
    const int64_t skipped_before = m.partitions_skipped;
    engine.Execute("CHECKPOINT");
    EXPECT_GT(m.partitions_skipped, skipped_before)
        << "second checkpoint rewrote everything; carry-forward inert";
    // More WAL on top of the carried image before the crashless close.
    RunChunk(reference, 3);
    RunChunk(engine, 3);
  }
  auto storage = Open(Dir("inc"));
  Engine engine(storage.get());
  ExpectSameState(engine, reference, "carry-forward recovery");
}

// A table dropped and re-created, and views re-created under their old
// names with other definitions, between two checkpoints: the second
// checkpoint must give the re-created table a fresh base and never extend
// or carry the old table's chain, whose rows belong to a predecessor, and
// recovery must derive the views from their new definitions.
TEST_F(PartitionCheckpointTest, RecreatedScopesNeverCarryOldSegments) {
  const std::string before =
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE TABLE s (b2 INT64, c INT64);"
      "CREATE MATERIALIZED VIEW joined AS SELECT a, c FROM r, s WHERE b = b2;"
      "CREATE MATERIALIZED VIEW filtered AS SELECT a, b FROM r WHERE a < 600;";
  const std::string after =
      "DROP VIEW joined;"
      "DROP TABLE s;"
      "CREATE TABLE s (b2 INT64, c INT64);"
      "INSERT INTO s VALUES (1, 7), (2, 8);"
      "CREATE MATERIALIZED VIEW joined AS SELECT a, c FROM r, s "
      "  WHERE b = b2 AND a > 3;"
      "DROP VIEW filtered;"
      "CREATE MATERIALIZED VIEW filtered AS SELECT a, b FROM r WHERE a > 30;";
  Engine reference;
  reference.ExecuteScript(before);
  RunChunk(reference, 0);
  reference.ExecuteScript(after);
  {
    auto storage = Open(Dir("inc"), /*checkpoint_on_close=*/false);
    Engine engine(storage.get());
    engine.ExecuteScript(before);
    RunChunk(engine, 0);
    engine.Execute("CHECKPOINT");
    const std::optional<storage::CheckpointManifest> old =
        storage::ReadManifest(Dir("inc"));
    ASSERT_TRUE(old.has_value());
    engine.ExecuteScript(after);
    StorageMetrics& m = engine.mutable_views().metrics().storage();
    const int64_t skipped_before = m.partitions_skipped;
    engine.Execute("CHECKPOINT");
    // Only table r was carried forward: it is the one scope that kept its
    // identity and saw no row change.
    EXPECT_EQ(m.partitions_skipped - skipped_before, 1);
    const std::optional<storage::CheckpointManifest> now =
        storage::ReadManifest(Dir("inc"));
    ASSERT_TRUE(now.has_value());
    std::set<std::string> old_files;
    for (const auto& scope : old->tables) {
      for (const auto& ref : scope.chain) old_files.insert(ref.file);
    }
    for (const auto& scope : now->tables) {
      if (scope.name == "r") continue;
      ASSERT_EQ(scope.chain.size(), 1u) << scope.name;
      EXPECT_EQ(old_files.count(scope.chain[0].file), 0u) << scope.name;
    }
  }
  // The log was rotated by the second checkpoint, so recovery reads the
  // image alone.
  auto storage = Open(Dir("inc"));
  Engine engine(storage.get());
  EXPECT_EQ(storage->wal_stats().records_replayed, 0);
  ExpectSameState(engine, reference, "re-created scopes");
}

}  // namespace
}  // namespace mview
