// Experiment E21: hash-partitioned views — intra-view parallel maintenance
// — and differential checkpoints.
//
// Part 1 (maintenance): an E16-style 1M-row workload (r ⋈ s on
// r_a1 = s_a0, ~1 match per key) driven through the ViewManager commit
// pipeline.  The view's maintenance round is split into P hash partitions
// (the planner picks the keyed layout here: the join equality
// co-partitions both bases), and the pipeline fans the per-partition jobs
// over the worker pool.  Measured: warm per-commit maintenance time for
// P=1 serial, P=4 serial (slicing overhead), and P=4 on 4 workers.
//
// Note: parallel speedup requires actual cores.  On a single-core host
// every configuration collapses to the serial cost plus coordination
// overhead; the JSON records `cores` so readers can interpret the rows
// (EXPERIMENTS.md E21 discusses this).  Partition *pruning* and the
// checkpoint results below are core-count independent.
//
// Part 2 (checkpoints): a durable engine with one table and one view.  The
// first checkpoint writes the full image (every scope's base); one commit
// then changes about 1% of the rows, and the next checkpoint writes one
// delta segment per scope holding just those rows.  The byte ratio of the
// two is the O(database) → O(change) claim, and is deterministic — no
// cores needed.
//
// `--json <path>` writes the summary rows (BENCH_E21.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ivm/view_manager.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "workload/generator.h"

namespace mview {
namespace {

size_t BaseRows() { return bench::Scaled(500'000, 2'000); }  // per relation
size_t Commits() { return bench::Scaled(32, 4); }
constexpr size_t kUpdatesPerRelation = 8;  // half inserts, half deletes

struct JoinSetup {
  Database db;
  WorkloadGenerator gen{2026};
  RelationSpec r, s;
  ViewManager vm;

  JoinSetup(uint32_t partitions, size_t workers, size_t base_rows)
      : r{"r", 2, static_cast<int64_t>(base_rows), base_rows},
        s{"s", 2, static_cast<int64_t>(base_rows), base_rows},
        vm(&db, workers) {
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    MaintenanceOptions options;
    options.partition_count = partitions;
    vm.RegisterView(ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                                   "r_a1 = s_a0", {"r_a0", "s_a1"}),
                    MaintenanceMode::kImmediate, options);
  }

  void RunCommits(size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Transaction txn;
      gen.AddUpdates(&txn, r, kUpdatesPerRelation / 2, kUpdatesPerRelation / 2);
      gen.AddUpdates(&txn, s, kUpdatesPerRelation / 2, kUpdatesPerRelation / 2);
      vm.Apply(txn);
    }
  }
};

void BM_PartitionedCommit(benchmark::State& state) {
  const auto partitions = static_cast<uint32_t>(state.range(0));
  const auto workers = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    JoinSetup setup(partitions, workers, bench::Scaled(20'000, 1'000));
    setup.RunCommits(2);  // warm the heap and the per-partition arenas
    state.ResumeTiming();
    setup.RunCommits(Commits());
  }
}
// {partitions, pool workers}; 0 workers = serial pipeline.
BENCHMARK(BM_PartitionedCommit)
    ->Args({1, 0})->Args({4, 0})->Args({4, 4})
    ->Iterations(2)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Part 2: checkpoint bytes, full image vs the delta of a 1% change.

size_t CheckpointRows() { return bench::Scaled(50'000, 500); }

struct CheckpointResult {
  double full_bytes = 0;     // first image (every table's base)
  double delta_bytes = 0;    // re-checkpoint after the 1% commit
  double changed_rows = 0;   // rows the commit deleted or inserted
  double segments = 0;       // segments written by the second checkpoint
  double skipped = 0;        // table chains carried forward by it
};

// Multi-row INSERT statements in `chunk`-row batches (one commit each).
void BulkInsert(sql::Engine& engine, size_t rows, size_t chunk) {
  for (size_t base = 0; base < rows; base += chunk) {
    std::string sql = "INSERT INTO t VALUES ";
    for (size_t i = base; i < std::min(rows, base + chunk); ++i) {
      if (i != base) sql += ", ";
      sql += "(" + std::to_string(i) + ", " + std::to_string(2 * i) + ")";
    }
    engine.Execute(sql);
  }
}

// Returns the bytes written by the two explicit checkpoints.
CheckpointResult RunCheckpointExperiment() {
  const auto dir =
      std::filesystem::temp_directory_path() / "mview_bench_e21_ckpt";
  std::filesystem::remove_all(dir);
  CheckpointResult result;
  {
    auto storage = Storage::Open(dir.string());
    sql::Engine engine(storage.get());
    engine.Execute("CREATE TABLE t (a INT64, b INT64)");
    BulkInsert(engine, CheckpointRows(), 500);
    engine.Execute(
        "CREATE MATERIALIZED VIEW v AS SELECT a, b FROM t WHERE a >= 0");
    // No manifest exists yet, so the first checkpoint writes the full
    // image (every table's base; the view is derived state, stored as its
    // definition alone).
    StorageMetrics& m = engine.mutable_views().metrics().storage();
    const int64_t before_full = m.checkpoint_bytes;
    engine.Execute("CHECKPOINT");
    result.full_bytes = static_cast<double>(m.checkpoint_bytes - before_full);

    // One commit changing 1% of the rows: half deletes of old rows, half
    // inserts of new ones.  Only the table's delta is written.
    const size_t half = CheckpointRows() / 200;
    engine.Execute("BEGIN");
    engine.Execute("DELETE FROM t WHERE a < " + std::to_string(half));
    std::string insert = "INSERT INTO t VALUES ";
    for (size_t i = 0; i < half; ++i) {
      const size_t a = CheckpointRows() + i;
      if (i != 0) insert += ", ";
      insert += "(" + std::to_string(a) + ", " + std::to_string(2 * a) + ")";
    }
    engine.Execute(insert);
    engine.Execute("COMMIT");
    result.changed_rows = static_cast<double>(2 * half);
    const int64_t before_delta = m.checkpoint_bytes;
    const int64_t seg0 = m.segments_written;
    const int64_t skip0 = m.partitions_skipped;
    engine.Execute("CHECKPOINT");
    result.delta_bytes =
        static_cast<double>(m.checkpoint_bytes - before_delta);
    result.segments = static_cast<double>(m.segments_written - seg0);
    result.skipped = static_cast<double>(m.partitions_skipped - skip0);
  }
  std::filesystem::remove_all(dir);
  return result;
}

void PrintSummary() {
  using bench::FormatSeconds;
  using bench::FormatSpeedup;
  const double cores = static_cast<double>(std::thread::hardware_concurrency());
  std::printf("\nhardware_concurrency: %.0f\n", cores);
  bench::JsonRows json;

  bench::SummaryTable maintenance(
      "E21a: partitioned maintenance — " + std::to_string(Commits()) +
          " warm commits, r ⋈ s with " + std::to_string(BaseRows()) +
          " rows per side (" + std::to_string(2 * kUpdatesPerRelation) +
          " updates per commit)",
      {"config", "per commit", "speedup vs P=1"});
  struct Config {
    const char* label;
    uint32_t partitions;
    size_t workers;
  };
  const std::vector<Config> configs = {
      {"P=1 serial", 1, 0},
      {"P=4 serial", 4, 0},
      {"P=4, 4 workers", 4, 4},
  };
  double baseline = 0;
  for (const Config& config : configs) {
    JoinSetup setup(config.partitions, config.workers, BaseRows());
    setup.RunCommits(4);  // warm the heap and arenas before measuring
    const double per_commit =
        bench::TimeIt([&setup] { setup.RunCommits(Commits()); }) /
        static_cast<double>(Commits());
    if (baseline == 0) baseline = per_commit;
    maintenance.AddRow({config.label, FormatSeconds(per_commit),
                        FormatSpeedup(baseline / per_commit)});
    json.Add({{"partitions", static_cast<double>(config.partitions)},
              {"workers", static_cast<double>(config.workers)},
              {"commit_ms", per_commit * 1e3},
              {"speedup_vs_p1", baseline / per_commit},
              {"cores", cores}});
  }
  maintenance.Print();

  bench::SummaryTable checkpoints(
      "E21b: checkpoint bytes — " + std::to_string(CheckpointRows()) +
          " rows in a table and a view, then one commit changing 1% of them",
      {"checkpoint", "bytes", "vs full image"});
  CheckpointResult ckpt = RunCheckpointExperiment();
  checkpoints.AddRow({"full image (every base)",
                      std::to_string(static_cast<int64_t>(ckpt.full_bytes)),
                      "1.00x"});
  checkpoints.AddRow(
      {"delta of " + std::to_string(static_cast<int64_t>(ckpt.changed_rows)) +
           " changed rows",
       std::to_string(static_cast<int64_t>(ckpt.delta_bytes)),
       FormatSpeedup(ckpt.full_bytes / ckpt.delta_bytes)});
  checkpoints.Print();
  std::printf(
      "delta checkpoint: %.0f segments written, %.0f scopes carried\n\n",
      ckpt.segments, ckpt.skipped);
  json.Add({{"ckpt_full_bytes", ckpt.full_bytes},
            {"ckpt_delta_bytes", ckpt.delta_bytes},
            {"ckpt_reduction_x", ckpt.full_bytes / ckpt.delta_bytes},
            {"changed_rows", ckpt.changed_rows},
            {"segments_written", ckpt.segments},
            {"scopes_skipped", ckpt.skipped}});

  if (!json.WriteIfRequested()) std::exit(1);
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
