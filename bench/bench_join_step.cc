// Experiment E16: which probe structure serves a join step.  Claim to
// reproduce: steady-state maintenance cost follows the delta, not the base
// (Section 5.3: "one only needs to compute the contribution of the new
// tuples to the join").
//
// The workload drives a DifferentialMaintainer, which indexes its view's
// equi-join attributes itself, so every arm runs in the engine's
// configuration.  Transactions touch only `r`.  Three arms:
//
//  - indexed equi: r ⋈ s on r_a1 = s_a0.  Each delta row probes s's index,
//    O(|delta|) at every base size.
//  - equi after bulk: the same view after one transaction as large as s,
//    whose round hashes s instead of probing it.  Later small commits must
//    go back to the index.
//  - non-equi: a small r (100 rows) against s on r_a1 > s_a0 + (D − 10),
//    where D is s's value domain.  No index applies: the step is a cross
//    join that reads s in place and filters each pair, O(|delta|·|s|).
//
// The equi arms hold the join fan-out at ~5 matches per delta row (domain
// scales with the base), so output size does not grow with |base|.  Each
// of 7 repetitions times the mean per-commit time of at least 20 commits
// and 25 ms of commit time; a cell is the median and IQR over the
// repetitions.
//
// `--json <path>` writes the rows (BENCH_E16.json in EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ivm/differential.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace mview {
namespace {

// ~5 expected equi-join matches per key at every base size.
int64_t DomainFor(size_t base_rows) {
  return base_rows < 50 ? 10 : static_cast<int64_t>(base_rows / 5);
}

enum class Arm { kIndexedEqui, kEquiAfterBulk, kNonEqui };

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kIndexedEqui:
      return "indexed equi";
    case Arm::kEquiAfterBulk:
      return "equi after bulk";
    case Arm::kNonEqui:
      return "non-equi";
  }
  return "?";
}

constexpr size_t kNonEquiRRows = 100;

struct Setup {
  Database db;
  WorkloadGenerator gen{42};
  RelationSpec r, s;
  std::unique_ptr<DifferentialMaintainer> m;
  CountedRelation view;
  std::vector<Tuple> bulk_rows;
  bool bulk_present = false;

  Setup(size_t base_rows, Arm arm)
      : r{"r", 2, DomainFor(base_rows),
          arm == Arm::kNonEqui ? kNonEquiRRows : base_rows},
        s{"s", 2, DomainFor(base_rows), base_rows} {
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    const std::string condition =
        arm == Arm::kNonEqui
            ? "r_a1 > s_a0 + " + std::to_string(DomainFor(base_rows) - 10)
            : "r_a1 = s_a0";
    m = std::make_unique<DifferentialMaintainer>(
        ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}}, condition,
                       {"r_a0", "s_a1"}),
        &db);
    view = m->FullEvaluate();
    if (arm == Arm::kEquiAfterBulk) {
      // Fresh r rows (r_a0 outside the generator's domain), as many as s
      // holds.
      const int64_t domain = DomainFor(base_rows);
      const int64_t n = static_cast<int64_t>(db.Get("s").size());
      for (int64_t i = 0; i < n; ++i) {
        bulk_rows.push_back(Tuple({Value(domain + i), Value(i % domain)}));
      }
    }
  }

  // The equi-after-bulk arm's bulk transaction: inserts the bulk rows, or
  // deletes them again on the next call.  Either way the round's delta
  // ties with s, so the planner scans the delta first and hashes s for
  // that round.
  void Bulk() {
    Transaction txn;
    for (const Tuple& t : bulk_rows) {
      if (bulk_present) {
        txn.Delete("r", t);
      } else {
        txn.Insert("r", t);
      }
    }
    bulk_present = !bulk_present;
    Apply(txn);
  }

  void Apply(const Transaction& txn) {
    TransactionEffect effect = txn.Normalize(db);
    ViewDelta delta = m->ComputeDelta(effect);
    effect.ApplyTo(&db);
    delta.ApplyTo(&view);
  }

  void Commit(size_t delta_rows) {
    Transaction txn;
    gen.AddUpdates(&txn, r, delta_rows, delta_rows);
    Apply(txn);
  }

  // Mean seconds per commit over a run of at least `min_commits` commits
  // and `min_nanos` of commit time, timing only the commits themselves.
  double TimePerCommit(size_t min_commits, int64_t min_nanos,
                       size_t delta_rows) {
    int64_t nanos = 0;
    size_t commits = 0;
    while (commits < min_commits || nanos < min_nanos) {
      Stopwatch timer;
      Commit(delta_rows);
      nanos += timer.ElapsedNanos();
      ++commits;
    }
    return static_cast<double>(nanos) * 1e-9 / static_cast<double>(commits);
  }
};

void BM_SteadyStateCommit(benchmark::State& state) {
  const auto arm = static_cast<Arm>(state.range(1));
  Setup setup(static_cast<size_t>(state.range(0)), arm);
  if (arm == Arm::kEquiAfterBulk) setup.Bulk();
  setup.Commit(10);  // warmup
  for (auto _ : state) setup.Commit(10);
}
// Args: (base rows, arm).
BENCHMARK(BM_SteadyStateCommit)
    ->Args({10000, 0})->Args({10000, 1})->Args({10000, 2})
    ->Iterations(20)->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  using bench::Spread;
  using bench::SpreadOf;
  const size_t commits = bench::Scaled(20, 2);
  const int64_t min_nanos = bench::Options().smoke ? 0 : 25'000'000;
  const int reps = bench::Options().smoke ? 2 : 7;
  const std::vector<size_t> bases =
      bench::Options().smoke ? std::vector<size_t>{200, 400}
                             : std::vector<size_t>{10'000, 100'000};
  const std::vector<size_t> deltas = bench::Options().smoke
                                         ? std::vector<size_t>{1, 4}
                                         : std::vector<size_t>{1, 100};
  bench::SummaryTable table(
      "E16: probe structure per join step — per-commit maintenance latency "
      "(median, IQR over reps), transactions touch only r",
      {"arm", "s rows", "delta rows", "per commit", "IQR"});
  bench::JsonRows json;
  for (Arm arm : {Arm::kIndexedEqui, Arm::kEquiAfterBulk, Arm::kNonEqui}) {
    for (size_t base : bases) {
      Setup setup(base, arm);
      for (size_t d = 0; d < deltas.size(); ++d) {
        std::vector<double> times;
        for (int rep = 0; rep < reps; ++rep) {
          // The after-bulk arm replays its bulk transaction before each
          // rep, so every rep times the commits that follow one.
          if (arm == Arm::kEquiAfterBulk) setup.Bulk();
          setup.Commit(deltas[d]);  // untimed warm-up
          times.push_back(setup.TimePerCommit(commits, min_nanos, deltas[d]));
        }
        const Spread t = SpreadOf(times);
        table.AddRow({ArmName(arm), std::to_string(base),
                      std::to_string(deltas[d]), FormatSeconds(t.median),
                      FormatSeconds(t.iqr)});
        json.Add({{"equi", arm == Arm::kNonEqui ? 0.0 : 1.0},
                  {"after_bulk", arm == Arm::kEquiAfterBulk ? 1.0 : 0.0},
                  {"s_rows", static_cast<double>(base)},
                  {"delta_rows", static_cast<double>(deltas[d])},
                  {"median_seconds", t.median},
                  {"iqr_seconds", t.iqr}});
      }
    }
  }
  table.Print();
  json.WriteIfRequested();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
