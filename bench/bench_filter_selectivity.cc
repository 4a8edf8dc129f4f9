// Experiment E3 (Section 4, Example 4.1): the benefit of irrelevant-update
// detection grows with the fraction of updates that are irrelevant to the
// view.  Claim to reproduce: screening costs little, never changes results,
// and removes maintenance work proportionally to the irrelevant fraction.
// The screen is always on in the engine; the unscreened arm feeds the raw
// effect to `ComputeDeltaFromParts`, which never screens.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivm/differential.h"
#include "workload/generator.h"

namespace mview {
namespace {

constexpr int64_t kDomain = 10000;
constexpr int64_t kThreshold = 1000;  // view keeps r_a0 < 1000 (10%)

struct StreamRun {
  double seconds = 0;
  MaintenanceStats stats;
  PhaseBreakdown phases;
};

// Maintains one SPJ view over r ⋈ s (kept rows restricted to r_a0 <
// threshold) through a stream of transactions whose tuples are irrelevant
// with probability `irrelevant_fraction`, and times the stream.  Screened:
// `ComputeDelta`, where tuples the screen drops cost only the Theorem 4.1
// test.  Unscreened: every tuple reaches the truth table.
StreamRun RunStream(double irrelevant_fraction, bool screened) {
  Database db;
  WorkloadGenerator gen(42);
  RelationSpec spec{"r", 2, kDomain, bench::Scaled(20000, 400)};
  RelationSpec other{"s", 2, kDomain, bench::Scaled(20000, 400)};
  gen.Populate(&db, spec);
  gen.Populate(&db, other);
  const ViewDefinition def(
      "v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
      "r_a1 = s_a0 && r_a0 < " + std::to_string(kThreshold),
      {"r_a0", "s_a1"});
  DifferentialMaintainer m(def, &db);
  CountedRelation view = m.FullEvaluate();
  StreamRun run;
  Stopwatch timer;
  const int txns = static_cast<int>(bench::Scaled(200, 10));
  for (int i = 0; i < txns; ++i) {
    Transaction txn;
    for (int j = 0; j < 10; ++j) {
      bool irrelevant = gen.rng().Bernoulli(irrelevant_fraction);
      Tuple t = irrelevant
                    ? gen.RandomTupleWithAttrIn(spec, 0, kThreshold,
                                                kDomain - 1)
                    : gen.RandomTupleWithAttrIn(spec, 0, 0, kThreshold - 1);
      txn.Insert("r", t);
    }
    const TransactionEffect effect = txn.Normalize(db);
    ViewDelta delta(m.output_schema());
    if (screened) {
      delta = m.ComputeDelta(effect, &run.stats, &run.phases);
    } else if (const RelationEffect* r = effect.Find("r"); r != nullptr) {
      delta = m.ComputeDeltaFromParts(
          {BaseParts{&r->inserts, &r->deletes, &r->deletes}, BaseParts{}},
          &run.stats);
    }
    effect.ApplyTo(&db);
    delta.ApplyTo(&view);
  }
  run.seconds = timer.ElapsedSeconds();
  return run;
}

void BM_StreamWithFilter(benchmark::State& state) {
  double frac = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStream(frac, true).seconds);
  }
}
BENCHMARK(BM_StreamWithFilter)->Arg(0)->Arg(50)->Arg(95)
    ->Unit(benchmark::kMillisecond);

void BM_StreamWithoutFilter(benchmark::State& state) {
  double frac = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStream(frac, false).seconds);
  }
}
BENCHMARK(BM_StreamWithoutFilter)->Arg(0)->Arg(50)->Arg(95)
    ->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  bench::SummaryTable table(
      "E3: irrelevance screening vs. irrelevant-update fraction "
      "(join view r ⋈ s, 2000 updates; paper: irrelevant updates are "
      "dropped without touching the view; unscreened = the raw effect "
      "through ComputeDeltaFromParts; medians (IQR) over alternating reps)",
      {"irrelevant %", "filtered/seen", "skipped txns", "screened",
       "screen time", "unscreened", "speedup"});
  const std::vector<int> pcts = bench::Options().smoke
                                    ? std::vector<int>{0, 95}
                                    : std::vector<int>{0, 25, 50, 75, 95, 100};
  const size_t reps = bench::Scaled(9, 1);
  auto cell = [](const bench::Spread& s) {
    return FormatSeconds(s.median) + " (" + FormatSeconds(s.iqr) + ")";
  };
  for (int pct : pcts) {
    StreamRun with;
    std::vector<double> with_s, screen_s, without_s;
    for (size_t rep = 0; rep < reps; ++rep) {
      with = RunStream(pct / 100.0, true);
      with_s.push_back(with.seconds);
      screen_s.push_back(with.phases.filter_nanos * 1e-9);
      without_s.push_back(RunStream(pct / 100.0, false).seconds);
    }
    const bench::Spread screened = bench::SpreadOf(with_s);
    const bench::Spread unscreened = bench::SpreadOf(without_s);
    table.AddRow({std::to_string(pct),
                  std::to_string(with.stats.updates_filtered) + "/" +
                      std::to_string(with.stats.updates_seen),
                  std::to_string(with.stats.skipped_irrelevant),
                  cell(screened), cell(bench::SpreadOf(screen_s)),
                  cell(unscreened),
                  bench::FormatSpeedup(unscreened.median / screened.median)});
  }
  table.Print();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
