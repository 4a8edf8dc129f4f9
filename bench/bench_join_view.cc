// Experiment E6 (Section 5.3, Examples 5.2–5.3): join views are maintained
// by evaluating only the truth-table rows containing a delta — "one only
// needs to compute the contribution of the new tuples to the join", which
// is "certainly cheaper than re-computing the whole join".  Claims to
// reproduce: differential beats full join re-evaluation for small deltas,
// and scales with delta size, not relation size.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivm/view_manager.h"
#include "workload/generator.h"

namespace mview {
namespace {

struct JoinSetup {
  Database db;
  WorkloadGenerator gen{42};
  RelationSpec r{"r", 2, 0, 0};
  RelationSpec s{"s", 2, 0, 0};
  std::unique_ptr<DifferentialMaintainer> maintainer;

  JoinSetup(size_t rows, int64_t key_domain) {
    r.domain = key_domain;
    r.rows = rows;
    s.domain = key_domain;
    s.rows = rows;
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                       "r_a1 = s_a0", {"r_a0", "s_a1"});
    // The maintainer indexes the join attributes r_a1 and s_a0.
    maintainer = std::make_unique<DifferentialMaintainer>(def, &db);
  }
};

void BM_JoinDifferential(benchmark::State& state) {
  JoinSetup setup(static_cast<size_t>(state.range(0)),
                  state.range(0));  // key domain = rows → ~1 match per key
  for (auto _ : state) {
    state.PauseTiming();
    Transaction txn;
    setup.gen.AddUpdates(&txn, setup.r, 8, 8);
    setup.gen.AddUpdates(&txn, setup.s, 8, 8);
    TransactionEffect effect = txn.Normalize(setup.db);
    state.ResumeTiming();
    ViewDelta d = setup.maintainer->ComputeDelta(effect);
    benchmark::DoNotOptimize(&d);
    state.PauseTiming();
    effect.ApplyTo(&setup.db);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_JoinDifferential)->Arg(1000)->Arg(10000)->Arg(100000)->Iterations(500)
    ->Unit(benchmark::kMicrosecond);

void BM_JoinFullReevaluation(benchmark::State& state) {
  JoinSetup setup(static_cast<size_t>(state.range(0)), state.range(0));
  for (auto _ : state) {
    CountedRelation v = setup.maintainer->FullEvaluate();
    benchmark::DoNotOptimize(&v);
  }
}
BENCHMARK(BM_JoinFullReevaluation)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void PrintSummary() {
  using bench::FormatSeconds;
  {
    bench::SummaryTable table(
        "E6a: join view r ⋈ s — differential (32-update txn) vs. full "
        "re-evaluation as |r| = |s| grows (paper §5.3: differential scales "
        "with the delta, not the relations)",
        {"|r|=|s|", "differential", "full re-eval", "speedup"});
    const std::vector<size_t> sizes =
        bench::Options().smoke
            ? std::vector<size_t>{200, 400}
            : std::vector<size_t>{1000, 10000, 50000, 200000};
    for (size_t rows : sizes) {
      JoinSetup setup(rows, static_cast<int64_t>(rows));
      Transaction txn;
      setup.gen.AddUpdates(&txn, setup.r, 8, 8);
      setup.gen.AddUpdates(&txn, setup.s, 8, 8);
      TransactionEffect effect = txn.Normalize(setup.db);
      double diff = bench::TimeIt([&] {
        ViewDelta d = setup.maintainer->ComputeDelta(effect);
        benchmark::DoNotOptimize(&d);
      });
      double full = bench::TimeIt([&] {
        CountedRelation v = setup.maintainer->FullEvaluate();
        benchmark::DoNotOptimize(&v);
      });
      table.AddRow({std::to_string(rows), FormatSeconds(diff),
                    FormatSeconds(full), bench::FormatSpeedup(full / diff)});
    }
    table.Print();
  }
  {
    bench::SummaryTable table(
        "E6b: join view — differential cost vs. transaction size "
        "(|r| = |s| = 50000)",
        {"updates/txn", "differential", "full re-eval", "speedup"});
    const size_t base = bench::Scaled(50000, 400);
    const std::vector<size_t> updates =
        bench::Options().smoke ? std::vector<size_t>{2, 32}
                               : std::vector<size_t>{2, 32, 512, 8192};
    for (size_t upd : updates) {
      JoinSetup setup(base, static_cast<int64_t>(base));
      Transaction txn;
      setup.gen.AddUpdates(&txn, setup.r, upd / 2, upd / 2);
      TransactionEffect effect = txn.Normalize(setup.db);
      double diff = bench::TimeIt([&] {
        ViewDelta d = setup.maintainer->ComputeDelta(effect);
        benchmark::DoNotOptimize(&d);
      });
      double full = bench::TimeIt([&] {
        CountedRelation v = setup.maintainer->FullEvaluate();
        benchmark::DoNotOptimize(&v);
      });
      table.AddRow({std::to_string(upd), FormatSeconds(diff),
                    FormatSeconds(full), bench::FormatSpeedup(full / diff)});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
