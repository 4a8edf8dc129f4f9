// Experiment E9 (Sections 5.3/5.4): "a new feature of our problem is the
// possibility of saving computation by re-using partial subexpressions
// appearing in multiple rows within the table."  Claim to reproduce: with
// several truth-table rows sharing inputs, caching filtered scans and join
// hash tables across rows saves work; with a single row there is nothing
// to share.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivm/differential.h"
#include "workload/generator.h"

namespace mview {
namespace {

struct Setup {
  Database db;
  WorkloadGenerator gen{42};
  std::vector<RelationSpec> specs;
  ViewDefinition def;

  explicit Setup(size_t p) {
    std::string condition;
    std::vector<BaseRef> bases;
    for (size_t i = 0; i < p; ++i) {
      // No indexes here: hash tables get built per row unless cached.
      RelationSpec spec{"r" + std::to_string(i), 2,
                        static_cast<int64_t>(bench::Scaled(2000, 100)),
                        bench::Scaled(5000, 300)};
      gen.Populate(&db, spec);
      specs.push_back(spec);
      bases.push_back(BaseRef{spec.name, {}});
      if (i > 0) {
        if (!condition.empty()) condition += " && ";
        condition += AttrName(specs[i - 1].name, 1) + " = " +
                     AttrName(spec.name, 0);
      }
    }
    def = ViewDefinition("v", bases, condition);
  }

  TransactionEffect TouchAll(size_t per_relation) {
    Transaction txn;
    for (const auto& spec : specs) {
      gen.AddUpdates(&txn, spec, per_relation, per_relation);
    }
    return txn.Normalize(db);
  }
};

void BM_WithReuse(benchmark::State& state) {
  Setup setup(static_cast<size_t>(state.range(0)));
  TransactionEffect effect = setup.TouchAll(4);
  MaintenanceOptions options;
  options.reuse_subexpressions = true;
  DifferentialMaintainer m(setup.def, &setup.db, options);
  for (auto _ : state) {
    ViewDelta d = m.ComputeDelta(effect);
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_WithReuse)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_WithoutReuse(benchmark::State& state) {
  Setup setup(static_cast<size_t>(state.range(0)));
  TransactionEffect effect = setup.TouchAll(4);
  MaintenanceOptions options;
  options.reuse_subexpressions = false;
  DifferentialMaintainer m(setup.def, &setup.db, options);
  for (auto _ : state) {
    ViewDelta d = m.ComputeDelta(effect);
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_WithoutReuse)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  bench::SummaryTable table(
      "E9: subexpression reuse across truth-table rows (p-way chain join, "
      "all relations modified → many rows share clean inputs)",
      {"p relations", "rows", "scanned w/ reuse", "scanned w/o", "with reuse",
       "without", "speedup"});
  const std::vector<size_t> ps = bench::Options().smoke
                                     ? std::vector<size_t>{2, 3}
                                     : std::vector<size_t>{2, 3, 4, 5};
  for (size_t p : ps) {
    Setup setup(p);
    TransactionEffect effect = setup.TouchAll(4);
    MaintenanceOptions with, without;
    with.reuse_subexpressions = true;
    without.reuse_subexpressions = false;
    DifferentialMaintainer m_with(setup.def, &setup.db, with);
    DifferentialMaintainer m_without(setup.def, &setup.db, without);
    MaintenanceStats s_with, s_without;
    double t_with = bench::TimeIt([&] {
      ViewDelta d = m_with.ComputeDelta(effect, &s_with);
      benchmark::DoNotOptimize(&d);
    }, 2);
    double t_without = bench::TimeIt([&] {
      ViewDelta d = m_without.ComputeDelta(effect, &s_without);
      benchmark::DoNotOptimize(&d);
    }, 2);
    table.AddRow(
        {std::to_string(p), std::to_string(s_with.rows_enumerated / 3),
         std::to_string(s_with.plan.rows_scanned / 3),
         std::to_string(s_without.plan.rows_scanned / 3),
         FormatSeconds(t_with), FormatSeconds(t_without),
         bench::FormatSpeedup(t_without / t_with)});
  }
  table.Print();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
