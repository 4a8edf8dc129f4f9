// Experiment E7 (Section 5.3): "In practice, it is not necessary to build a
// table with 2^p rows.  Instead, by knowing which relations have been
// modified, we can build only those rows representing the necessary
// subexpressions ... assuming only k such relations were modified, building
// the table can be done in time O(2^k)."  Claim to reproduce: the number of
// rows enumerated is 2^k − 1 (insert-only transactions), independent of p.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivm/differential.h"
#include "workload/generator.h"

namespace mview {
namespace {

// A p-way chain join r0 ⋈ r1 ⋈ … over tiny relations, with updates applied
// to the first k of them.
struct ChainSetup {
  Database db;
  WorkloadGenerator gen{42};
  std::vector<RelationSpec> specs;
  std::unique_ptr<DifferentialMaintainer> maintainer;

  explicit ChainSetup(size_t p) {
    std::string condition;
    std::vector<BaseRef> bases;
    for (size_t i = 0; i < p; ++i) {
      RelationSpec spec{"r" + std::to_string(i), 2, 16, 64};
      gen.Populate(&db, spec);
      specs.push_back(spec);
      bases.push_back(BaseRef{spec.name, {}});
      if (i > 0) {
        if (!condition.empty()) condition += " && ";
        condition += AttrName(specs[i - 1].name, 1) + " = " +
                     AttrName(spec.name, 0);
      }
    }
    ViewDefinition def("v", bases, condition);
    maintainer = std::make_unique<DifferentialMaintainer>(def, &db);
  }

  TransactionEffect TouchFirstK(size_t k, bool with_deletes) {
    Transaction txn;
    for (size_t i = 0; i < k; ++i) {
      // Fresh out-of-domain values guarantee genuinely new tuples, so every
      // touched relation really contributes an insert part (random values
      // can collide with existing rows and net out).
      for (int j = 0; j < 2; ++j) {
        txn.Insert(specs[i].name,
                   Tuple{Value(1000 + fresh_), Value(1000 + fresh_)});
        ++fresh_;
      }
      if (with_deletes) gen.AddUpdates(&txn, specs[i], 0, 2);
    }
    return txn.Normalize(db);
  }

  int64_t fresh_ = 0;
};

void BM_TruthTableRows(benchmark::State& state) {
  size_t p = 6;
  size_t k = static_cast<size_t>(state.range(0));
  ChainSetup setup(p);
  TransactionEffect effect = setup.TouchFirstK(k, /*with_deletes=*/false);
  MaintenanceOptions options;
  options.use_irrelevance_filter = false;
  DifferentialMaintainer m(setup.maintainer->definition(), &setup.db,
                           options);
  for (auto _ : state) {
    ViewDelta d = m.ComputeDelta(effect);
    benchmark::DoNotOptimize(&d);
  }
}
BENCHMARK(BM_TruthTableRows)->DenseRange(1, 6)->Unit(benchmark::kMicrosecond);

void PrintSummary() {
  bench::SummaryTable table(
      "E7: truth-table rows vs. k modified relations (p = 6 chain join; "
      "paper §5.3: O(2^k), not O(2^p); insert-only → exactly 2^k − 1 rows; "
      "mixed transaction timed, median and IQR over reps)",
      {"k modified", "rows enumerated", "2^k - 1", "rows (mixed ins+del)",
       "table time", "table IQR"});
  const size_t max_k = bench::Scaled(6, 3);
  const size_t reps = bench::Scaled(21, 3);
  for (size_t k = 1; k <= max_k; ++k) {
    ChainSetup setup(6);
    MaintenanceOptions options;
    options.use_irrelevance_filter = false;
    DifferentialMaintainer m(setup.maintainer->definition(), &setup.db,
                             options);
    TransactionEffect ins_only = setup.TouchFirstK(k, false);
    MaintenanceStats ins_stats;
    {
      ViewDelta d = m.ComputeDelta(ins_only, &ins_stats);
      benchmark::DoNotOptimize(&d);
    }
    // Mixed transactions: each touched relation has inserts AND deletes,
    // so rows multiply (choices {clean, ins, del} with the ignore rule).
    TransactionEffect mixed = setup.TouchFirstK(k, true);
    MaintenanceStats mixed_stats;
    {
      ViewDelta d = m.ComputeDelta(mixed, &mixed_stats);
      benchmark::DoNotOptimize(&d);
    }
    std::vector<double> table_s;
    for (size_t rep = 0; rep < reps; ++rep) {
      Stopwatch timer;
      ViewDelta d = m.ComputeDelta(mixed);
      benchmark::DoNotOptimize(&d);
      table_s.push_back(timer.ElapsedSeconds());
    }
    const bench::Spread t = bench::SpreadOf(table_s);
    table.AddRow({std::to_string(k), std::to_string(ins_stats.rows_enumerated),
                  std::to_string((1 << k) - 1),
                  std::to_string(mixed_stats.rows_enumerated),
                  bench::FormatSeconds(t.median), bench::FormatSeconds(t.iqr)});
  }
  table.Print();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
