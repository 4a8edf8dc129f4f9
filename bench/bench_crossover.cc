// Experiment E12 (Section 6): "a next step in this direction is to
// determine under what circumstances differential re-evaluation is more
// efficient than complete re-evaluation of the expression defining the
// view."  This bench locates that crossover empirically for each view
// class by sweeping the fraction of the base relations touched by one
// transaction.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivm/differential.h"
#include "workload/generator.h"

namespace mview {
namespace {

size_t Rows() { return bench::Scaled(30000, 400); }

struct ViewCase {
  const char* name;
  size_t num_relations;
  const char* condition;
  std::vector<std::string> projection;
};

// Returns {differential seconds, full seconds} for one transaction touching
// `fraction` of each base relation.
std::pair<double, double> Measure(const ViewCase& vc, double fraction) {
  Database db;
  WorkloadGenerator gen(42);
  std::vector<RelationSpec> specs;
  std::vector<BaseRef> bases;
  const char* names[] = {"r", "s"};
  for (size_t i = 0; i < vc.num_relations; ++i) {
    specs.push_back({names[i], 2, static_cast<int64_t>(Rows()), Rows()});
    gen.Populate(&db, specs.back());
    bases.push_back(BaseRef{specs.back().name, {}});
  }
  ViewDefinition def("v", bases, vc.condition, vc.projection);
  // The maintainer indexes the equi-join attributes.
  DifferentialMaintainer maintainer(def, &db);
  size_t per_rel =
      std::max<size_t>(1, static_cast<size_t>(fraction * Rows() / 2));
  Transaction txn;
  for (const auto& spec : specs) gen.AddUpdates(&txn, spec, per_rel, per_rel);
  TransactionEffect effect = txn.Normalize(db);
  double diff = bench::TimeIt([&] {
    ViewDelta d = maintainer.ComputeDelta(effect);
    benchmark::DoNotOptimize(&d);
  }, 2);
  double full = bench::TimeIt([&] {
    CountedRelation v = maintainer.FullEvaluate();
    benchmark::DoNotOptimize(&v);
  }, 2);
  return {diff, full};
}

const ViewCase kCases[] = {
    {"select", 1, "r_a0 < 15000", {}},
    {"project", 1, "true", {"r_a1"}},
    {"join", 2, "r_a1 = s_a0", {"r_a0", "s_a1"}},
    {"spj", 2, "r_a1 = s_a0 && r_a0 < 15000", {"s_a1"}},
};

void BM_Crossover(benchmark::State& state) {
  const ViewCase& vc = kCases[state.range(0)];
  double fraction = static_cast<double>(state.range(1)) / 1000.0;
  for (auto _ : state) {
    auto [diff, full] = Measure(vc, fraction);
    benchmark::DoNotOptimize(diff + full);
  }
}
BENCHMARK(BM_Crossover)
    ->Args({0, 10})
    ->Args({2, 10})
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  const std::vector<double> pcts =
      bench::Options().smoke
          ? std::vector<double>{1.0, 20.0}
          : std::vector<double>{0.01, 0.1, 1.0, 5.0, 20.0, 50.0, 100.0};
  for (const auto& vc : kCases) {
    bench::SummaryTable table(
        std::string("E12: differential vs. complete re-evaluation — ") +
            vc.name + " view, |r| = " + std::to_string(Rows()) +
            ", sweep of txn size as % of base",
        {"delta %", "differential", "full re-eval", "speedup",
         "winner"});
    for (double pct : pcts) {
      auto [diff, full] = Measure(vc, pct / 100.0);
      table.AddRow({std::to_string(pct), FormatSeconds(diff),
                    FormatSeconds(full), bench::FormatSpeedup(full / diff),
                    diff <= full ? "differential" : "full"});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
