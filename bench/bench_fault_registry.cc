// Experiment E18: fault-registry overhead ablation.  Claim to reproduce:
// the fault-injection points can stay compiled into the maintenance hot
// path permanently — with the registry disarmed (production state) each
// point costs one relaxed atomic load and a never-taken branch, ≤0.5% of
// the per-commit latency of E16's indexed equi join.
//
// Measurements:
//  1. Disabled-point microbenchmark: ns per `MVIEW_FAULT_POINT` with
//     nothing armed, times the points-per-commit count observed on the
//     E16 path, over the per-commit time.  As with the E17 tracer
//     ablation, the end-to-end delta of the disabled branch is far below
//     run-to-run noise, so the overhead is derived from the
//     microbenchmark rather than differenced from two noisy runs.
//  2. Armed-registry end-to-end: the same commit loop with an *unrelated*
//     point armed, so every hit takes the slow path (mutex + map lookup,
//     no fire).  This is the chaos-test configuration, not production —
//     reported to show the fast-path gate is what keeps production cheap.
//  3. Points-per-commit, counted exactly by arming the hot-path points
//     with firing probability 0 (hits counted, nothing thrown).
//
// `--json <path>` writes the summary row (BENCH_E18.json in
// EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "ivm/differential.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace mview {
namespace {

using util::FaultRegistry;
using util::FaultSpec;

// E16's indexed equi workload: r ⋈ s, the maintainer indexing both join
// attributes, transactions touching only r (~5 join matches per delta row).
struct E16Setup {
  static constexpr size_t kBaseRows = 10'000;

  Database db;
  WorkloadGenerator gen{42};
  RelationSpec r{"r", 2, kBaseRows / 5, kBaseRows};
  RelationSpec s{"s", 2, kBaseRows / 5, kBaseRows};
  DifferentialMaintainer m;
  CountedRelation view;

  E16Setup()
      : m((gen.Populate(&db, r), gen.Populate(&db, s),
           ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                          "r_a1 = s_a0", {"r_a0", "s_a1"})),
          &db) {
    view = m.FullEvaluate();
  }

  void Commit() {
    Transaction txn;
    gen.AddUpdates(&txn, r, 1, 1);
    TransactionEffect effect = txn.Normalize(db);
    ViewDelta delta = m.ComputeDelta(effect);
    effect.ApplyTo(&db);
    delta.ApplyTo(&view);
  }
};

// ns per `MVIEW_FAULT_POINT` with the registry fully disarmed: the cost
// every instrumented call site pays in production.
double DisabledPointNanos(size_t iters) {
  FaultRegistry::Global().DisarmAll();
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) {
    MVIEW_FAULT_POINT("bench.noop");
    benchmark::DoNotOptimize(i);
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

// ns per point when the registry is armed (with a different point): the
// slow path — mutex, map lookup, miss — that chaos tests pay on every hit.
double ArmedMissNanos(size_t iters) {
  FaultRegistry::Global().Arm("bench.unrelated", FaultSpec{});
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) {
    MVIEW_FAULT_POINT("bench.noop");
    benchmark::DoNotOptimize(i);
  }
  double nanos = timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
  FaultRegistry::Global().DisarmAll();
  return nanos;
}

// Exact fault-point hits per E16 commit: arm the hot-path points with
// firing probability 0, so hits are counted but nothing ever throws.
double PointsPerCommit(size_t commits) {
  const char* const points[] = {"differential.eval", "joincache.repair"};
  FaultSpec count_only;
  count_only.sticky = true;
  count_only.probability = 0.0;
  for (const char* p : points) FaultRegistry::Global().Arm(p, count_only);
  E16Setup setup;
  for (const char* p : points) FaultRegistry::Global().Arm(p, count_only);
  for (size_t i = 0; i < commits; ++i) setup.Commit();
  int64_t hits = 0;
  for (const char* p : points) hits += FaultRegistry::Global().HitCount(p);
  FaultRegistry::Global().DisarmAll();
  return static_cast<double>(hits) / static_cast<double>(commits);
}

// Min over rounds, fresh setup per round; min discards scheduler noise,
// which only ever inflates a round.
double MinTimePerCommit(bool armed, size_t rounds, size_t commits) {
  double best = 1e99;
  for (size_t i = 0; i < rounds; ++i) {
    FaultRegistry::Global().DisarmAll();
    if (armed) FaultRegistry::Global().Arm("bench.unrelated", FaultSpec{});
    E16Setup setup;
    for (size_t w = 0; w < 16; ++w) setup.Commit();  // warm the heap
    Stopwatch timer;
    for (size_t c = 0; c < commits; ++c) setup.Commit();
    best = std::min(best,
                    timer.ElapsedSeconds() / static_cast<double>(commits));
  }
  FaultRegistry::Global().DisarmAll();
  return best;
}

void BM_DisabledFaultPoint(benchmark::State& state) {
  FaultRegistry::Global().DisarmAll();
  for (auto _ : state) {
    MVIEW_FAULT_POINT("bm.noop");
  }
}
BENCHMARK(BM_DisabledFaultPoint);

void BM_ArmedMissFaultPoint(benchmark::State& state) {
  FaultRegistry::Global().Arm("bm.unrelated", FaultSpec{});
  for (auto _ : state) {
    MVIEW_FAULT_POINT("bm.noop");
  }
  FaultRegistry::Global().DisarmAll();
}
BENCHMARK(BM_ArmedMissFaultPoint);

void PrintSummary() {
  using bench::FormatSeconds;
  const size_t rounds = bench::Scaled(7, 2);
  const size_t commits = bench::Scaled(4000, 50);
  const size_t micro_iters = bench::Scaled(20'000'000, 10'000);

  const double point_ns = DisabledPointNanos(micro_iters);
  const double miss_ns = ArmedMissNanos(micro_iters / 20);
  const double points = PointsPerCommit(std::min<size_t>(commits, 500));
  const double t_disarmed = MinTimePerCommit(false, rounds, commits);
  const double t_armed = MinTimePerCommit(true, rounds, commits);

  const double disabled_pct = point_ns * points / (t_disarmed * 1e9) * 100.0;
  const double armed_pct = (t_armed / t_disarmed - 1.0) * 100.0;

  auto pct = [](double v, const char* suffix = "") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f%%%s", v, suffix);
    return std::string(buf);
  };
  char points_buf[32];
  std::snprintf(points_buf, sizeof(points_buf), "%.1f", points);
  bench::SummaryTable table(
      "E18: fault-registry overhead — E16 indexed-equi per-commit latency, "
      "registry disarmed vs armed-with-unrelated-point, min over rounds",
      {"config", "per commit", "points/commit", "overhead"});
  table.AddRow({"disarmed (production)", FormatSeconds(t_disarmed),
                points_buf, pct(disabled_pct, " (derived)")});
  table.AddRow({"armed, no match (chaos)", FormatSeconds(t_armed), points_buf,
                pct(armed_pct)});
  table.Print();
  std::printf("disabled point: %.2f ns   armed-miss point: %.2f ns\n\n",
              point_ns, miss_ns);

  bench::JsonRows json;
  json.Add({{"t_disarmed_s", t_disarmed},
            {"t_armed_s", t_armed},
            {"disabled_overhead_pct", disabled_pct},
            {"armed_overhead_pct", armed_pct},
            {"points_per_commit", points},
            {"disabled_point_nanos", point_ns},
            {"armed_miss_point_nanos", miss_ns}});
  json.WriteIfRequested();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
