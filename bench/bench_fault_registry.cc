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
// Every timing is taken over 11 rounds.  A round times the disarmed and
// the armed commit loop back to back, in alternating order, each on a
// fresh setup, and then the two point microbenchmarks.  The summary
// reports each timing's median and its interquartile range as a
// percentage of the median, and the median and IQR of each round's armed
// overhead, as E17 does: one slow round moves neither.
//
// `--json <path>` writes the summary row (BENCH_E18.json in
// EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

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

// Exact fault-point hits per E16 commit: arm the hot-path point with
// firing probability 0, so hits are counted but nothing ever throws.
double PointsPerCommit(size_t commits) {
  const char* const point = "differential.eval";
  FaultSpec count_only;
  count_only.sticky = true;
  count_only.probability = 0.0;
  FaultRegistry::Global().Arm(point, count_only);
  E16Setup setup;
  FaultRegistry::Global().Arm(point, count_only);
  for (size_t i = 0; i < commits; ++i) setup.Commit();
  const int64_t hits = FaultRegistry::Global().HitCount(point);
  FaultRegistry::Global().DisarmAll();
  return static_cast<double>(hits) / static_cast<double>(commits);
}

// Seconds per commit over `commits` commits on a fresh setup.
double TimePerCommit(bool armed, size_t commits) {
  FaultRegistry::Global().DisarmAll();
  if (armed) FaultRegistry::Global().Arm("bench.unrelated", FaultSpec{});
  E16Setup setup;
  for (size_t w = 0; w < 16; ++w) setup.Commit();  // warm the heap
  Stopwatch timer;
  for (size_t c = 0; c < commits; ++c) setup.Commit();
  const double t = timer.ElapsedSeconds() / static_cast<double>(commits);
  FaultRegistry::Global().DisarmAll();
  return t;
}

struct Rounds {
  bench::Spread t_disarmed;  // seconds per commit
  bench::Spread t_armed;
  bench::Spread armed_pct;   // each round's armed overhead
  bench::Spread point_ns;    // disarmed point
  bench::Spread miss_ns;     // armed-miss point
};

Rounds RunRounds(size_t rounds, size_t commits, size_t micro_iters) {
  std::vector<double> off, on, pct, point, miss;
  for (size_t i = 0; i < rounds; ++i) {
    const bool armed_first = i % 2 == 1;
    const double first = TimePerCommit(armed_first, commits);
    const double second = TimePerCommit(!armed_first, commits);
    off.push_back(armed_first ? second : first);
    on.push_back(armed_first ? first : second);
    pct.push_back((on.back() / off.back() - 1.0) * 100.0);
    point.push_back(DisabledPointNanos(micro_iters));
    miss.push_back(ArmedMissNanos(micro_iters / 20));
  }
  return {bench::SpreadOf(off), bench::SpreadOf(on), bench::SpreadOf(pct),
          bench::SpreadOf(point), bench::SpreadOf(miss)};
}

// The IQR as a percentage of the median.
double IqrPct(const bench::Spread& s) {
  return s.median > 0 ? s.iqr / s.median * 100.0 : 0;
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
  const size_t rounds = bench::Scaled(11, 2);
  const size_t commits = bench::Scaled(4000, 50);
  const size_t micro_iters = bench::Scaled(2'000'000, 10'000);

  const double points = PointsPerCommit(std::min<size_t>(commits, 500));
  const Rounds r = RunRounds(rounds, commits, micro_iters);
  const double disabled_pct =
      r.point_ns.median * points / (r.t_disarmed.median * 1e9) * 100.0;

  auto pct = [](double v, const char* suffix = "") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f%%%s", v, suffix);
    return std::string(buf);
  };
  auto time = [&](const bench::Spread& s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (IQR %.1f%%)", IqrPct(s));
    return FormatSeconds(s.median) + buf;
  };
  char points_buf[32];
  std::snprintf(points_buf, sizeof(points_buf), "%.1f", points);
  char paired_buf[64];
  std::snprintf(paired_buf, sizeof(paired_buf), "%.2f%% (IQR %.2f%%)",
                r.armed_pct.median, r.armed_pct.iqr);
  bench::SummaryTable table(
      "E18: fault-registry overhead — E16 indexed-equi per-commit latency, "
      "registry disarmed vs armed-with-unrelated-point, median over "
      "alternating rounds",
      {"config", "per commit", "points/commit", "overhead"});
  table.AddRow({"disarmed (production)", time(r.t_disarmed), points_buf,
                pct(disabled_pct, " (derived)")});
  table.AddRow({"armed, no match (chaos)", time(r.t_armed), points_buf,
                paired_buf});
  table.Print();
  std::printf("disabled point: %.2f ns (IQR %.1f%%)   armed-miss point: "
              "%.2f ns (IQR %.1f%%)\n\n",
              r.point_ns.median, IqrPct(r.point_ns), r.miss_ns.median,
              IqrPct(r.miss_ns));

  bench::JsonRows json;
  // The per-config IQRs stay in the table: one round's stall moves them
  // by tens of points between runs, so they would trip the bench-diff gate
  // on noise.
  json.Add({{"t_disarmed_median_s", r.t_disarmed.median},
            {"t_armed_median_s", r.t_armed.median},
            {"disabled_overhead_pct", disabled_pct},
            {"armed_overhead_paired_median_pct", r.armed_pct.median},
            {"armed_overhead_paired_iqr_pct", r.armed_pct.iqr},
            {"points_per_commit", points},
            {"disabled_point_median_nanos", r.point_ns.median},
            {"armed_miss_point_median_nanos", r.miss_ns.median}});
  json.WriteIfRequested();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
