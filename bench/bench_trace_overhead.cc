// Experiment E17: tracing overhead ablation.  Claim to reproduce: the
// observability layer is cheap enough to leave compiled in.  On E16's
// indexed equi workload (r ⋈ s via DifferentialMaintainer, which indexes
// the join attributes, single-row transactions against r) the tracer
// costs ≤2% when disabled — each span site is one relaxed atomic load and
// branch — and ≤10% when enabled (two clock reads plus a seqlock ring
// write per span, ~2 spans per maintained commit on this path).
//
// Measurements:
//  1. End-to-end: identical commit loops against fresh setups,
//     tracer enabled vs disabled in alternating round pairs,
//     min-of-rounds per-commit latency.  The enabled/disabled ratio is the
//     *enabled* overhead; the median and IQR of each pair's ratio give
//     its spread.
//  2. Disabled-span microbenchmark: ns per `TraceSpan` with the tracer
//     off, times the spans-per-commit count observed in an enabled run,
//     over the disabled per-commit time.  The end-to-end delta of the
//     disabled branch is far below run-to-run noise, so it is derived
//     from the microbenchmark instead of differencing two noisy
//     measurements.
//  3. Secondary (informative): the same ablation through the full SQL
//     engine path — parse → screen → differential → apply for two views,
//     ~13 spans per commit — the span-densest commit the system can run.
//
// `--json <path>` writes the summary row (BENCH_E17.json in EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ivm/differential.h"
#include "obs/trace.h"
#include "sql/engine.h"
#include "util/stopwatch.h"
#include "workload/generator.h"

namespace mview {
namespace {

void SetTracer(bool traced) {
  obs::Tracer::Global().Clear();
  if (traced) {
    obs::Tracer::Global().Enable();
  } else {
    obs::Tracer::Global().Disable();
  }
}

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

// The span-densest path: the full SQL engine maintaining a join view and a
// select view per single-row insert.
struct EngineSetup {
  sql::Engine engine;
  int64_t next_key = 0;

  EngineSetup() {
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE TABLE s (b INT64, c INT64);"
        "CREATE MATERIALIZED VIEW join_v AS "
        "  SELECT * FROM r, s WHERE r.b = s.b;"
        "CREATE MATERIALIZED VIEW select_v AS "
        "  SELECT * FROM r WHERE a < 1000000000;");
    for (int64_t b = 0; b < 64; ++b) {
      engine.Execute("INSERT INTO s VALUES (" + std::to_string(b) + ", " +
                     std::to_string(b * 10) + ")");
    }
  }

  void Commit() {
    int64_t k = next_key++;
    engine.Execute("INSERT INTO r VALUES (" + std::to_string(k) + ", " +
                   std::to_string(k % 64) + ")");
  }
};

// Per-commit seconds of one round on a fresh setup, so both configurations
// see the same table-growth profile.
template <typename Setup>
double TimePerCommit(bool traced, size_t commits) {
  SetTracer(traced);
  Setup setup;
  for (size_t w = 0; w < 16; ++w) setup.Commit();  // warm the heap
  Stopwatch timer;
  for (size_t c = 0; c < commits; ++c) setup.Commit();
  const double seconds =
      timer.ElapsedSeconds() / static_cast<double>(commits);
  obs::Tracer::Global().Disable();
  return seconds;
}

// Spans recorded per commit, observed on a short enabled run.
template <typename Setup>
double SpansPerCommit(size_t commits) {
  SetTracer(true);
  Setup setup;
  obs::Tracer::Global().Clear();  // drop setup spans; count steady state only
  for (size_t i = 0; i < commits; ++i) setup.Commit();
  double spans = static_cast<double>(obs::Tracer::Global().Snapshot().size());
  obs::Tracer::Global().Disable();
  return spans / static_cast<double>(commits);
}

// ns per span construction+destruction with the tracer disabled: the cost
// of the relaxed-load-and-branch every instrumented call site pays.
double DisabledSpanNanos(size_t iters) {
  obs::Tracer::Global().Disable();
  static const uint32_t kName = obs::Tracer::Global().InternName("bench_noop");
  Stopwatch timer;
  for (size_t i = 0; i < iters; ++i) {
    obs::TraceSpan span(kName);
    benchmark::DoNotOptimize(&span);
  }
  return timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

void BM_DisabledSpan(benchmark::State& state) {
  obs::Tracer::Global().Disable();
  static const uint32_t kName = obs::Tracer::Global().InternName("bm_noop");
  for (auto _ : state) {
    obs::TraceSpan span(kName);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_DisabledSpan);

void BM_EnabledSpan(benchmark::State& state) {
  SetTracer(true);
  static const uint32_t kName = obs::Tracer::Global().InternName("bm_span");
  for (auto _ : state) {
    obs::TraceSpan span(kName);
    benchmark::DoNotOptimize(&span);
  }
  obs::Tracer::Global().Disable();
}
BENCHMARK(BM_EnabledSpan);

void BM_E16CommitUntraced(benchmark::State& state) {
  obs::Tracer::Global().Disable();
  E16Setup setup;
  for (auto _ : state) setup.Commit();
}
BENCHMARK(BM_E16CommitUntraced)
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond);

void BM_E16CommitTraced(benchmark::State& state) {
  SetTracer(true);
  E16Setup setup;
  for (auto _ : state) setup.Commit();
  obs::Tracer::Global().Disable();
}
BENCHMARK(BM_E16CommitTraced)->Iterations(2000)->Unit(benchmark::kMicrosecond);

struct Ablation {
  double t_disabled;
  double t_enabled;
  double spans_per_commit;
  double enabled_pct;
  bench::Spread paired_pct;  // enabled overhead of each round pair
  double disabled_pct;
};

// Rounds alternate disabled/enabled order in pairs.  The per-commit times
// are the min over rounds (scheduler noise only ever inflates a round);
// the spread is that of each pair's enabled/disabled ratio.
template <typename Setup>
Ablation RunAblation(size_t rounds, size_t commits, double span_ns) {
  Ablation a;
  a.t_disabled = a.t_enabled = 1e99;
  std::vector<double> paired;
  for (size_t i = 0; i < rounds; ++i) {
    const bool enabled_first = i % 2 == 1;
    const double first = TimePerCommit<Setup>(enabled_first, commits);
    const double second = TimePerCommit<Setup>(!enabled_first, commits);
    const double off = enabled_first ? second : first;
    const double on = enabled_first ? first : second;
    a.t_disabled = std::min(a.t_disabled, off);
    a.t_enabled = std::min(a.t_enabled, on);
    paired.push_back((on / off - 1.0) * 100.0);
  }
  a.spans_per_commit = SpansPerCommit<Setup>(std::min<size_t>(commits, 500));
  a.enabled_pct = (a.t_enabled / a.t_disabled - 1.0) * 100.0;
  a.paired_pct = bench::SpreadOf(paired);
  a.disabled_pct =
      span_ns * a.spans_per_commit / (a.t_disabled * 1e9) * 100.0;
  return a;
}

void PrintSummary() {
  using bench::FormatSeconds;
  const size_t rounds = bench::Scaled(11, 2);
  const size_t commits = bench::Scaled(4000, 50);
  const double span_ns = DisabledSpanNanos(bench::Scaled(20'000'000, 10'000));

  const Ablation e16 = RunAblation<E16Setup>(rounds, commits, span_ns);
  const Ablation eng = RunAblation<EngineSetup>(rounds, commits, span_ns);

  auto pct = [](double v, const char* suffix = "") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f%%%s", v, suffix);
    return std::string(buf);
  };
  auto paired = [](const bench::Spread& p) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f%% (IQR %.1f%%)", p.median, p.iqr);
    return std::string(buf);
  };
  auto spans = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  bench::SummaryTable table(
      "E17: tracing overhead — per-commit latency, tracer disabled vs "
      "enabled, min over rounds; paired = median and IQR of each round "
      "pair's ratio",
      {"workload", "config", "per commit", "spans", "overhead", "paired"});
  table.AddRow({"E16 indexed equi", "disabled", FormatSeconds(e16.t_disabled),
                "-", pct(e16.disabled_pct, " (derived)"), "-"});
  table.AddRow({"E16 indexed equi", "enabled", FormatSeconds(e16.t_enabled),
                spans(e16.spans_per_commit), pct(e16.enabled_pct),
                paired(e16.paired_pct)});
  table.AddRow({"engine 2 views", "disabled", FormatSeconds(eng.t_disabled),
                "-", pct(eng.disabled_pct, " (derived)"), "-"});
  table.AddRow({"engine 2 views", "enabled", FormatSeconds(eng.t_enabled),
                spans(eng.spans_per_commit), pct(eng.enabled_pct),
                paired(eng.paired_pct)});
  table.Print();
  std::printf("disabled span: %.2f ns\n\n", span_ns);

  bench::JsonRows json;
  json.Add({{"t_disabled_s", e16.t_disabled},
            {"t_enabled_s", e16.t_enabled},
            {"enabled_overhead_pct", e16.enabled_pct},
            {"enabled_overhead_paired_median_pct", e16.paired_pct.median},
            {"enabled_overhead_paired_iqr_pct", e16.paired_pct.iqr},
            {"disabled_overhead_pct", e16.disabled_pct},
            {"spans_per_commit", e16.spans_per_commit},
            {"disabled_span_nanos", span_ns},
            {"engine_t_disabled_s", eng.t_disabled},
            {"engine_t_enabled_s", eng.t_enabled},
            {"engine_enabled_overhead_pct", eng.enabled_pct},
            {"engine_enabled_overhead_paired_median_pct",
             eng.paired_pct.median},
            {"engine_enabled_overhead_paired_iqr_pct", eng.paired_pct.iqr},
            {"engine_disabled_overhead_pct", eng.disabled_pct},
            {"engine_spans_per_commit", eng.spans_per_commit}});
  json.WriteIfRequested();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
