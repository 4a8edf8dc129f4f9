// Experiment E10 (Theorem 4.2): simultaneous substitution of tuples from
// several relations detects irrelevant *combinations* that per-tuple
// filtering keeps.  The paper proposes the theorem as an analytical
// extension rather than an implementation; this bench quantifies both the
// extra detection power and its cost, justifying that stance.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "ivm/irrelevance.h"
#include "workload/generator.h"

namespace mview {
namespace {

struct Setup {
  Database db;
  ViewDefinition def;
  std::unique_ptr<IrrelevanceFilter> filter;
  std::unique_ptr<SubstitutionFilter> joint;

  Setup() {
    db.CreateRelation("r", Schema::OfInts({"A", "B"}));
    db.CreateRelation("s", Schema::OfInts({"C", "D"}));
    // B = C ties the pair; A < 50 and D > 10 constrain each side.
    def = ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                         "A < 50 && B = C && D > 10", {"A", "D"});
    filter = std::make_unique<IrrelevanceFilter>(def, db);
    joint = std::make_unique<SubstitutionFilter>(
        filter->CompileJointFilter({0, 1}));
  }
};

void BM_SingleTupleFilter(benchmark::State& state) {
  Setup setup;
  Rng rng(42);
  for (auto _ : state) {
    Tuple t({Value(rng.Uniform(0, 99)), Value(rng.Uniform(0, 99))});
    benchmark::DoNotOptimize(setup.filter->base_filter(0).MightBeRelevant(t));
  }
}
BENCHMARK(BM_SingleTupleFilter);

void BM_JointPairFilter(benchmark::State& state) {
  Setup setup;
  Rng rng(42);
  for (auto _ : state) {
    Tuple r_t({Value(rng.Uniform(0, 99)), Value(rng.Uniform(0, 99))});
    Tuple s_t({Value(rng.Uniform(0, 99)), Value(rng.Uniform(0, 99))});
    std::vector<const Tuple*> pair{&r_t, &s_t};
    benchmark::DoNotOptimize(setup.joint->MightBeRelevant(pair));
  }
}
BENCHMARK(BM_JointPairFilter);

void PrintSummary() {
  Setup setup;
  Rng rng(7);
  const int kPairs = static_cast<int>(bench::Scaled(20000, 500));
  int single_kept_both = 0;
  int joint_kept = 0;
  double single_time, joint_time;
  std::vector<std::pair<Tuple, Tuple>> pairs;
  pairs.reserve(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    pairs.emplace_back(
        Tuple({Value(rng.Uniform(0, 99)), Value(rng.Uniform(0, 99))}),
        Tuple({Value(rng.Uniform(0, 99)), Value(rng.Uniform(0, 99))}));
  }
  {
    Stopwatch timer;
    for (const auto& [r_t, s_t] : pairs) {
      if (setup.filter->base_filter(0).MightBeRelevant(r_t) &&
          setup.filter->base_filter(1).MightBeRelevant(s_t)) {
        ++single_kept_both;
      }
    }
    single_time = timer.ElapsedSeconds();
  }
  {
    Stopwatch timer;
    for (const auto& [r_t, s_t] : pairs) {
      std::vector<const Tuple*> pair{&r_t, &s_t};
      if (setup.joint->MightBeRelevant(pair)) ++joint_kept;
    }
    joint_time = timer.ElapsedSeconds();
  }
  bench::SummaryTable table(
      "E10: Theorem 4.2 — joint (pair) irrelevance vs. per-tuple filtering "
      "on " + std::to_string(kPairs) +
          " random (r, s) tuple pairs; condition A<50 && B=C && D>10",
      {"method", "pairs kept", "kept %", "total time"});
  auto pct = [&](int kept) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  100.0 * kept / static_cast<double>(kPairs));
    return std::string(buf);
  };
  table.AddRow({"per-tuple (Thm 4.1 each)", std::to_string(single_kept_both),
                pct(single_kept_both), bench::FormatSeconds(single_time)});
  table.AddRow({"joint pair (Thm 4.2)", std::to_string(joint_kept),
                pct(joint_kept), bench::FormatSeconds(joint_time)});
  table.Print();
  std::printf(
      "Joint filtering keeps %.1f%% of the pairs the per-tuple filter "
      "keeps (the B = C link prunes mismatched pairs).\n\n",
      100.0 * joint_kept / std::max(1, single_kept_both));
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
