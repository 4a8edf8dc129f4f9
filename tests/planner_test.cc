#include "ra/planner.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ivm_test_util.h"
#include "predicate/parser.h"
#include "ra/batch.h"
#include "ra/eval.h"
#include "test_util.h"
#include "util/arena.h"
#include "util/error.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::Rows;
using ::mview::testing::T;
using ::mview::testing::TC;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    r_ = &MakeRelation(&db_, "r", {"A", "B"}, {{1, 2}, {2, 10}, {5, 10}});
    s_ = &MakeRelation(&db_, "s", {"C", "D"}, {{10, 5}, {20, 12}, {2, 7}});
  }

  CountedRelation Run(const std::vector<const RelationInput*>& inputs,
                      const char* condition,
                      std::vector<std::string> projection = {},
                      PlanStats* stats = nullptr) {
    Condition cond = ParseCondition(condition);
    SpjQuery q;
    q.inputs = inputs;
    q.condition = &cond;
    q.projection = std::move(projection);
    return EvaluateSpj(q, stats);
  }

  Database db_;
  Relation* r_;
  Relation* s_;
};

TEST_F(PlannerTest, SingleInputSelect) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "B = 10");
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({2, 10}, 1), TC({5, 10}, 1)}));
}

TEST_F(PlannerTest, SingleInputProject) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "true", {"B"});
  EXPECT_EQ(v.Count(T({10})), 2);
}

TEST_F(PlannerTest, EquiJoinViaHash) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  PlanStats stats;
  auto v = Run({&r, &s}, "B = C", {"A", "D"}, &stats);
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({1, 7}, 1), TC({2, 5}, 1), TC({5, 5}, 1)}));
  EXPECT_GT(stats.rows_scanned, 0);
}

TEST_F(PlannerTest, EquiJoinViaIndexProbe) {
  s_->CreateIndex("C");
  // Make s large enough that the planner prefers probing it.
  for (int64_t i = 100; i < 200; ++i) s_->Insert(T({i, i}));
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  PlanStats stats;
  auto v = Run({&r, &s}, "B = C", {"A", "D"}, &stats);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_GT(stats.probes, 0) << "expected the index-join path";
}

TEST_F(PlannerTest, JoinWithOffset) {
  // B = C + 8: r.B=10 matches s.C=2.
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  auto v = Run({&r, &s}, "B = C + 8", {"A", "C"});
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({2, 2}, 1), TC({5, 2}, 1)}));
}

TEST_F(PlannerTest, CrossProductWhenNoJoinPredicate) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  auto v = Run({&r, &s}, "true");
  EXPECT_EQ(v.size(), 9u);
}

TEST_F(PlannerTest, CrossInputInequalityIsStepFilter) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  auto v = Run({&r, &s}, "B < C", {"A", "C"});
  // B=2 < C∈{10,20}; B=10 < C=20 (twice).
  EXPECT_EQ(v.Count(T({1, 10})), 1);
  EXPECT_EQ(v.Count(T({1, 20})), 1);
  EXPECT_EQ(v.Count(T({2, 20})), 1);
  EXPECT_EQ(v.Count(T({5, 20})), 1);
  EXPECT_EQ(v.size(), 4u);
}

TEST_F(PlannerTest, ResidualDisjunction) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "A = 1 || B = 10");
  EXPECT_EQ(v.size(), 3u);
  // No double counting for tuples satisfying both disjuncts.
  Relation both(Schema::OfInts({"A", "B"}));
  both.Insert(T({1, 10}));
  FullRelationInput b(&both, both.schema());
  auto v2 = Run({&b}, "A = 1 || B = 10");
  EXPECT_EQ(v2.Count(T({1, 10})), 1);
}

TEST_F(PlannerTest, DisjunctionWithCommonJoinCore) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  // B = C is in both disjuncts (the conjunctive core drives the join).
  auto v = Run({&r, &s}, "(B = C && D < 6) || (B = C && D > 6)", {"A", "D"});
  EXPECT_EQ(v.size(), 3u);
}

TEST_F(PlannerTest, FalseConditionYieldsEmpty) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "false");
  EXPECT_TRUE(v.empty());
}

TEST_F(PlannerTest, ThreeWayJoinChain) {
  MakeRelation(&db_, "t", {"E", "F"}, {{5, 100}, {12, 200}});
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  FullRelationInput t(&db_.Get("t"), db_.Get("t").schema());
  auto v = Run({&r, &s, &t}, "B = C && D = E", {"A", "F"});
  // r(2,10)-s(10,5)-t(5,100); r(5,10)-s(10,5)-t(5,100); s(20,12)-t(12,200)
  // needs r.B=20: none.
  EXPECT_EQ(Rows(v), (std::vector<std::pair<Tuple, int64_t>>{
                         TC({2, 100}, 1), TC({5, 100}, 1)}));
}

TEST_F(PlannerTest, CountsMultiplyThroughJoins) {
  CountedRelation cr(Schema::OfInts({"A"}));
  cr.Add(T({1}), 2);
  CountedRelation cs(Schema::OfInts({"B"}));
  cs.Add(T({1}), 3);
  CountedRelationInput ir(&cr, cr.schema());
  CountedRelationInput is(&cs, cs.schema());
  auto v = Run({&ir, &is}, "A = B");
  EXPECT_EQ(v.Count(T({1, 1})), 6);
}

TEST_F(PlannerTest, MultiplierScalesOutput) {
  FullRelationInput r(r_, r_->schema());
  Condition cond = ParseCondition("true");
  SpjQuery q;
  q.inputs = {&r};
  q.condition = &cond;
  CountedRelation out(r_->schema());
  EvaluateSpjInto(q, &out, 3);
  EXPECT_EQ(out.Count(T({1, 2})), 3);
}

TEST_F(PlannerTest, EmptyProjectionKeepsAllAttributes) {
  FullRelationInput r(r_, r_->schema());
  auto v = Run({&r}, "true");
  EXPECT_EQ(v.schema().size(), 2u);
}

TEST_F(PlannerTest, NoInputsThrows) {
  Condition cond = ParseCondition("true");
  SpjQuery q;
  q.condition = &cond;
  EXPECT_THROW(EvaluateSpj(q), Error);
}

TEST_F(PlannerTest, CacheReusesMaterializations) {
  FullRelationInput r(r_, r_->schema());
  FullRelationInput s(s_, s_->schema());
  Condition cond = ParseCondition("B = C");
  SpjQuery q;
  q.inputs = {&r, &s};
  q.condition = &cond;
  PlannerCache cache;
  PlanStats first, second;
  CountedRelation out1(CombinedSchema(q));
  CountedRelation out2(CombinedSchema(q));
  EvaluateSpjInto(q, &out1, 1, &first, &cache);
  EvaluateSpjInto(q, &out2, 1, &second, &cache);
  EXPECT_TRUE(out1.SameContents(out2));
  // The second run reuses the hash table: strictly fewer rows scanned.
  EXPECT_LT(second.rows_scanned, first.rows_scanned);
  EXPECT_GE(cache.size(), 1u);
}

// The per-round hash table against a nested-loop oracle.  Neither input
// has an index, so the step after the first scan always hashes its input;
// each case runs with either side the larger (hashed) one.

// Every (tuple, count) an input streams.
std::vector<std::pair<Tuple, int64_t>> Collect(const RelationInput& input) {
  class CollectSink final : public DeltaSink {
   public:
    void Emit(const Tuple& t, int64_t count) override {
      rows.emplace_back(t, count);
    }
    std::vector<std::pair<Tuple, int64_t>> rows;
  };
  CollectSink sink;
  input.Scan(sink);
  return std::move(sink.rows);
}

// Joins `a` and `b` on `condition` through the planner, which must build
// exactly one table, and compares the result with every pair of their rows
// that satisfies the condition, counts multiplied.
void ExpectTableJoinMatchesNestedLoop(const RelationInput& a,
                                      const RelationInput& b,
                                      const std::string& condition) {
  const Condition cond = ParseCondition(condition);
  SpjQuery q;
  q.inputs = {&a, &b};
  q.condition = &cond;
  const Schema combined = CombinedSchema(q);
  CountedRelation expected(combined);
  for (const auto& [ta, ca] : Collect(a)) {
    for (const auto& [tb, cb] : Collect(b)) {
      Tuple t = ta.Concat(tb);
      if (cond.Evaluate(combined, t)) expected.Add(t, ca * cb);
    }
  }
  PlannerCache cache;
  PlanStats stats;
  CountedRelation out(combined);
  EvaluateSpjInto(q, &out, 1, &stats, &cache);
  EXPECT_EQ(cache.size(), 1u) << condition;
  EXPECT_EQ(stats.probes, 0) << condition;
  EXPECT_TRUE(out.SameContents(expected))
      << condition << "\ngot:\n" << out.ToString() << "expected:\n"
      << expected.ToString();
}

// Keys of two attributes, an int and a string (inline and heap-held), many
// sharing their int part, so distinct keys meet in the table's probe runs.
TEST(TableJoinTest, MixedIntAndStringKeys) {
  auto make = [](const char* p, size_t n, int64_t shift) {
    Relation rel(Schema({{std::string(p) + "a", ValueType::kInt64},
                         {std::string(p) + "s", ValueType::kString},
                         {std::string(p) + "v", ValueType::kInt64}}));
    for (size_t i = 0; i < n; ++i) {
      const int64_t k = static_cast<int64_t>(i);
      const std::string str = (k % 3 == 0 ? "a string past the inline bytes "
                                          : "k") +
                              std::to_string((k * 7) % 500);
      rel.Insert(Tuple({Value(k % 2 + shift), Value(str), Value(k % 10)}));
    }
    return rel;
  };
  for (const auto& [r_rows, s_rows] :
       {std::pair<size_t, size_t>{300, 2000}, {2000, 300}}) {
    const Relation r = make("r", r_rows, 1);
    const Relation s = make("s", s_rows, 0);
    FullRelationInput ri(&r, r.schema());
    FullRelationInput si(&s, s.schema());
    ExpectTableJoinMatchesNestedLoop(ri, si, "ra = sa + 1 && rs = ss");
    ExpectTableJoinMatchesNestedLoop(ri, si, "rs = ss && ra = sa + 1");
    ExpectTableJoinMatchesNestedLoop(ri, si,
                                     "ss = rs && sa = ra - 1 && rv < sv");
  }
}

// Shifted int keys at the ends of int64: a key whose shifted value leaves
// int64 matches nothing, and one that stays inside matches exactly.
TEST(TableJoinTest, ShiftedKeysAtInt64Limits) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> edge = {kMin, kMin + 1, kMin + 2, -1, 0,
                                     1,    kMax - 2, kMax - 1, kMax};
  auto make = [&](const char* p, size_t fill) {
    Relation rel(Schema::OfInts({std::string(p) + "a", std::string(p) + "b"}));
    for (int64_t a : edge) {
      for (int64_t b : edge) rel.Insert(Tuple({Value(a), Value(b)}));
    }
    for (size_t i = 0; i < fill; ++i) {
      rel.Insert(Tuple({Value(static_cast<int64_t>(i)), Value(kMax)}));
    }
    return rel;
  };
  for (const auto& [r_fill, s_fill] :
       {std::pair<size_t, size_t>{0, 50}, {50, 0}}) {
    const Relation r = make("r", r_fill);
    const Relation s = make("s", s_fill);
    FullRelationInput ri(&r, r.schema());
    FullRelationInput si(&s, s.schema());
    for (const char* cond :
         {"ra = sa + 1", "ra = sa - 1", "ra = sa + 9223372036854775807",
          "ra = sa - 9223372036854775807", "ra = sa + 2 && rb = sb - 2",
          "ra = sa && rb = sb + 1"}) {
      ExpectTableJoinMatchesNestedLoop(ri, si, cond);
    }
  }
}

// Counted inputs: counts above one multiply through the hashed step.
TEST(TableJoinTest, CountedInputsMultiplyCounts) {
  auto make = [](const char* p, int64_t n) {
    CountedRelation rel(
        Schema::OfInts({std::string(p) + "a", std::string(p) + "b"}));
    for (int64_t i = 0; i < n; ++i) rel.Add(T({i % 7, i}), 1 + i % 4);
    return rel;
  };
  for (const auto& [r_rows, s_rows] :
       {std::pair<int64_t, int64_t>{20, 90}, {90, 20}}) {
    const CountedRelation r = make("r", r_rows);
    const CountedRelation s = make("s", s_rows);
    CountedRelationInput ri(&r, r.schema());
    CountedRelationInput si(&s, s.schema());
    ExpectTableJoinMatchesNestedLoop(ri, si, "ra = sa");
    ExpectTableJoinMatchesNestedLoop(ri, si, "ra = sa + 2 && rb < sb");
  }
}

// A subtracted input (`r − minus`, the clean part of a modified base)
// hashed with local filters on both sides.
TEST(TableJoinTest, SubtractedInputWithLocalFilters) {
  Database db;
  Relation& r = MakeRelation(&db, "r", {"ra", "rb"}, {});
  Relation& s = MakeRelation(&db, "s", {"sa", "sb"}, {});
  Relation& minus = MakeRelation(&db, "m", {"sa", "sb"}, {});
  for (int64_t i = 0; i < 40; ++i) r.Insert(T({i % 9, i}));
  for (int64_t i = 0; i < 300; ++i) {
    s.Insert(T({i % 11, i}));
    if (i % 4 == 0) minus.Insert(T({i % 11, i}));
  }
  FullRelationInput ri(&r, r.schema());
  SubtractRelationInput si(&s, &minus, s.schema());
  ExpectTableJoinMatchesNestedLoop(ri, si, "ra = sa && sb > 50");
  ExpectTableJoinMatchesNestedLoop(ri, si,
                                   "ra = sa - 1 && sb < 250 && rb > 3");
}

// Chunk boundaries.  A list of batches ramps 16, 32, … 1024 rows, so row
// counts around every ramp step (and past the cap) must neither drop nor
// duplicate rows — with local and step filters compacting partly filled
// chunks too — and the executor allocates just the chunks the ramp needs.

// Chunks a list needs to hold `rows` rows on the ramp.
int64_t RampChunks(size_t rows) {
  int64_t chunks = 0;
  size_t held = 0;
  for (size_t cap = ColumnBatch::kFirstCapacity; held < rows;
       cap = std::min(2 * cap, ColumnBatch::kDefaultCapacity)) {
    held += cap;
    ++chunks;
  }
  return chunks;
}

TEST(RampChunksTest, FollowsTheDoublingRamp) {
  EXPECT_EQ(RampChunks(0), 0);
  EXPECT_EQ(RampChunks(16), 1);
  EXPECT_EQ(RampChunks(17), 2);
  EXPECT_EQ(RampChunks(1008), 6);   // 16 + 32 + … + 512
  EXPECT_EQ(RampChunks(2032), 7);   // … + 1024
  EXPECT_EQ(RampChunks(2033), 8);
}

class ChunkBoundaryTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkBoundaryTest, ScansAndJoinsEqualNaiveEvaluation) {
  const size_t n = GetParam();
  // r holds `n` rows; each matches exactly one of s's five rows on B = C,
  // so a key join also moves `n` rows while the naive product stays 5n.
  constexpr size_t kS = 5;
  Database db;
  Relation& r_rel = MakeRelation(&db, "r", {"A", "B"}, {});
  Relation& s_rel = MakeRelation(&db, "s", {"C", "D"}, {});
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(i);
    r_rel.Insert(T({v, v % static_cast<int64_t>(kS)}));
  }
  for (size_t c = 0; c < kS; ++c) {
    const int64_t v = static_cast<int64_t>(c);
    s_rel.Insert(T({v, 400 * v}));
  }

  struct Case {
    const char* condition;
    std::vector<std::string> projection;
    bool join;
    bool filtered;
  };
  const Case cases[] = {
      {"true", {}, false, false},
      {"B < 2", {"A"}, false, true},         // local filter on the scan
      {"B = C", {"A", "D"}, true, false},    // key join
      {"B = C && B < 3 && D > 0", {"A", "D"}, true, true},  // both sides
      {"B = C && A > D", {"A", "B"}, true, true},  // step filter
  };
  for (const Case& c : cases) {
    std::vector<BaseRef> bases{BaseRef{"r", {}}};
    if (c.join) bases.push_back(BaseRef{"s", {}});
    const ViewDefinition def("v", bases, c.condition, c.projection);
    FullRelationInput r(&r_rel, r_rel.schema());
    FullRelationInput s(&s_rel, s_rel.schema());
    SpjQuery q;
    q.inputs = {&r};
    if (c.join) q.inputs.push_back(&s);
    q.condition = &def.condition();
    q.projection = c.projection;

    util::Arena arena;
    BatchEvalStats batch_stats;
    EvalContext ctx;
    ctx.arena = &arena;
    ctx.batch_stats = &batch_stats;
    CountedRelation out(c.projection.empty()
                            ? CombinedSchema(q)
                            : CombinedSchema(q).Project(c.projection));
    EvaluateSpjInto(q, &out, 1, nullptr, nullptr, &ctx);
    const CountedRelation expected = testing::NaiveEvaluate(def, db);
    EXPECT_TRUE(out.SameContents(expected))
        << c.condition << " over " << n << " rows\ngot " << out.size()
        << " rows, expected " << expected.size();

    // Unfiltered, the smaller input is scanned first, then the join step
    // moves `n` rows (no join step runs when the first scan is empty).
    const size_t first = c.join ? std::min(n, kS) : n;
    const size_t joined = c.join && first > 0 ? n : 0;
    const int64_t unfiltered = RampChunks(first) + RampChunks(joined);
    if (!c.filtered) {
      EXPECT_EQ(batch_stats.batches, unfiltered) << c.condition;
      EXPECT_EQ(batch_stats.rows, static_cast<int64_t>(first + joined))
          << c.condition;
    } else {
      // A filtered stage needs the chunks of its survivors, plus at most
      // one that a trailing rejected row opened.
      const int64_t stages = c.join ? 2 : 1;
      EXPECT_GE(batch_stats.batches, RampChunks(expected.size()))
          << c.condition;
      EXPECT_LE(batch_stats.batches, unfiltered + stages) << c.condition;
      if (!c.join) {
        // Below the cap a filtered scan seals each chunk it filled, so it
        // climbs the ramp with the rows scanned, not the survivors.
        const size_t below_cap =
            ColumnBatch::kDefaultCapacity - ColumnBatch::kFirstCapacity;
        EXPECT_GE(batch_stats.batches, RampChunks(std::min(n, below_cap)))
            << c.condition;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RampSteps, ChunkBoundaryTest,
                         ::testing::Values(0, 1, 15, 16, 17, 48, 1023, 1024,
                                           1025, 3000));

// Property: the planner agrees with the naive expression evaluator on
// randomized relations and conditions.
TEST(PlannerPropertyTest, AgreesWithNaiveEvaluator) {
  Rng rng(5150);
  for (int trial = 0; trial < 60; ++trial) {
    Database db;
    WorkloadGenerator gen(rng.Next());
    RelationSpec r{"r", 2, 8, static_cast<size_t>(rng.Uniform(0, 30))};
    RelationSpec s{"s", 2, 8, static_cast<size_t>(rng.Uniform(0, 30))};
    gen.Populate(&db, r);
    gen.Populate(&db, s);
    std::string cond_text;
    switch (rng.Uniform(0, 3)) {
      case 0:
        cond_text = "r_a1 = s_a0";
        break;
      case 1:
        cond_text = "r_a1 = s_a0 && r_a0 < 5";
        break;
      case 2:
        cond_text = "r_a1 = s_a0 && r_a0 < s_a1";
        break;
      default:
        cond_text = "(r_a1 = s_a0 && s_a1 < 4) || (r_a1 = s_a0 && r_a0 > 5)";
        break;
    }
    Condition cond = ParseCondition(cond_text);
    FullRelationInput ir(&db.Get("r"), db.Get("r").schema());
    FullRelationInput is(&db.Get("s"), db.Get("s").schema());
    SpjQuery q;
    q.inputs = {&ir, &is};
    q.condition = &cond;
    q.projection = {"r_a0", "s_a1"};
    CountedRelation fast = EvaluateSpj(q);
    CountedRelation slow = Evaluate(
        *Expr::Project(
            Expr::Select(Expr::Product(Expr::Base("r"), Expr::Base("s")),
                         cond),
            {"r_a0", "s_a1"}),
        db);
    EXPECT_TRUE(fast.SameContents(slow))
        << "condition: " << cond_text << "\nfast:\n"
        << fast.ToString() << "slow:\n"
        << slow.ToString();
  }
}

// Property: on three-way joins — an equi-join chain, an equi-join with a
// local filter on the third base (a cross-join step), an offset join with a
// cross-input inequality, and a residual disjunction — the planner agrees
// with the naive evaluator, which shares none of its code.
TEST(PlannerPropertyTest, ThreeWayAgreesWithNaiveEvaluator) {
  Rng rng(31337);
  const char* conditions[] = {
      "r_a1 = s_a0 && s_a1 = t_a0",
      "r_a1 = s_a0 && t_a1 > 4",
      "r_a1 = s_a0 + 1 && s_a1 < t_a0",
      "(r_a1 = s_a0 && t_a0 < 3) || (r_a1 = s_a0 && r_a0 > 5)",
  };
  for (int trial = 0; trial < 40; ++trial) {
    Database db;
    WorkloadGenerator gen(rng.Next());
    for (const char* name : {"r", "s", "t"}) {
      gen.Populate(&db, {name, 2, 8, static_cast<size_t>(rng.Uniform(0, 25))});
    }
    const ViewDefinition def(
        "v", {BaseRef{"r", {}}, BaseRef{"s", {}}, BaseRef{"t", {}}},
        conditions[rng.Uniform(0, 3)], {"r_a0", "t_a1"});
    FullRelationInput ir(&db.Get("r"), db.Get("r").schema());
    FullRelationInput is(&db.Get("s"), db.Get("s").schema());
    FullRelationInput it(&db.Get("t"), db.Get("t").schema());
    SpjQuery q;
    q.inputs = {&ir, &is, &it};
    q.condition = &def.condition();
    q.projection = def.projection();
    const CountedRelation by_planner = EvaluateSpj(q);
    const CountedRelation expected = testing::NaiveEvaluate(def, db);
    ASSERT_TRUE(by_planner.SameContents(expected))
        << def.condition().ToString() << "\nplanner:\n"
        << by_planner.ToString() << "naive:\n"
        << expected.ToString();
  }
}

}  // namespace
}  // namespace mview
