#include <gtest/gtest.h>

#include "ivm/differential.h"
#include "ivm/irrelevance.h"
#include "ivm_test_util.h"
#include "test_util.h"
#include "util/random.h"

namespace mview {
namespace {

using ::mview::testing::NaiveEvaluate;
using ::mview::testing::RandomRhCondition;
using ::mview::testing::T;

// Soundness of Theorem 4.1 ("if" direction): when the screen declares a
// tuple irrelevant, inserting or deleting it must leave the view unchanged
// for EVERY database state.  We sample many random database states and
// verify the view — evaluated by `testing::NaiveEvaluate`, which shares no
// code with the maintainer — is identical with and without the tuple.
//
// Exactness on the RH class ("only if" direction) is checked structurally:
// when the filter keeps a tuple, the substituted condition must be
// satisfiable, i.e. some witness state exists (substitution_test checks the
// equivalence against the satisfiability engine; here we additionally
// confirm witnesses are constructible for simple equality conditions).

TEST(IrrelevancePropertyTest, IrrelevantUpdatesNeverChangeTheView) {
  Rng rng(314159);
  auto uniform = [&](int64_t lo, int64_t hi) { return rng.Uniform(lo, hi); };
  int irrelevant_checked = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Condition cond =
        RandomRhCondition(uniform, {"r_a0", "r_a1", "s_a0", "s_a1"}, 7);
    Database db;
    db.CreateRelation("r", Schema::OfInts({"r_a0", "r_a1"}));
    db.CreateRelation("s", Schema::OfInts({"s_a0", "s_a1"}));
    ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}}, cond,
                       {"r_a0", "s_a1"});
    IrrelevanceFilter filter(def, db);
    Tuple candidate = T({rng.Uniform(0, 7), rng.Uniform(0, 7)});
    if (filter.base_filter(0).MightBeRelevant(candidate)) continue;
    ++irrelevant_checked;
    // Sample several random database states; the view must be oblivious to
    // the candidate tuple in each one.
    for (int state = 0; state < 8; ++state) {
      Database probe;
      Relation& r = probe.CreateRelation(
          "r", Schema::OfInts({"r_a0", "r_a1"}));
      Relation& s = probe.CreateRelation(
          "s", Schema::OfInts({"s_a0", "s_a1"}));
      for (int i = 0; i < 12; ++i) {
        r.Insert(T({rng.Uniform(0, 7), rng.Uniform(0, 7)}));
        s.Insert(T({rng.Uniform(0, 7), rng.Uniform(0, 7)}));
      }
      r.Erase(candidate);
      CountedRelation without = NaiveEvaluate(def, probe);
      r.Insert(candidate);
      CountedRelation with = NaiveEvaluate(def, probe);
      ASSERT_TRUE(with.SameContents(without))
          << "irrelevant tuple changed the view; condition: "
          << cond.ToString() << " tuple: " << candidate.ToString();
    }
  }
  // The generator must actually exercise the irrelevant path.
  EXPECT_GT(irrelevant_checked, 10);
}

TEST(IrrelevancePropertyTest, RelevantVerdictsHaveWitnessStates) {
  // For the equality-join view of Example 4.1, every kept r-tuple has a
  // witness database (construct it as in the theorem's proof: one matching
  // s-tuple) in which the tuple's presence changes the view.
  Database db;
  db.CreateRelation("r", Schema::OfInts({"A", "B"}));
  db.CreateRelation("s", Schema::OfInts({"C", "D"}));
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "A < 10 && C > 5 && B = C", {"A", "D"});
  IrrelevanceFilter filter(def, db);
  Rng rng(77);
  int relevant_checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Tuple candidate = T({rng.Uniform(-2, 12), rng.Uniform(0, 12)});
    if (!filter.base_filter(0).MightBeRelevant(candidate)) {
      // Verdict must match the paper's analysis: irrelevant iff A ≥ 10 or
      // B ≤ 5 (since B = C and C > 5 force B > 5).
      EXPECT_TRUE(candidate.at(0).AsInt64() >= 10 ||
                  candidate.at(1).AsInt64() <= 5)
          << candidate.ToString();
      continue;
    }
    ++relevant_checked;
    EXPECT_TRUE(candidate.at(0).AsInt64() < 10 &&
                candidate.at(1).AsInt64() > 5)
        << candidate.ToString();
    // Theorem 4.1 witness: D1 = {r = {t}, s = {(t(B), 0)}} yields one view
    // tuple; removing t empties it.
    Database witness;
    Relation& r = witness.CreateRelation("r", Schema::OfInts({"A", "B"}));
    Relation& s = witness.CreateRelation("s", Schema::OfInts({"C", "D"}));
    s.Insert(T({candidate.at(1).AsInt64(), 0}));
    EXPECT_TRUE(NaiveEvaluate(def, witness).empty());
    r.Insert(candidate);
    EXPECT_EQ(NaiveEvaluate(def, witness).size(), 1u) << candidate.ToString();
  }
  EXPECT_GT(relevant_checked, 20);
}

// Theorem 4.1 against the production screen: over random conditions of
// the RH class on two or three relations, every tuple that
// `IrrelevanceFilter::Screen` drops — at every base position, as an insert
// and as a delete — must leave the naive evaluation of the view unchanged
// when it alone is added to or removed from random database states.
TEST(IrrelevancePropertyTest, ScreenedTuplesNeverChangeTheNaiveView) {
  constexpr int64_t kMax = 5;  // attribute domain [0, kMax]
  const std::vector<std::string> names = {"r", "s", "t"};
  Rng rng(2718);
  auto uniform = [&](int64_t lo, int64_t hi) { return rng.Uniform(lo, hi); };
  int dropped_checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t k = static_cast<size_t>(rng.Uniform(2, 3));
    Database db;
    std::vector<std::string> vars;
    std::vector<BaseRef> bases;
    for (size_t i = 0; i < k; ++i) {
      const std::string a0 = names[i] + "_a0", a1 = names[i] + "_a1";
      db.CreateRelation(names[i], Schema::OfInts({a0, a1}));
      vars.insert(vars.end(), {a0, a1});
      bases.push_back(BaseRef{names[i], {}});
    }
    const Condition cond = RandomRhCondition(uniform, vars, kMax);
    const ViewDefinition def("v", bases, cond, {"r_a0", vars.back()});
    const IrrelevanceFilter filter(def, db);
    for (size_t i = 0; i < k; ++i) {
      const Schema& schema = db.Get(names[i]).schema();
      // Every tuple of the domain, offered to the screen as inserts and
      // (in a second effect) as deletes of base position `i`.
      TransactionEffect as_inserts, as_deletes;
      RelationEffect& ins = as_inserts.Mutable(names[i], schema);
      RelationEffect& del = as_deletes.Mutable(names[i], schema);
      for (int64_t a = 0; a <= kMax; ++a) {
        for (int64_t b = 0; b <= kMax; ++b) {
          ins.inserts.Insert(T({a, b}));
          del.deletes.Insert(T({a, b}));
        }
      }
      MaintenanceStats stats;
      const auto kept_ins = filter.Screen(as_inserts, &stats)[i].inserts;
      const auto kept_del = filter.Screen(as_deletes, &stats)[i].deletes;
      const int64_t domain = (kMax + 1) * (kMax + 1);
      ASSERT_EQ(stats.updates_seen, 2 * domain);
      ASSERT_EQ(stats.updates_filtered,
                2 * domain - static_cast<int64_t>(kept_ins.size() +
                                                   kept_del.size()));
      std::vector<Tuple> dropped;
      auto collect = [&](const Relation& offered,
                         const std::vector<const Tuple*>& kept) {
        Relation survived(schema);
        for (const Tuple* t : kept) survived.Insert(*t);
        offered.Scan([&](const Tuple& t) {
          if (!survived.Contains(t)) dropped.push_back(t);
        });
      };
      collect(ins.inserts, kept_ins);  // dropped as an insert
      collect(del.deletes, kept_del);  // dropped as a delete
      for (const Tuple& t : dropped) {
        ++dropped_checked;
        for (int state = 0; state < 3; ++state) {
          Database probe;
          for (size_t j = 0; j < k; ++j) {
            Relation& rel =
                probe.CreateRelation(names[j], db.Get(names[j]).schema());
            for (int row = 0; row < 6; ++row) {
              rel.Insert(T({rng.Uniform(0, kMax), rng.Uniform(0, kMax)}));
            }
          }
          Relation& target = probe.Get(names[i]);
          target.Erase(t);
          const CountedRelation without = NaiveEvaluate(def, probe);
          target.Insert(t);
          ASSERT_TRUE(NaiveEvaluate(def, probe).SameContents(without))
              << "a screened tuple changed the view; condition: "
              << cond.ToString() << ", base " << names[i]
              << ", tuple: " << t.ToString();
        }
      }
    }
  }
  // The generator must actually exercise the screen's drops.
  EXPECT_GT(dropped_checked, 200);
  RecordProperty("dropped_checked", dropped_checked);
}

}  // namespace
}  // namespace mview
