#include "ivm/irrelevance.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "ivm/differential.h"
#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::Fill;
using ::mview::testing::MakeRelation;
using ::mview::testing::T;

// The full setting of Example 4.1:
//   r(A,B) = {(1,2),(5,10)},  s(C,D) = {(2,10),(10,20),(12,15)},
//   v = π_{A,D}(σ_{(A<10) ∧ (C>5) ∧ (B=C)}(r × s)).
class Example41ViewTest : public ::testing::Test {
 protected:
  Example41ViewTest() {
    MakeRelation(&db_, "r", {"A", "B"}, {{1, 2}, {5, 10}});
    MakeRelation(&db_, "s", {"C", "D"}, {{2, 10}, {10, 20}, {12, 15}});
    def_ = ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                          "A < 10 && C > 5 && B = C", {"A", "D"});
    filter_ = std::make_unique<IrrelevanceFilter>(def_, db_);
  }
  Database db_;
  ViewDefinition def_;
  std::unique_ptr<IrrelevanceFilter> filter_;
};

TEST_F(Example41ViewTest, PaperVerdicts) {
  // "inserting the tuple (9,10) into relation r is relevant to the view v"
  EXPECT_TRUE(filter_->base_filter(0).MightBeRelevant(T({9, 10})));
  // "inserting the tuple (11,10) into relation r is (provably) irrelevant"
  EXPECT_FALSE(filter_->base_filter(0).MightBeRelevant(T({11, 10})));
}

TEST_F(Example41ViewTest, DeletionsUseTheSameTest) {
  EXPECT_TRUE(filter_->base_filter(0).MightBeRelevant(T({5, 10})));
  EXPECT_FALSE(filter_->base_filter(0).MightBeRelevant(T({11, 10})));
}

TEST_F(Example41ViewTest, UpdatesToSecondRelation) {
  EXPECT_TRUE(filter_->base_filter(1).MightBeRelevant(T({10, 20})));
  // C > 5 fails:
  EXPECT_FALSE(filter_->base_filter(1).MightBeRelevant(T({5, 20})));
  EXPECT_FALSE(filter_->base_filter(1).MightBeRelevant(T({2, 10})));
}

TEST_F(Example41ViewTest, ScreenKeepsTheRelevantTuples) {
  TransactionEffect effect;
  RelationEffect& r = effect.Mutable("r", db_.Get("r").schema());
  Fill(&r.inserts, {{9, 10}, {11, 10}, {3, 12}, {3, 4}});
  Fill(&r.deletes, {{5, 10}});
  MaintenanceStats stats;
  const auto survivors = filter_->Screen(effect, &stats);
  ASSERT_EQ(survivors.size(), 2u);
  // (11,10): A<10 fails; (3,4): B=C → C=4 ≤ 5.
  std::vector<Tuple> kept;
  for (const Tuple* t : survivors[0].inserts) kept.push_back(*t);
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<Tuple>{T({3, 12}), T({9, 10})}));
  ASSERT_EQ(survivors[0].deletes.size(), 1u);
  EXPECT_EQ(*survivors[0].deletes[0], T({5, 10}));
  EXPECT_TRUE(survivors[1].inserts.empty());  // s is untouched
  EXPECT_EQ(stats.updates_seen, 5);
  EXPECT_EQ(stats.updates_filtered, 2);
  EXPECT_EQ(stats.skipped_irrelevant, 0);
}

TEST_F(Example41ViewTest, ScreenCountsAFullyDroppedTransactionAsSkipped) {
  TransactionEffect effect;
  Fill(&effect.Mutable("r", db_.Get("r").schema()).inserts, {{11, 10}});
  Fill(&effect.Mutable("s", db_.Get("s").schema()).deletes, {{2, 10}});
  MaintenanceStats stats;
  const auto survivors = filter_->Screen(effect, &stats);
  EXPECT_TRUE(survivors[0].inserts.empty());
  EXPECT_TRUE(survivors[1].deletes.empty());
  EXPECT_EQ(stats.updates_seen, 2);
  EXPECT_EQ(stats.updates_filtered, 2);
  EXPECT_EQ(stats.skipped_irrelevant, 1);
}

TEST_F(Example41ViewTest, JointFilterTheorem42) {
  SubstitutionFilter joint = filter_->CompileJointFilter({0, 1});
  Tuple r_t = T({5, 7});
  Tuple s_good = T({7, 1});
  Tuple s_bad = T({9, 1});
  std::vector<const Tuple*> good{&r_t, &s_good};
  std::vector<const Tuple*> bad{&r_t, &s_bad};
  EXPECT_TRUE(joint.MightBeRelevant(good));
  EXPECT_FALSE(joint.MightBeRelevant(bad));  // 7 ≠ 9 contradicts B = C
  // Each tuple alone is relevant — the joint test is strictly stronger.
  EXPECT_TRUE(filter_->base_filter(0).MightBeRelevant(r_t));
  EXPECT_TRUE(filter_->base_filter(1).MightBeRelevant(s_bad));
}

TEST(IrrelevanceFilterTest, DisjunctiveCondition) {
  Database db;
  MakeRelation(&db, "r", {"A", "B"}, {});
  ViewDefinition def("v", {BaseRef{"r", {}}},
                     "(A < 0 && B = 1) || (A > 10 && B = 2)");
  IrrelevanceFilter filter(def, db);
  EXPECT_TRUE(filter.base_filter(0).MightBeRelevant(T({-1, 1})));
  EXPECT_TRUE(filter.base_filter(0).MightBeRelevant(T({11, 2})));
  EXPECT_FALSE(filter.base_filter(0).MightBeRelevant(T({-1, 2})));
  EXPECT_FALSE(filter.base_filter(0).MightBeRelevant(T({5, 1})));
}

TEST(IrrelevanceFilterTest, TrueConditionKeepsEverything) {
  Database db;
  MakeRelation(&db, "r", {"A"}, {});
  ViewDefinition def = ViewDefinition::Project("v", "r", {"A"});
  IrrelevanceFilter filter(def, db);
  EXPECT_TRUE(filter.base_filter(0).always_relevant());
  EXPECT_TRUE(filter.base_filter(0).MightBeRelevant(T({123})));
}

TEST(IrrelevanceFilterTest, BoundsChecking) {
  Database db;
  MakeRelation(&db, "r", {"A"}, {});
  ViewDefinition def = ViewDefinition::Select("v", "r", "A < 1");
  IrrelevanceFilter filter(def, db);
  EXPECT_EQ(filter.num_bases(), 1u);
  EXPECT_THROW(filter.base_filter(1).MightBeRelevant(T({0})), Error);
  EXPECT_THROW(filter.CompileJointFilter({3}), Error);
  EXPECT_THROW(filter.CompileJointFilter({}), Error);
}

TEST(IrrelevanceFilterTest, SelfJoinViewHasPerOccurrenceFilters) {
  Database db;
  MakeRelation(&db, "r", {"A", "B"}, {});
  auto def = ViewDefinition::NaturalJoin("v", {"r", "r"}, db, "A < 5");
  IrrelevanceFilter filter(def, db);
  ASSERT_EQ(filter.num_bases(), 2u);
  // First occurrence constrains A directly.
  EXPECT_FALSE(filter.base_filter(0).MightBeRelevant(T({7, 0})));
  // Join atoms tie the second occurrence's attributes to the first's: the
  // desugared equalities A = r.A and B = r.B force r.A = 7 ≥ 5.
  EXPECT_FALSE(filter.base_filter(1).MightBeRelevant(T({7, 0})));
  EXPECT_TRUE(filter.base_filter(1).MightBeRelevant(T({3, 0})));
}

}  // namespace
}  // namespace mview
