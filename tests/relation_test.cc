#include "relational/relation.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::Fill;
using ::mview::testing::T;

TEST(RelationTest, InsertEraseContains) {
  Relation r(Schema::OfInts({"A", "B"}));
  EXPECT_TRUE(r.Insert(T({1, 2})));
  EXPECT_FALSE(r.Insert(T({1, 2})));  // set semantics
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains(T({1, 2})));
  EXPECT_TRUE(r.Erase(T({1, 2})));
  EXPECT_FALSE(r.Erase(T({1, 2})));
  EXPECT_TRUE(r.empty());
}

TEST(RelationTest, ArityMismatchThrows) {
  Relation r(Schema::OfInts({"A", "B"}));
  EXPECT_THROW(r.Insert(T({1})), Error);
}

TEST(RelationTest, ScanVisitsEveryTuple) {
  Relation r(Schema::OfInts({"A"}));
  Fill(&r, {{1}, {2}, {3}});
  int64_t sum = 0;
  r.Scan([&](const Tuple& t) { sum += t.at(0).AsInt64(); });
  EXPECT_EQ(sum, 6);
}

TEST(RelationTest, SortedVectorAndToString) {
  Relation r(Schema::OfInts({"A"}));
  Fill(&r, {{3}, {1}, {2}});
  auto sorted = r.ToSortedVector();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], T({1}));
  EXPECT_EQ(sorted[2], T({3}));
  EXPECT_EQ(r.ToString(), "(1)\n(2)\n(3)\n");
}

TEST(RelationIndexTest, ProbeFindsMatches) {
  Relation r(Schema::OfInts({"A", "B"}));
  Fill(&r, {{1, 10}, {2, 10}, {3, 20}});
  r.CreateIndex("B");
  size_t b_idx = r.schema().MustIndexOf("B");
  ASSERT_TRUE(r.HasIndex(b_idx));
  const RowChain hits = r.Probe(b_idx, Value(10));
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(std::distance(hits.begin(), hits.end()), 2);
  EXPECT_TRUE(r.Probe(b_idx, Value(99)).empty());
}

TEST(RelationIndexTest, IndexMaintainedAcrossUpdates) {
  Relation r(Schema::OfInts({"A", "B"}));
  r.CreateIndex("B");
  size_t b_idx = 1;
  r.Insert(T({1, 10}));
  r.Insert(T({2, 10}));
  r.Erase(T({1, 10}));
  const RowChain hits = r.Probe(b_idx, Value(10));
  ASSERT_EQ(std::distance(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*hits.begin(), T({2, 10}));
  r.Erase(T({2, 10}));
  EXPECT_TRUE(r.Probe(b_idx, Value(10)).empty());
}

TEST(RelationIndexTest, IndexSurvivesRehash) {
  Relation r(Schema::OfInts({"A"}));
  r.CreateIndex("A");
  for (int64_t i = 0; i < 10000; ++i) r.Insert(T({i}));
  const RowChain hits = r.Probe(0, Value(1234));
  ASSERT_EQ(std::distance(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*hits.begin(), T({1234}));
}

TEST(RelationIndexTest, ProbeWithoutIndexThrows) {
  Relation r(Schema::OfInts({"A"}));
  EXPECT_THROW(r.Probe(0, Value(1)), Error);
}

TEST(CountedRelationTest, AddAndCount) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 2);
  r.Add(T({1}), 3);
  EXPECT_EQ(r.Count(T({1})), 5);
  EXPECT_EQ(r.TotalCount(), 5);
  EXPECT_EQ(r.size(), 1u);
}

TEST(CountedRelationTest, ZeroAddIsNoop) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 0);
  EXPECT_TRUE(r.empty());
}

TEST(CountedRelationTest, CountReachingZeroRemovesTuple) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 2);
  r.Add(T({1}), -2);
  EXPECT_FALSE(r.Contains(T({1})));
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.TotalCount(), 0);
}

TEST(CountedRelationTest, NegativeCountThrows) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 1);
  EXPECT_THROW(r.Add(T({1}), -2), Error);
}

TEST(CountedRelationTest, SameContents) {
  CountedRelation a(Schema::OfInts({"A"}));
  CountedRelation b(Schema::OfInts({"A"}));
  a.Add(T({1}), 2);
  b.Add(T({1}), 2);
  EXPECT_TRUE(a.SameContents(b));
  b.Add(T({1}), 1);
  EXPECT_FALSE(a.SameContents(b));
  b.Add(T({1}), -1);
  b.Add(T({2}), 1);
  EXPECT_FALSE(a.SameContents(b));
}

TEST(CountedRelationTest, ToStringSorted) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({2}), 1);
  r.Add(T({1}), 3);
  EXPECT_EQ(r.ToString(), "(1) x3\n(2) x1\n");
}

TEST(CountedRelationTest, ClearResets) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 4);
  r.Clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.TotalCount(), 0);
}

}  // namespace
}  // namespace mview
