#include "relational/tuple.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::T;

TEST(TupleTest, Access) {
  Tuple t = T({1, 2, 3});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.at(1).AsInt64(), 2);
  EXPECT_THROW(t.at(3), Error);
}

TEST(TupleTest, Concat) {
  Tuple t = T({1}).Concat(T({2, 3}));
  EXPECT_EQ(t, T({1, 2, 3}));
}

TEST(TupleTest, Project) {
  Tuple t = T({10, 20, 30});
  EXPECT_EQ(t.Project({2, 0}), T({30, 10}));
  EXPECT_EQ(t.Project({}), T({}));
  EXPECT_EQ(t.Project({1, 1}), T({20, 20}));
  EXPECT_THROW(t.Project({0, 3}), Error);
}

TEST(TupleTest, LexicographicOrder) {
  EXPECT_LT(T({1, 2}), T({1, 3}));
  EXPECT_LT(T({1}), T({1, 0}));
  EXPECT_FALSE(T({2, 0}) < T({1, 9}));
  Tuple a({Value(1), Value(std::string(16, 'a'))});
  Tuple b({Value(1), Value(std::string(16, 'b'))});
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_THROW((void)(T({1}) < Tuple({Value("1")})), Error);
}

TEST(TupleTest, HashAndEquality) {
  std::unordered_set<Tuple> set;
  set.insert(T({1, 2}));
  set.insert(T({1, 2}));
  set.insert(T({2, 1}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(T({1, 2})));
}

TEST(TupleTest, MixedTypeTuples) {
  Tuple t({Value(1), Value("x")});
  EXPECT_EQ(t.at(1).AsString(), "x");
  EXPECT_EQ(t.ToString(), "(1, \"x\")");
}

TEST(TupleTest, ToString) {
  EXPECT_EQ(T({1, 2}).ToString(), "(1, 2)");
  EXPECT_EQ(T({}).ToString(), "()");
}

// --- Representation -------------------------------------------------------

static_assert(sizeof(Tuple) == 16, "a Tuple is a pointer and a size");

TEST(TupleRepresentationTest, HoldsExactlyItsValues) {
  EXPECT_EQ(Tuple().size(), 0u);
  EXPECT_EQ(Tuple().values().data(), nullptr);
  EXPECT_EQ(T({1, 2, 3, 4}).values().size(), 4u);
  Tuple mixed({Value(1), Value("short"), Value(std::string(100, 'l'))});
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed.at(1).AsString(), "short");
  EXPECT_EQ(mixed.at(2).AsString(), std::string(100, 'l'));
}

TEST(TupleRepresentationTest, CopyMoveAndSelfAssignment) {
  Tuple t({Value(1), Value(std::string(32, 'x')), Value("")});
  Tuple copy(t);
  EXPECT_EQ(copy, t);
  EXPECT_NE(copy.values().data(), t.values().data());
  const Value* array = copy.values().data();
  Tuple moved(std::move(copy));
  EXPECT_EQ(moved.values().data(), array);  // a move steals the array
  EXPECT_EQ(moved, t);

  Tuple assigned = T({5});
  assigned = t;
  EXPECT_EQ(assigned, t);
  Tuple& alias = assigned;
  assigned = alias;
  EXPECT_EQ(assigned, t);
  assigned = std::move(alias);
  EXPECT_EQ(assigned, t);
  assigned = std::move(moved);
  EXPECT_EQ(assigned, t);
  assigned = Tuple();
  EXPECT_EQ(assigned.size(), 0u);
}

TEST(TupleRepresentationTest, MutableValuesWriteInPlace) {
  Tuple key = Tuple::OfSize(3);
  EXPECT_EQ(key, T({0, 0, 0}));
  key.mutable_values()[1] = Value(std::string(20, 'k'));
  EXPECT_EQ(key.at(1).AsString(), std::string(20, 'k'));
  EXPECT_EQ(key.size(), 3u);
}

// Golden values recorded from the `std::vector<Value>` representation this
// layout replaced (StableHash routes rows to partitions and scrub cursors).
TEST(TupleRepresentationTest, HashesMatchTheRecordedValues) {
  Tuple ints = T({1, 2, 3, 4});
  Tuple mixed({Value(7), Value("abc"), Value(std::string(20, 'q'))});
  EXPECT_EQ(ints.StableHash(), 0x28eb8a6e81265159ULL);
  EXPECT_EQ(mixed.StableHash(), 0x8d10e4a93f6da133ULL);
  EXPECT_EQ(Tuple().StableHash(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(ints.Hash(), 0x3b416357ee2715b9ULL);
  EXPECT_EQ(Tuple().Hash(), 0x51ed270bULL);
}

}  // namespace
}  // namespace mview
