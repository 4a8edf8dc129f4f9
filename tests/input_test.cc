#include "ra/input.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>

#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::Fill;
using ::mview::testing::T;

// Test-local adapter from a lambda to the native `DeltaSink` interface the
// input streams feed (the production bridge was retired with the
// tuple-callback path).
class LambdaSink final : public DeltaSink {
 public:
  explicit LambdaSink(std::function<void(const Tuple&, int64_t)> fn)
      : fn_(std::move(fn)) {}

  void Emit(const Tuple& tuple, int64_t count) override { fn_(tuple, count); }

 private:
  std::function<void(const Tuple&, int64_t)> fn_;
};

std::map<Tuple, int64_t> Collect(const RelationInput& input) {
  std::map<Tuple, int64_t> out;
  LambdaSink sink([&](const Tuple& t, int64_t c) { out[t] += c; });
  input.Scan(sink);
  return out;
}

TEST(FullRelationInputTest, ScansEverythingWithCountOne) {
  Relation r(Schema::OfInts({"A"}));
  Fill(&r, {{1}, {2}});
  FullRelationInput input(&r, r.schema());
  auto rows = Collect(input);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[T({1})], 1);
  EXPECT_EQ(input.SizeHint(), 2u);
}

TEST(FullRelationInputTest, AliasedSchema) {
  Relation r(Schema::OfInts({"A"}));
  FullRelationInput input(&r, Schema::OfInts({"x_A"}));
  EXPECT_TRUE(input.schema().Contains("x_A"));
  EXPECT_THROW(FullRelationInput(&r, Schema::OfInts({"a", "b"})), Error);
}

TEST(FullRelationInputTest, ProbeDelegatesToIndex) {
  Relation r(Schema::OfInts({"A", "B"}));
  Fill(&r, {{1, 10}, {2, 10}, {3, 30}});
  EXPECT_FALSE(FullRelationInput(&r, r.schema()).CanProbe(1));
  r.CreateIndex("B");
  FullRelationInput input(&r, r.schema());
  ASSERT_TRUE(input.CanProbe(1));
  int hits = 0;
  LambdaSink count_hits([&](const Tuple&, int64_t) { ++hits; });
  input.ProbeEqual(1, Value(10), count_hits);
  EXPECT_EQ(hits, 2);
  input.ProbeEqual(1, Value(99), count_hits);
  EXPECT_EQ(hits, 2);
}

TEST(SubtractRelationInputTest, SkipsMinusTuples) {
  Relation r(Schema::OfInts({"A"}));
  Fill(&r, {{1}, {2}, {3}});
  Relation minus(Schema::OfInts({"A"}));
  Fill(&minus, {{2}});
  SubtractRelationInput input(&r, &minus, r.schema());
  auto rows = Collect(input);
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.count(T({2})), 0u);
  EXPECT_EQ(input.SizeHint(), 2u);
}

TEST(SubtractRelationInputTest, ProbeFiltersMinus) {
  Relation r(Schema::OfInts({"A", "B"}));
  Fill(&r, {{1, 10}, {2, 10}});
  r.CreateIndex("B");
  Relation minus(Schema::OfInts({"A", "B"}));
  Fill(&minus, {{1, 10}});
  SubtractRelationInput input(&r, &minus, r.schema());
  ASSERT_TRUE(input.CanProbe(1));
  std::vector<Tuple> hits;
  LambdaSink collect([&](const Tuple& t, int64_t) { hits.push_back(t); });
  input.ProbeEqual(1, Value(10), collect);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], T({2, 10}));
}

TEST(CountedRelationInputTest, PreservesCounts) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 3);
  r.Add(T({2}), 1);
  CountedRelationInput input(&r, r.schema());
  auto rows = Collect(input);
  EXPECT_EQ(rows[T({1})], 3);
  EXPECT_EQ(input.SizeHint(), 2u);
  EXPECT_FALSE(input.CanProbe(0));
  LambdaSink ignore([](const Tuple&, int64_t) {});
  EXPECT_THROW(input.ProbeEqual(0, Value(1), ignore), Error);
}

}  // namespace
}  // namespace mview
