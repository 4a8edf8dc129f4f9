#include "relational/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/error.h"

namespace mview {
namespace {

TEST(ValueTest, DefaultIsIntZero) {
  Value v;
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 0);
}

TEST(ValueTest, IntRoundTrip) {
  Value v(42);
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 42);
  EXPECT_EQ(Value(int64_t{-7}).AsInt64(), -7);
}

TEST(ValueTest, StringRoundTrip) {
  Value v("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
}

TEST(ValueTest, WrongAccessorThrows) {
  EXPECT_THROW(Value(1).AsString(), Error);
  EXPECT_THROW(Value("x").AsInt64(), Error);
  EXPECT_THROW(Value(std::string(40, 's')).AsInt64(), Error);
}

TEST(ValueTest, IntComparisons) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_GT(Value(3), Value(2));
  EXPECT_EQ(Value(5), Value(5));
  EXPECT_NE(Value(5), Value(6));
  EXPECT_LE(Value(5), Value(5));
  EXPECT_GE(Value(5), Value(5));
}

TEST(ValueTest, StringComparisonsAreLexicographic) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, MixedTypeComparisonThrows) {
  EXPECT_THROW((void)Value(1).Compare(Value("1")), Error);
  EXPECT_THROW((void)(Value("a") < Value(2)), Error);
  EXPECT_THROW((void)(Value(std::string(40, 's')) < Value(0)), Error);
}

TEST(ValueTest, MixedTypeEqualityIsFalseNotThrow) {
  // Values of different types are unequal; only ordering them throws.
  EXPECT_FALSE(Value(1) == Value("1"));
  EXPECT_TRUE(Value(1) != Value("1"));
  EXPECT_FALSE(Value(int64_t{0}) == Value(""));  // zero bytes, other tag
}

TEST(ValueTest, HashDistinguishesTypicalValues) {
  std::unordered_set<Value> set;
  for (int64_t i = 0; i < 1000; ++i) set.insert(Value(i));
  set.insert(Value("a"));
  set.insert(Value("b"));
  EXPECT_EQ(set.size(), 1002u);
  EXPECT_TRUE(set.count(Value(999)));
  EXPECT_TRUE(set.count(Value("a")));
  EXPECT_FALSE(set.count(Value(1000)));
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value(7).Hash(), Value(7).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(-3).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
}

// --- Representation -------------------------------------------------------

static_assert(sizeof(Value) == 16, "a Value is 16 bytes");

// Lengths on both sides of the 15-byte inline limit, plus a page-sized one.
std::vector<std::string> Strings() {
  return {std::string(),         std::string(15, 'i'),
          std::string(16, 'h'),  std::string(4096, 'p'),
          std::string("a\0b", 3), std::string(17, '\0')};
}

TEST(ValueRepresentationTest, StringsRoundTripAtEveryLength) {
  for (const std::string& s : Strings()) {
    Value v(s);
    EXPECT_EQ(v.type(), ValueType::kString);
    EXPECT_EQ(v.AsString().size(), s.size());
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(Value(std::string_view(s)), v);
  }
}

TEST(ValueRepresentationTest, OnlyStringsLongerThanFifteenBytesOwnHeap) {
  // A string is inline exactly when its bytes lie inside the value.
  auto is_inline = [](const Value& v) {
    const char* data = v.AsString().data();
    const char* self = reinterpret_cast<const char*>(&v);
    return data >= self && data < self + sizeof(Value);
  };
  EXPECT_TRUE(is_inline(Value(std::string(1, 'i'))));
  EXPECT_TRUE(is_inline(Value(std::string(15, 'i'))));
  EXPECT_FALSE(is_inline(Value(std::string(16, 'h'))));
  EXPECT_FALSE(is_inline(Value(std::string(4096, 'p'))));
}

TEST(ValueRepresentationTest, EmbeddedNulsAreBytesLikeAnyOther) {
  Value a(std::string("a\0b", 3));
  Value b(std::string("a\0c", 3));
  Value prefix(std::string("a", 1));
  EXPECT_NE(a, b);
  EXPECT_NE(a, prefix);
  EXPECT_LT(prefix, a);
  EXPECT_LT(a, b);
  EXPECT_EQ(a.ToString(), std::string("\"a\0b\"", 5));
  Value long_nuls(std::string(20, '\0'));
  EXPECT_EQ(long_nuls.AsString(), std::string(20, '\0'));
  EXPECT_NE(long_nuls, Value(std::string(19, '\0')));
}

TEST(ValueRepresentationTest, CopyMoveAndSelfAssignmentKeepThePayload) {
  for (const std::string& s : Strings()) {
    Value original(s);
    Value copy(original);
    EXPECT_EQ(copy, original);
    if (s.size() > 15) {
      // A copy owns its own block: nothing is shared between copies.
      EXPECT_NE(copy.AsString().data(), original.AsString().data());
    }
    Value moved(std::move(copy));
    EXPECT_EQ(moved.AsString(), s);

    Value assigned(int64_t{9});
    assigned = original;
    EXPECT_EQ(assigned, original);
    assigned = Value(int64_t{3});  // a heap string replaced by an int
    EXPECT_EQ(assigned.AsInt64(), 3);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.AsString(), s);

    Value& alias = assigned;
    assigned = alias;
    EXPECT_EQ(assigned.AsString(), s);
    assigned = std::move(alias);
    EXPECT_EQ(assigned.AsString(), s);
  }
}

TEST(ValueRepresentationTest, IntExtremesRoundTrip) {
  for (int64_t i : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, std::numeric_limits<int64_t>::max()}) {
    Value v(i);
    EXPECT_EQ(v.type(), ValueType::kInt64);
    EXPECT_EQ(v.AsInt64(), i);
    EXPECT_EQ(Value(v), v);
  }
}

// Golden values recorded from the `std::variant<int64_t, std::string>`
// representation this layout replaced.  `StableHash` routes rows to hash
// partitions and scrub cursors across restarts, so it must never move.
TEST(ValueRepresentationTest, StableHashMatchesTheRecordedValues) {
  const std::vector<std::pair<Value, uint64_t>> golden = {
      {Value(int64_t{0}), 0xe604823a249029bfULL},
      {Value(int64_t{1}), 0xc709bb3119a0df9eULL},
      {Value(int64_t{-1}), 0x7a4969ca2d631437ULL},
      {Value(int64_t{42}), 0x8f919d0115208895ULL},
      {Value(std::numeric_limits<int64_t>::max()), 0x7a49e9ca2d63edb7ULL},
      {Value(std::numeric_limits<int64_t>::min()), 0xe604023a248f503fULL},
      {Value(""), 0xaf63bc4c8601b62cULL},
      {Value("a"), 0x082f4307b4e8c4d7ULL},
      {Value("waterloo"), 0x88bd9772e4a57da3ULL},
      {Value(std::string(15, 'x')), 0x02dd27648507785cULL},
      {Value(std::string(16, 'x')), 0xe54213ce0bb1252cULL},
      {Value(std::string("a\0b", 3)), 0xcb038777e97ff875ULL},
      {Value(std::string(4096, 'z')), 0x1cdc25d51b54962cULL},
  };
  for (const auto& [v, h] : golden) EXPECT_EQ(v.StableHash(), h) << v;
}

// `Hash` may vary with the standard library, so its goldens are the
// definition the old representation used rather than literal numbers: the
// murmur-style mix for integers, and std::hash<std::string> for strings.
TEST(ValueRepresentationTest, HashMatchesTheRecordedDefinition) {
  EXPECT_EQ(Value(int64_t{0}).Hash(), 0x0000000000000000ULL);
  EXPECT_EQ(Value(int64_t{1}).Hash(), 0xff51afd792fd5b26ULL);
  EXPECT_EQ(Value(int64_t{-1}).Hash(), 0x0955399984aa9cccULL);
  EXPECT_EQ(Value(int64_t{42}).Hash(), 0xe366d96c81ba7514ULL);
  for (const std::string& s : Strings()) {
    EXPECT_EQ(Value(s).Hash(),
              std::hash<std::string>{}(s) ^ 0x9e3779b97f4a7c15ULL);
  }
}

TEST(ValueRepresentationTest, CompareMatchesStdStringOrder) {
  const std::vector<std::string> strings = {
      "", "a", "ab", "abc", std::string("a\0z", 3), std::string(15, 'x'),
      std::string(16, 'x'), "\xff", std::string(4096, 'z')};
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      const int want = a < b ? -1 : (a > b ? 1 : 0);
      EXPECT_EQ(Value(a).Compare(Value(b)), want) << a << " vs " << b;
    }
  }
}

}  // namespace
}  // namespace mview
