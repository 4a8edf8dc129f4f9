#include "predicate/parser.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "test_util.h"
#include "util/error.h"
#include "util/random.h"

namespace mview {
namespace {

using ::mview::testing::T;

Schema ABC() { return Schema::OfInts({"A", "B", "C"}); }

TEST(ParserTest, SimpleAtom) {
  Condition c = ParseCondition("A < 10");
  ASSERT_EQ(c.disjuncts().size(), 1u);
  ASSERT_EQ(c.disjuncts()[0].atoms.size(), 1u);
  EXPECT_EQ(c.disjuncts()[0].atoms[0].ToString(), "A < 10");
}

TEST(ParserTest, AllOperators) {
  EXPECT_EQ(ParseCondition("A = 1").ToString(), "A = 1");
  EXPECT_EQ(ParseCondition("A == 1").ToString(), "A = 1");
  EXPECT_EQ(ParseCondition("A != 1").ToString(), "A != 1");
  EXPECT_EQ(ParseCondition("A <> 1").ToString(), "A != 1");
  EXPECT_EQ(ParseCondition("A <= 1").ToString(), "A <= 1");
  EXPECT_EQ(ParseCondition("A >= 1").ToString(), "A >= 1");
  EXPECT_EQ(ParseCondition("A > 1").ToString(), "A > 1");
}

TEST(ParserTest, NegativeConstant) {
  Condition c = ParseCondition("A >= -5");
  EXPECT_TRUE(c.Evaluate(ABC(), T({-5, 0, 0})));
  EXPECT_FALSE(c.Evaluate(ABC(), T({-6, 0, 0})));
}

TEST(ParserTest, VarVarWithOffsets) {
  EXPECT_EQ(ParseCondition("A <= B + 3").ToString(), "A <= B + 3");
  EXPECT_EQ(ParseCondition("A <= B - 3").ToString(), "A <= B - 3");
  EXPECT_EQ(ParseCondition("A = B").ToString(), "A = B");
}

TEST(ParserTest, StringLiteral) {
  Condition c = ParseCondition("S = \"hello\"");
  ASSERT_EQ(c.disjuncts()[0].atoms.size(), 1u);
  EXPECT_EQ(c.disjuncts()[0].atoms[0].rhs_const, Value("hello"));
}

TEST(ParserTest, ConjunctionAndDisjunction) {
  Condition c = ParseCondition("A < 10 && B > 5 || C = 0");
  EXPECT_EQ(c.disjuncts().size(), 2u);
  EXPECT_TRUE(c.Evaluate(ABC(), T({0, 6, 1})));
  EXPECT_TRUE(c.Evaluate(ABC(), T({99, 0, 0})));
  EXPECT_FALSE(c.Evaluate(ABC(), T({99, 0, 1})));
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Condition c = ParseCondition("A < 10 && (B > 5 || C = 0)");
  EXPECT_EQ(c.disjuncts().size(), 2u);
  EXPECT_FALSE(c.Evaluate(ABC(), T({99, 6, 0})));
  EXPECT_TRUE(c.Evaluate(ABC(), T({1, 0, 0})));
}

TEST(ParserTest, NegationPushdownOnAtom) {
  EXPECT_EQ(ParseCondition("!(A < 10)").ToString(), "A >= 10");
  EXPECT_EQ(ParseCondition("!(A = B)").ToString(), "A != B");
}

TEST(ParserTest, DeMorgan) {
  // !(a && b) = !a || !b
  Condition c = ParseCondition("!(A < 10 && B > 5)");
  EXPECT_EQ(c.disjuncts().size(), 2u);
  EXPECT_TRUE(c.Evaluate(ABC(), T({10, 9, 0})));
  EXPECT_TRUE(c.Evaluate(ABC(), T({0, 5, 0})));
  EXPECT_FALSE(c.Evaluate(ABC(), T({0, 9, 0})));
  // !(a || b) = !a && !b
  Condition d = ParseCondition("!(A < 10 || B > 5)");
  EXPECT_EQ(d.disjuncts().size(), 1u);
  EXPECT_TRUE(d.Evaluate(ABC(), T({10, 5, 0})));
  EXPECT_FALSE(d.Evaluate(ABC(), T({9, 5, 0})));
}

TEST(ParserTest, DoubleNegation) {
  EXPECT_EQ(ParseCondition("!!(A < 10)").ToString(), "A < 10");
}

TEST(ParserTest, TrueFalseKeywords) {
  EXPECT_TRUE(ParseCondition("true").IsTriviallyTrue());
  EXPECT_TRUE(ParseCondition("false").IsTriviallyFalse());
  EXPECT_TRUE(ParseCondition("!false").IsTriviallyTrue());
  // false && anything = false
  EXPECT_TRUE(ParseCondition("false && A < 1").IsTriviallyFalse());
}

TEST(ParserTest, QualifiedIdentifiers) {
  Condition c = ParseCondition("emp.dept = dept.id");
  Schema s = Schema::OfInts({"emp.dept", "dept.id"});
  EXPECT_TRUE(c.Evaluate(s, T({3, 3})));
}

TEST(ParserTest, WhitespaceInsensitive) {
  EXPECT_EQ(ParseCondition("  A<10&&B>=C  ").ToString(),
            ParseCondition("A < 10 && B >= C").ToString());
}

TEST(ParserTest, PaperExample41Condition) {
  // C(A,B,C) = (A < 10) ∧ (C > 5) ∧ (B = C) from Example 4.1.
  Condition c = ParseCondition("A < 10 && C > 5 && B = C");
  ASSERT_EQ(c.disjuncts().size(), 1u);
  EXPECT_EQ(c.disjuncts()[0].atoms.size(), 3u);
  EXPECT_TRUE(c.Evaluate(ABC(), T({9, 10, 10})));
  EXPECT_FALSE(c.Evaluate(ABC(), T({11, 10, 10})));
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_THROW(ParseCondition(""), Error);
  EXPECT_THROW(ParseCondition("A <"), Error);
  EXPECT_THROW(ParseCondition("A < 10 &&"), Error);
  EXPECT_THROW(ParseCondition("(A < 10"), Error);
  EXPECT_THROW(ParseCondition("A < 10)"), Error);
  EXPECT_THROW(ParseCondition("A < 10 B > 2"), Error);
  EXPECT_THROW(ParseCondition("123 < A"), Error);
  EXPECT_THROW(ParseCondition("A < \"unterminated"), Error);
  EXPECT_THROW(ParseCondition("< 10"), Error);
}

// Integer literals span exactly int64: a minus reaches INT64_MIN, whose
// magnitude 2^63 alone is out of range, as is any 20-digit run.
TEST(ParserTest, IntegerLiteralsSpanExactlyInt64) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  Condition lo = ParseCondition("A = -9223372036854775808");
  EXPECT_EQ(lo.disjuncts()[0].atoms[0].rhs_const, Value(kMin));
  EXPECT_TRUE(lo.Evaluate(ABC(), T({kMin, 0, 0})));
  Condition hi = ParseCondition("A = 9223372036854775807");
  EXPECT_EQ(hi.disjuncts()[0].atoms[0].rhs_const, Value(kMax));
  EXPECT_EQ(ParseCondition("A <= B + 9223372036854775807").ToString(),
            "A <= B + 9223372036854775807");
  EXPECT_EQ(ParseCondition("A <= B - 9223372036854775807").ToString(),
            "A <= B - 9223372036854775807");
  for (const char* text :
       {"A = 9223372036854775808", "A = 99999999999999999999",
        "A = -99999999999999999999", "A = 12345678901234567890",
        "A = -9223372036854775809", "A <= B + 9223372036854775808",
        "A <= B - 9223372036854775808", "A <= B - -9223372036854775808"}) {
    EXPECT_THROW(ParseCondition(text), Error) << text;
  }
  try {
    ParseCondition("A = 99999999999999999999");
    FAIL() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range at offset 4"),
              std::string::npos)
        << e.what();
  }
}

// Round-trip property: rendering a parsed condition and re-parsing it must
// preserve semantics on random tuples.
TEST(ParserPropertyTest, ToStringReparseIsSemanticIdentity) {
  Rng rng(4242);
  Schema schema = Schema::OfInts({"A", "B", "C"});
  const std::vector<std::string> names = {"A", "B", "C"};
  const char* op_names[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 200; ++trial) {
    // Build a random condition string with nesting and negation.
    std::function<std::string(int)> gen = [&](int depth) -> std::string {
      if (depth == 0 || rng.Bernoulli(0.4)) {
        std::string lhs = names[rng.Uniform(0, 2)];
        std::string op = op_names[rng.Uniform(0, 5)];
        if (rng.Bernoulli(0.5)) {
          return lhs + " " + op + " " + std::to_string(rng.Uniform(-5, 5));
        }
        return lhs + " " + op + " " + names[rng.Uniform(0, 2)];
      }
      std::string l = gen(depth - 1);
      std::string r = gen(depth - 1);
      switch (rng.Uniform(0, 2)) {
        case 0:
          return "(" + l + " && " + r + ")";
        case 1:
          return "(" + l + " || " + r + ")";
        default:
          return "!(" + l + ")";
      }
    };
    std::string text = gen(3);
    Condition first = ParseCondition(text);
    Condition second = ParseCondition(first.ToString());
    for (int probe = 0; probe < 20; ++probe) {
      Tuple t = T({rng.Uniform(-6, 6), rng.Uniform(-6, 6),
                   rng.Uniform(-6, 6)});
      ASSERT_EQ(first.Evaluate(schema, t), second.Evaluate(schema, t))
          << text << " vs " << first.ToString() << " at " << t.ToString();
    }
  }
}

TEST(ParserTest, DnfExpansionOfNestedCondition) {
  // (a || b) && (c || d) must expand to 4 disjuncts.
  Condition c = ParseCondition("(A < 1 || A > 5) && (B < 1 || B > 5)");
  EXPECT_EQ(c.disjuncts().size(), 4u);
}

}  // namespace
}  // namespace mview
