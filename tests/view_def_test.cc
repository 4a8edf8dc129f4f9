#include "ivm/view_def.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::MakeRelation;

class ViewDefTest : public ::testing::Test {
 protected:
  ViewDefTest() {
    MakeRelation(&db_, "r", {"A", "B"}, {});
    MakeRelation(&db_, "s", {"C", "D"}, {});
    MakeRelation(&db_, "t", {"B", "E"}, {});
  }
  Database db_;
};

TEST_F(ViewDefTest, SelectViewBuilder) {
  auto def = ViewDefinition::Select("v", "r", "A < 10");
  def.Validate(db_);
  EXPECT_EQ(def.bases().size(), 1u);
  EXPECT_EQ(def.OutputSchema(db_), Schema::OfInts({"A", "B"}));
}

TEST_F(ViewDefTest, ProjectViewBuilder) {
  auto def = ViewDefinition::Project("v", "r", {"B"});
  def.Validate(db_);
  EXPECT_EQ(def.OutputSchema(db_), Schema::OfInts({"B"}));
  EXPECT_TRUE(def.condition().IsTriviallyTrue());
}

TEST_F(ViewDefTest, SpjViewWithProjection) {
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "A < 10 && B = C", {"A", "D"});
  def.Validate(db_);
  EXPECT_EQ(def.CombinedSchema(db_), Schema::OfInts({"A", "B", "C", "D"}));
  EXPECT_EQ(def.OutputSchema(db_), Schema::OfInts({"A", "D"}));
}

TEST_F(ViewDefTest, ValidationFailures) {
  EXPECT_THROW(ViewDefinition("v", {BaseRef{"nope", {}}}, "true")
                   .Validate(db_),
               Error);
  EXPECT_THROW(ViewDefinition("v", {BaseRef{"r", {}}}, "Z < 1").Validate(db_),
               Error);
  EXPECT_THROW(ViewDefinition("v", {BaseRef{"r", {}}}, "true", {"Z"})
                   .Validate(db_),
               Error);
  // Overlapping attribute names across bases (r and t share B).
  EXPECT_THROW(ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"t", {}}},
                              "true")
                   .Validate(db_),
               Error);
  EXPECT_THROW(ViewDefinition("", {BaseRef{"r", {}}}, "true"), Error);
  EXPECT_THROW(ViewDefinition("v", {}, "true"), Error);
}

TEST_F(ViewDefTest, AliasesRenameAttributes) {
  ViewDefinition def("v", {BaseRef{"r", {"X", "Y"}}}, "X < 1", {"Y"});
  def.Validate(db_);
  EXPECT_EQ(def.AliasedSchema(db_, 0), Schema::OfInts({"X", "Y"}));
}

TEST_F(ViewDefTest, AliasArityMismatchThrows) {
  ViewDefinition def("v", {BaseRef{"r", {"X"}}}, "true");
  EXPECT_THROW(def.Validate(db_), Error);
}

TEST_F(ViewDefTest, NaturalJoinDesugarsSharedAttributes) {
  auto def = ViewDefinition::NaturalJoin("v", {"r", "t"}, db_);
  def.Validate(db_);
  // Combined scheme: A, B from r; t.B aliased; E.
  Schema combined = def.CombinedSchema(db_);
  EXPECT_TRUE(combined.Contains("A"));
  EXPECT_TRUE(combined.Contains("B"));
  EXPECT_TRUE(combined.Contains("t.B"));
  EXPECT_TRUE(combined.Contains("E"));
  // Natural-join projection keeps each shared attribute once.
  EXPECT_EQ(def.OutputSchema(db_), Schema::OfInts({"A", "B", "E"}));
  // The equality atom B = t.B is in the condition.
  bool found = false;
  for (const auto& d : def.condition().disjuncts()) {
    for (const auto& a : d.atoms) {
      if (a.op == CompareOp::kEq && a.lhs == "B" && a.rhs_var == "t.B") {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ViewDefTest, NaturalJoinWithExtraConditionAndProjection) {
  auto def =
      ViewDefinition::NaturalJoin("v", {"r", "t"}, db_, "A < 10", {"E"});
  def.Validate(db_);
  EXPECT_EQ(def.OutputSchema(db_), Schema::OfInts({"E"}));
}

TEST_F(ViewDefTest, SelfNaturalJoinDisambiguates) {
  auto def = ViewDefinition::NaturalJoin("v", {"r", "r"}, db_);
  def.Validate(db_);
  Schema combined = def.CombinedSchema(db_);
  EXPECT_EQ(combined.size(), 4u);
  EXPECT_TRUE(combined.Contains("r.A"));
  EXPECT_TRUE(combined.Contains("r.B"));
}

TEST_F(ViewDefTest, FromExprFlattensSpjTree) {
  auto expr = Expr::Project(
      Expr::Select(Expr::Product(Expr::Base("r"), Expr::Base("s")),
                   "B = C && A < 10"),
      {"A", "D"});
  auto def = ViewDefinition::FromExpr("v", expr, db_);
  def.Validate(db_);
  EXPECT_EQ(def.bases().size(), 2u);
  EXPECT_EQ(def.OutputSchema(db_), Schema::OfInts({"A", "D"}));
  EXPECT_EQ(def.condition().disjuncts().size(), 1u);
  EXPECT_EQ(def.condition().disjuncts()[0].atoms.size(), 2u);
}

TEST_F(ViewDefTest, FromExprNestedSelects) {
  auto expr = Expr::Select(Expr::Select(Expr::Base("r"), "A < 10"), "B > 2");
  auto def = ViewDefinition::FromExpr("v", expr, db_);
  EXPECT_EQ(def.condition().disjuncts()[0].atoms.size(), 2u);
}

TEST_F(ViewDefTest, FromExprRejectsNonSpj) {
  EXPECT_THROW(ViewDefinition::FromExpr(
                   "v", Expr::Union(Expr::Base("r"), Expr::Base("r")), db_),
               Error);
  EXPECT_THROW(
      ViewDefinition::FromExpr(
          "v",
          Expr::Product(Expr::Project(Expr::Base("r"), {"A"}),
                        Expr::Base("s")),
          db_),
      Error);
}

TEST_F(ViewDefTest, JoinAttributesFindsEquiJoinColumns) {
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "B = C && A < 10");
  auto attrs = def.JoinAttributes(db_);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs[0], (std::vector<std::string>{"B"}));
  EXPECT_EQ(attrs[1], (std::vector<std::string>{"C"}));
}

TEST_F(ViewDefTest, JoinAttributesIgnoresNonCoreEqualities) {
  // B = C appears in only one disjunct → not a core join predicate.
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                     "(B = C && A < 1) || (A > 5 && D = 0)");
  auto attrs = def.JoinAttributes(db_);
  EXPECT_TRUE(attrs[0].empty());
  EXPECT_TRUE(attrs[1].empty());
}

TEST_F(ViewDefTest, JoinAttributesWithAliases) {
  auto def = ViewDefinition::NaturalJoin("v", {"r", "t"}, db_);
  auto attrs = def.JoinAttributes(db_);
  // The desugared atom B = t.B maps back to original attribute B on both.
  EXPECT_EQ(attrs[0], (std::vector<std::string>{"B"}));
  EXPECT_EQ(attrs[1], (std::vector<std::string>{"B"}));
}

TEST_F(ViewDefTest, ToStringMentionsStructure) {
  ViewDefinition def("v", {BaseRef{"r", {}}, BaseRef{"s", {}}}, "B = C",
                     {"A"});
  std::string s = def.ToString();
  EXPECT_NE(s.find("π{A}"), std::string::npos);
  EXPECT_NE(s.find("r × s"), std::string::npos);
}

}  // namespace
}  // namespace mview
