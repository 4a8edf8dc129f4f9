#include <gtest/gtest.h>

#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/generator.h"

namespace mview {
namespace {

// Randomized end-to-end property: for arbitrary databases, update streams,
// and views of every class the paper covers, differentially maintained
// materializations must equal from-scratch re-evaluation after every
// transaction, in every maintenance mode and option combination.  The
// reference is the naive evaluator (`testing::NaiveEvaluate`), which shares
// no code with the planner under test.

struct Scenario {
  const char* name;
  const char* condition;   // over r/s/t attribute names (arity 2 each)
  std::vector<std::string> projection;
  size_t num_relations;    // 1..3 (r, s, t)
  bool use_filter;
};

class MaintenancePropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(MaintenancePropertyTest, DifferentialEqualsFullReevaluation) {
  const Scenario& sc = GetParam();
  Rng seeds(0xabcdef12u);
  for (int round = 0; round < 5; ++round) {
    Database db;
    WorkloadGenerator gen(seeds.Next());
    std::vector<RelationSpec> specs;
    const char* names[] = {"r", "s", "t"};
    for (size_t i = 0; i < sc.num_relations; ++i) {
      // Small domains force join hits and filter hits alike.
      specs.push_back({names[i], 2, 12, 40});
      gen.Populate(&db, specs.back());
    }
    std::vector<BaseRef> bases;
    for (const auto& spec : specs) bases.push_back(BaseRef{spec.name, {}});
    ViewDefinition def("v", bases, sc.condition, sc.projection);

    MaintenanceOptions options;
    options.use_irrelevance_filter = sc.use_filter;

    ViewManager vm(&db);
    vm.RegisterView(def, MaintenanceMode::kImmediate, options);
    vm.RegisterView(
        ViewDefinition("snap", bases, sc.condition, sc.projection),
        MaintenanceMode::kDeferred, options);

    for (int step = 0; step < 12; ++step) {
      Transaction txn;
      for (const auto& spec : specs) {
        if (gen.rng().Bernoulli(0.7)) {
          gen.AddUpdates(&txn, spec,
                         static_cast<size_t>(gen.rng().Uniform(0, 4)),
                         static_cast<size_t>(gen.rng().Uniform(0, 4)));
        }
      }
      vm.Apply(txn);
      CountedRelation expected = testing::NaiveEvaluate(def, db);
      ASSERT_TRUE(vm.View("v").SameContents(expected))
          << sc.name << " diverged at round " << round << " step " << step
          << "\nview:\n"
          << vm.View("v").ToString() << "expected:\n"
          << expected.ToString();
      if (step % 4 == 3) {
        vm.Refresh("snap");
        ASSERT_TRUE(vm.View("snap").SameContents(expected))
            << sc.name << " snapshot diverged at round " << round << " step "
            << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ViewClasses, MaintenancePropertyTest,
    ::testing::Values(
        Scenario{"select", "r_a0 < 6", {}, 1, true},
        Scenario{"select_no_filter", "r_a0 < 6", {}, 1, false},
        Scenario{"project", "true", {"r_a1"}, 1, true},
        Scenario{"select_project", "r_a0 >= 4", {"r_a1"}, 1, true},
        Scenario{"join", "r_a1 = s_a0", {"r_a0", "s_a1"}, 2, true},
        Scenario{"spj", "r_a1 = s_a0 && r_a0 < 8", {"s_a1"}, 2, true},
        Scenario{"spj_inequality_join", "r_a0 < s_a0", {"r_a1", "s_a1"}, 2,
                 true},
        Scenario{"spj_offset_join", "r_a1 = s_a0 + 2", {"r_a0"}, 2, true},
        Scenario{"spj_disjunctive",
                 "(r_a1 = s_a0 && r_a0 < 4) || (r_a1 = s_a0 && s_a1 > 8)",
                 {"r_a0", "s_a1"}, 2, true},
        Scenario{"three_way_chain", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3, true},
        Scenario{"three_way_no_filter", "r_a1 = s_a0 && s_a1 = t_a0",
                 {"r_a0", "t_a1"}, 3, false},
        Scenario{"cross_product_select", "r_a0 = 3 && s_a1 = 4",
                 {"r_a1", "s_a0"}, 2, true}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

// Degenerate shapes that have bitten real IVM systems.
TEST(MaintenanceEdgeCaseTest, EmptyBaseRelations) {
  Database db;
  db.CreateRelation("r", Schema::OfInts({"r_a0", "r_a1"}));
  db.CreateRelation("s", Schema::OfInts({"s_a0", "s_a1"}));
  ViewManager vm(&db);
  vm.RegisterView(ViewDefinition("v", {BaseRef{"r", {}}, BaseRef{"s", {}}},
                                 "r_a1 = s_a0", {"r_a0", "s_a1"}));
  EXPECT_TRUE(vm.View("v").empty());
  Transaction txn;
  txn.Insert("r", testing::T({1, 2})).Insert("s", testing::T({2, 3}));
  vm.Apply(txn);
  EXPECT_EQ(vm.View("v").size(), 1u);
}

TEST(MaintenanceEdgeCaseTest, DrainRelationCompletely) {
  Database db;
  WorkloadGenerator gen(7);
  RelationSpec spec{"r", 2, 10, 20};
  gen.Populate(&db, spec);
  ViewManager vm(&db);
  vm.RegisterView(ViewDefinition::Project("v", "r", {"r_a1"}));
  Transaction txn;
  std::vector<Tuple> all;
  db.Get("r").Scan([&](const Tuple& t) { all.push_back(t); });
  txn.DeleteAll("r", all);
  vm.Apply(txn);
  EXPECT_TRUE(vm.View("v").empty());
  EXPECT_TRUE(db.Get("r").empty());
}

TEST(MaintenanceEdgeCaseTest, TransactionTouchingAllRelationsOfSelfJoin) {
  Database db;
  WorkloadGenerator gen(11);
  gen.Populate(&db, {"r", 2, 6, 15});
  ViewManager vm(&db);
  auto def = ViewDefinition::NaturalJoin("v", {"r", "r"}, db);
  vm.RegisterView(def);
  for (int i = 0; i < 10; ++i) {
    Transaction txn;
    gen.AddUpdates(&txn, {"r", 2, 6, 15}, 2, 2);
    vm.Apply(txn);
    ASSERT_TRUE(vm.View("v").SameContents(testing::NaiveEvaluate(def, db)))
        << "self-join diverged at step " << i;
  }
}

}  // namespace
}  // namespace mview
