// The determinism contract of the parallel commit pipeline: for any worker
// count, view contents after every commit are byte-identical to the serial
// pipeline's, and the maintenance counters (tuples seen, proved irrelevant,
// delta multiplicities) are identical too — parallelism only overlaps the
// read-only filter+differential phase, it never changes what is computed.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "workload/generator.h"

namespace mview {
namespace {

// One deterministic run of a mixed workload at a given worker count.  All
// randomness comes from the WorkloadGenerator's fixed seed, so every run
// sees identical data and identical transactions.
class Scenario {
 public:
  explicit Scenario(size_t parallelism)
      : gen_(1234), vm_(&db_, parallelism) {
    for (const auto& spec : specs_) gen_.Populate(&db_, spec);
    RegisterViews();
  }

  static constexpr int kSteps = 30;

  // Applies workload step `step` (a multi-relation transaction plus the
  // occasional mid-stream deferred refresh) and returns a serialized
  // snapshot of every view's contents.
  std::string Step(int step) {
    Transaction txn;
    // Rotate which relations a transaction touches: 1–3 of the 4.
    for (size_t r = 0; r < specs_.size(); ++r) {
      if ((step + static_cast<int>(r)) % 3 == 0) continue;
      gen_.AddUpdates(&txn, specs_[r], /*num_inserts=*/3, /*num_deletes=*/2);
    }
    vm_.Apply(txn);
    if (step == 7) vm_.Refresh("v_def_join");
    if (step == 13) vm_.Refresh("v_def_sel");
    if (step == 21) vm_.RefreshAll();
    return Snapshot();
  }

  std::string Snapshot() const {
    std::string out;
    for (const auto& name : vm_.ViewNames()) {
      out += name + "\n" + vm_.View(name).ToString() + "\n";
    }
    return out;
  }

  // The counters that must be bit-equal across worker counts (timers are
  // excluded — wall-clock differs by construction).
  std::map<std::string, std::vector<int64_t>> Counters() const {
    std::map<std::string, std::vector<int64_t>> out;
    for (const auto& name : vm_.ViewNames()) {
      MaintenanceStats s = vm_.Describe(name).stats;
      out[name] = {s.transactions,  s.skipped_irrelevant, s.updates_seen,
                   s.updates_filtered, s.delta_inserts,   s.delta_deletes,
                   s.full_reevaluations, s.refreshes};
    }
    return out;
  }

  ViewManager& vm() { return vm_; }

 private:
  void RegisterViews() {
    auto join = [](std::string name, const std::string& a,
                   const std::string& b) {
      return ViewDefinition(std::move(name),
                            {BaseRef{a, {}}, BaseRef{b, {}}},
                            a + "_a1 = " + b + "_a0");
    };
    vm_.RegisterView(join("v_join_01", "r0", "r1"));
    vm_.RegisterView(join("v_join_23", "r2", "r3"));
    vm_.RegisterView(
        ViewDefinition::Select("v_sel_wide", "r0", "r0_a0 < 40"));
    vm_.RegisterView(
        ViewDefinition::Select("v_sel_narrow", "r1", "r1_a0 < 3"));
    vm_.RegisterView(ViewDefinition::Project("v_proj", "r1", {"r1_a1"}));
    vm_.RegisterView(join("v_def_join", "r0", "r2"),
                     MaintenanceMode::kDeferred);
    vm_.RegisterView(
        ViewDefinition::Select("v_def_sel", "r3", "r3_a1 >= 30"),
        MaintenanceMode::kDeferred);
    vm_.RegisterView(join("v_full", "r1", "r3"),
                     MaintenanceMode::kFullReevaluation);
  }

  Database db_;
  WorkloadGenerator gen_;
  std::vector<RelationSpec> specs_{
      RelationSpec{"r0", 2, 60, 80},
      RelationSpec{"r1", 2, 60, 80},
      RelationSpec{"r2", 2, 60, 80},
      RelationSpec{"r3", 2, 60, 80},
  };
  ViewManager vm_;
};

TEST(ParallelMaintenanceTest, AllWorkerCountsMatchSerialAtEveryStep) {
  Scenario reference(/*parallelism=*/0);
  std::vector<std::string> expected;
  for (int step = 0; step < Scenario::kSteps; ++step) {
    expected.push_back(reference.Step(step));
  }
  const auto expected_counters = reference.Counters();

  for (size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    Scenario parallel(workers);
    for (int step = 0; step < Scenario::kSteps; ++step) {
      ASSERT_EQ(parallel.Step(step), expected[step])
          << "contents diverged with " << workers << " workers at step "
          << step;
    }
    EXPECT_EQ(parallel.Counters(), expected_counters)
        << "counters diverged with " << workers << " workers";
  }
}

TEST(ParallelMaintenanceTest, ReconfiguringParallelismMidStreamIsSafe) {
  Scenario reference(0);
  Scenario reconfigured(2);
  for (int step = 0; step < Scenario::kSteps; ++step) {
    // Flip between serial, few, and many workers while the stream runs.
    reconfigured.vm().SetParallelism(
        static_cast<size_t>(step % 3 == 0 ? 0 : (step % 3 == 1 ? 2 : 8)));
    ASSERT_EQ(reconfigured.Step(step), reference.Step(step))
        << "diverged at step " << step;
  }
  EXPECT_EQ(reconfigured.Counters(), reference.Counters());
}

}  // namespace
}  // namespace mview
