// Chaos matrix: every registry fault point × {fail-once, sticky}, driven
// through a durable engine against a fault-free in-memory shadow.  The
// views cover equi joins (indexed, no join-state cache) and a non-equi
// join whose cross-join step runs through the join-state cache.  The
// invariant after disarm + recovery: either the database is identical to
// the shadow's, or the damage is contained to quarantined views that
// REPAIR VIEW restores — verified by a full consistency scrub.  Plus the fsyncgate sticky-failure contract and
// join-cache round exception safety.
//
// Knobs: MVIEW_CHAOS_SEED seeds the randomized pass (printed on failure),
// MVIEW_CHAOS_ITERS bounds its iteration count.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ivm/differential.h"
#include "ivm/scrubber.h"
#include "ivm/view_manager.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/fault.h"

namespace mview {
namespace {

using sql::Engine;
using util::FaultKind;
using util::FaultRegistry;
using util::FaultSpec;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoll(v);
}

// Every named fault point in the system.  `differential.eval` sits inside
// delta evaluation, so with an assertion registered it can also reject
// commits at the integrity precheck — both containment paths are valid.
const char* const kAllPoints[] = {
    "viewmgr.differential.pre_apply",
    "viewmgr.apply.serial",
    "viewmgr.refresh",
    "viewmgr.repair",
    "differential.eval",
    "ra.batch.alloc",
    "integrity.precheck",
    "wal.append",
    "wal.fsync",
    "wal.before_sync",
    "wal.torn_write",
    "checkpoint.write",
    "checkpoint.segment",
    "checkpoint.manifest",
};

const char* Preamble() {
  return "CREATE TABLE r (a INT64, b INT64);"
         "CREATE TABLE s (c INT64, d INT64);"
         "CREATE MATERIALIZED VIEW va AS SELECT a, d FROM r, s WHERE b = c;"
         "CREATE MATERIALIZED VIEW vx AS SELECT a, c FROM r, s WHERE a < c;"
         "CREATE MATERIALIZED VIEW vb AS SELECT c, d FROM s WHERE c < 100;"
         "CREATE MATERIALIZED VIEW vd DEFERRED AS "
         "  SELECT a, b FROM r WHERE a < 100;"
         "CREATE ASSERTION bounded ON r WHERE a > 1000;";
}

// DML + DDL + refresh + checkpoint mix; every statement is independently
// retriable (TryExecute) so a failing one is simply "not acknowledged".
// The view created and dropped mid-stream puts every log fault point
// inside DDL as well as DML.
std::vector<std::string> Workload() {
  return {
      "INSERT INTO r VALUES (1, 10), (2, 20)",
      "CREATE MATERIALIZED VIEW vc AS SELECT a, b FROM r WHERE b > 10",
      "INSERT INTO s VALUES (10, 100)",
      "UPDATE r SET b = 11 WHERE a = 1",
      "REFRESH VIEW vd",
      "INSERT INTO r VALUES (3, 30), (4, 4)",
      "DELETE FROM s WHERE c = 10",
      "CHECKPOINT",
      "INSERT INTO s VALUES (20, 200), (30, 300)",
      "UPDATE s SET d = 5 WHERE c = 20",
      "INSERT INTO r VALUES (5, 50)",
      "REFRESH VIEW vd",
      "DELETE FROM r WHERE a = 2",
      "DROP VIEW vc",
      "INSERT INTO r VALUES (6, 60)",
  };
}

std::string Dump(Engine& engine, const char* relation) {
  return engine.Execute(std::string("SELECT * FROM ") + relation).ToString();
}

bool SameVisibleState(Engine& a, Engine& b) {
  for (const char* rel : {"r", "s", "va", "vb", "vd", "vx"}) {
    if (Dump(a, rel) != Dump(b, rel)) return false;
  }
  return true;
}

// Post-disarm acceptance check: heal whatever is quarantined, bring the
// deferred views up to date on both sides, scrub, and require the states
// to match — allowing `in_flight` (a commit that failed *at* the log, so
// its bytes may or may not have become durable) to be present or absent.
void RepairRefreshAndCompare(Engine& recovered, Engine& shadow,
                             const std::string& in_flight,
                             const std::string& trace) {
  SCOPED_TRACE(trace);
  for (const auto& view : recovered.views().QuarantinedViews()) {
    recovered.Execute("REPAIR VIEW " + view);
  }
  EXPECT_TRUE(recovered.views().QuarantinedViews().empty());
  recovered.Execute("REFRESH VIEW vd");
  shadow.Execute("REFRESH VIEW vd");

  Scrubber scrubber(&recovered.mutable_views());
  ScrubReport report = scrubber.ScrubAll(ScrubOptions{});
  for (const auto& r : report.views) {
    EXPECT_TRUE(r.clean) << r.view << ": " << r.missing << " missing, "
                         << r.extra << " extra";
  }

  if (SameVisibleState(recovered, shadow)) return;
  ASSERT_FALSE(in_flight.empty())
      << "recovered state diverged from the shadow with no in-flight commit";
  // The in-flight record became durable: the shadow must match once it
  // carries that commit too (acked ⊆ recovered ⊆ attempted).
  shadow.Execute(in_flight);
  shadow.Execute("REFRESH VIEW vd");
  for (const char* rel : {"r", "s", "va", "vb", "vd", "vx"}) {
    EXPECT_EQ(Dump(recovered, rel), Dump(shadow, rel)) << "divergence in "
                                                       << rel;
  }
}

class ChaosMatrixTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  // One end-to-end scenario under an armed registry, through the
  // acceptance check above.  Returns the hits on the armed points.
  int64_t RunScenario(const std::vector<std::pair<std::string, FaultSpec>>& arm,
                      const std::string& trace) {
    const std::string dir = testing::ScratchDir();
    Engine shadow;
    shadow.ExecuteScript(Preamble());

    std::vector<std::string> acked;
    std::string in_flight;
    int64_t hits = 0;
    {
      auto storage = Storage::Open(dir);
      Engine engine(storage.get());
      engine.ExecuteScript(Preamble());

      for (const auto& [point, spec] : arm) {
        FaultRegistry::Global().Arm(point, spec);
      }
      for (const auto& sql : Workload()) {
        Status status = engine.TryExecute(sql, nullptr);
        if (status.ok) {
          acked.push_back(sql);
        } else if (status.kind == Status::Kind::kIoError &&
                   in_flight.empty() &&
                   status.message.rfind("wal: log has failed", 0) == 0) {
          // The first statement to find the log failed is the one whose
          // batch failed: its bytes may or may not be durable depending on
          // where in the append the fault fired.  A statement rejected
          // before the log (precheck, evaluation, a refused append) never
          // reached the disk, so it is not in flight.
          in_flight = sql;
        }
      }
      for (const auto& armed : arm) {
        hits += FaultRegistry::Global().HitCount(armed.first);
      }
      FaultRegistry::Global().DisarmAll();
      // Scope exit: the engine closes the storage (checkpointing when the
      // log is still healthy).
    }

    for (const auto& sql : acked) {
      if (sql == "CHECKPOINT") continue;
      Status status = shadow.TryExecute(sql, nullptr);
      EXPECT_TRUE(status.ok) << sql << ": " << status.message;
    }

    auto storage = Storage::Open(dir);
    Engine recovered(storage.get());
    RepairRefreshAndCompare(recovered, shadow, in_flight, trace);
    return hits;
  }
};

TEST_F(ChaosMatrixTest, EveryFaultPointIsContained) {
  for (const char* point : kAllPoints) {
    for (bool sticky : {false, true}) {
      FaultSpec spec;
      spec.kind = FaultKind::kIoError;
      spec.sticky = sticky;
      const int64_t hits =
          RunScenario({{point, spec}}, std::string("point=") + point +
                                           " sticky=" + (sticky ? "1" : "0"));
      // The torn-write and power-loss points sit on the log's write path,
      // which every workload commit takes.
      if (std::string(point) == "wal.torn_write" ||
          std::string(point) == "wal.before_sync") {
        EXPECT_GT(hits, 0) << point;
      }
    }
  }
}

TEST_F(ChaosMatrixTest, RandomizedMultiPointChaos) {
  const int64_t seed = EnvInt("MVIEW_CHAOS_SEED", 20260806);
  const int64_t iters = EnvInt("MVIEW_CHAOS_ITERS", 2);
  for (int64_t iter = 0; iter < iters; ++iter) {
    std::vector<std::pair<std::string, FaultSpec>> arm;
    for (size_t i = 0; i < std::size(kAllPoints); ++i) {
      FaultSpec spec;
      spec.kind = FaultKind::kIoError;
      spec.sticky = true;
      spec.probability = 0.15;
      spec.seed = static_cast<uint64_t>(seed + iter * 1000 + i);
      arm.emplace_back(kAllPoints[i], spec);
    }
    RunScenario(arm, "MVIEW_CHAOS_SEED=" + std::to_string(seed) +
                    " iter=" + std::to_string(iter));
  }
}

// Satellite (c): fsyncgate semantics.  After one injected EIO on the WAL
// fsync the log must refuse every further append — even though the fault
// was fail-once — and recovery must replay exactly the acknowledged
// prefix.
TEST_F(ChaosMatrixTest, FsyncFailureSticksAndRecoveryReplaysAckedPrefix) {
  const std::string dir = testing::ScratchDir();
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10)");

  {
    auto storage = Storage::Open(dir);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("INSERT INTO r VALUES (1, 10)");  // acknowledged

    FaultSpec eio;
    eio.kind = FaultKind::kIoError;  // fail-once: fires exactly one hit
    FaultRegistry::Global().Arm("wal.fsync", eio);
    Status status =
        engine.TryExecute("INSERT INTO r VALUES (2, 20)", nullptr);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);
    EXPECT_EQ(FaultRegistry::Global().FireCount("wal.fsync"), 1);

    // The fault is spent, but the log never retries a failed fsync: every
    // further append is refused until the directory is reopened.
    status = engine.TryExecute("INSERT INTO r VALUES (3, 30)", nullptr);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);
    EXPECT_EQ(FaultRegistry::Global().FireCount("wal.fsync"), 1);
    FaultRegistry::Global().DisarmAll();
    status = engine.TryExecute("INSERT INTO r VALUES (4, 40)", nullptr);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);

    // The rejected commits were applied nowhere.
    EXPECT_EQ(Dump(engine, "r"), Dump(reference, "r"));
    // Scope exit: the failed log also suppresses the close checkpoint.
  }

  auto storage = Storage::Open(dir);
  Engine recovered(storage.get());
  for (const char* rel : {"r", "s", "va", "vb", "vd", "vx"}) {
    EXPECT_EQ(Dump(recovered, rel), Dump(reference, rel)) << rel;
  }
}

// Arena exhaustion mid-round (the batch pipeline's scratch allocator
// refusing a block) must surface as a contained view fault — the view is
// quarantined and repairable, never silently wrong — and the base tables
// must be untouched by the failed maintenance.
TEST_F(ChaosMatrixTest, ArenaExhaustionQuarantinesInsteadOfCorrupting) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  Engine engine;
  engine.ExecuteScript(Preamble());
  for (Engine* e : {&reference, &engine}) {
    e->Execute("INSERT INTO r VALUES (1, 10)");
    e->Execute("INSERT INTO s VALUES (10, 100)");
  }

  FaultSpec oom;
  oom.kind = FaultKind::kIoError;  // fail-once: the next arena block request
  FaultRegistry::Global().Arm("ra.batch.alloc", oom);
  engine.Execute("INSERT INTO s VALUES (20, 200)");
  reference.Execute("INSERT INTO s VALUES (20, 200)");
  FaultRegistry::Global().DisarmAll();

  // The commit itself succeeded (base tables advanced); only the view
  // whose maintenance lost its scratch memory is out of service.
  EXPECT_EQ(Dump(engine, "r"), Dump(reference, "r"));
  EXPECT_EQ(Dump(engine, "s"), Dump(reference, "s"));
  EXPECT_FALSE(engine.views().QuarantinedViews().empty());

  for (const auto& view : engine.views().QuarantinedViews()) {
    engine.Execute("REPAIR VIEW " + view);
  }
  EXPECT_TRUE(engine.views().QuarantinedViews().empty());
  EXPECT_EQ(Dump(engine, "va"), Dump(reference, "va"));
  EXPECT_EQ(Dump(engine, "vb"), Dump(reference, "vb"));
}

// Full evaluation allocates from an arena like every evaluation, so an
// arena fault stops it too.  CREATE MATERIALIZED VIEW evaluates before it
// logs, so the failed statement leaves no view, live or after reopen.  A
// failed REPAIR leaves the view quarantined, and the next one heals it.
TEST_F(ChaosMatrixTest, ArenaFaultFailsFullEvaluationCleanly) {
  const std::string dir = testing::ScratchDir();
  Engine reference;
  reference.ExecuteScript(Preamble());
  FaultSpec oom;
  oom.kind = FaultKind::kIoError;  // fail-once: the next arena allocation
  {
    auto storage = Storage::Open(dir);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    for (Engine* e : {&reference, &engine}) {
      e->Execute("INSERT INTO r VALUES (1, 10), (2, 20)");
      e->Execute("INSERT INTO s VALUES (10, 100), (20, 200)");
    }

    FaultRegistry::Global().Arm("ra.batch.alloc", oom);
    Status status = engine.TryExecute(
        "CREATE MATERIALIZED VIEW vc AS SELECT a, b FROM r WHERE b > 10",
        nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(FaultRegistry::Global().FireCount("ra.batch.alloc"), 1);
    FaultRegistry::Global().DisarmAll();
    EXPECT_FALSE(engine.views().HasView("vc"));

    engine.mutable_views().Quarantine("va", "injected", /*sticky=*/true);
    FaultRegistry::Global().Arm("ra.batch.alloc", oom);
    status = engine.TryExecute("REPAIR VIEW va", nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(FaultRegistry::Global().FireCount("ra.batch.alloc"), 1);
    FaultRegistry::Global().DisarmAll();
    EXPECT_TRUE(engine.views().IsQuarantined("va"));

    engine.Execute("REPAIR VIEW va");
    EXPECT_FALSE(engine.views().IsQuarantined("va"));
    EXPECT_EQ(Dump(engine, "va"), Dump(reference, "va"));
  }

  auto storage = Storage::Open(dir);
  Engine recovered(storage.get());
  EXPECT_FALSE(recovered.views().HasView("vc"));
  EXPECT_FALSE(recovered.views().IsQuarantined("va"));
  EXPECT_TRUE(SameVisibleState(recovered, reference));
}

}  // namespace
}  // namespace mview
