// Per-view quarantine and fallback recompute: a maintenance failure in one
// view must not poison the commit — bases and sibling views commit, the
// failed view is quarantined (surviving checkpoint recovery and WAL
// replay), transient failures heal automatically with backoff, sticky ones
// only through REPAIR VIEW — and the non-throwing engine API classifies
// every failure instead of letting it escape.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "ivm/integrity.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/error.h"
#include "util/fault.h"

namespace mview {
namespace {

using sql::Engine;
using util::FaultKind;
using util::FaultRegistry;
using util::FaultSpec;
using util::ScopedFault;
using ::mview::testing::T;

FaultSpec Spec(FaultKind kind, bool sticky = false) {
  FaultSpec spec;
  spec.kind = kind;
  spec.sticky = sticky;
  return spec;
}

class QuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::ScratchDir(); }

  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  const std::string& Dir() const { return dir_; }

  // Two immediate views over disjoint bases, so a single-table insert
  // affects exactly one view (deterministic fault targeting).
  static const char* Preamble() {
    return "CREATE TABLE r (a INT64, b INT64);"
           "CREATE TABLE s (c INT64, d INT64);"
           "CREATE MATERIALIZED VIEW va AS SELECT a, b FROM r WHERE a < 100;"
           "CREATE MATERIALIZED VIEW vb AS SELECT c, d FROM s WHERE c < 100;";
  }

  static std::string Query(Engine& engine, const std::string& sql) {
    return engine.Execute(sql).ToString();
  }

 private:
  std::string dir_;
};

TEST_F(QuarantineTest, FailedViewIsQuarantinedWhileBasesAndSiblingsCommit) {
  Engine engine;
  engine.ExecuteScript(Preamble());
  {
    ScopedFault fault("viewmgr.differential.pre_apply", Spec(FaultKind::kError));
    engine.Execute("INSERT INTO r VALUES (1, 10)");  // va's maintenance fails
  }
  engine.Execute("INSERT INTO s VALUES (2, 20)");  // sibling commits normally

  // The base committed even though va's maintenance blew up.
  EXPECT_NE(Query(engine, "SELECT * FROM r").find("1"), std::string::npos);
  EXPECT_TRUE(engine.views().IsQuarantined("va"));
  EXPECT_FALSE(engine.views().IsQuarantined("vb"));
  EXPECT_EQ(engine.views().QuarantinedViews(),
            std::vector<std::string>{"va"});
  EXPECT_NE(Query(engine, "SELECT * FROM vb").find("2"), std::string::npos);

  // Reads of the quarantined view throw / classify, never return stale data.
  EXPECT_THROW(engine.Execute("SELECT * FROM va"), ViewQuarantinedError);
  Status status = engine.TryExecute("SELECT * FROM va", nullptr);
  EXPECT_EQ(status.kind, Status::Kind::kViewQuarantined);

  // SHOW VIEWS surfaces the health column.
  const std::string views = Query(engine, "SHOW VIEWS");
  EXPECT_NE(views.find("quarantined"), std::string::npos) << views;
  EXPECT_NE(views.find("injected fault"), std::string::npos) << views;
}

TEST_F(QuarantineTest, RepairRestoresTheNoFaultState) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  Engine engine;
  engine.ExecuteScript(Preamble());

  {
    ScopedFault fault("viewmgr.differential.pre_apply", Spec(FaultKind::kError));
    engine.Execute("INSERT INTO r VALUES (1, 10)");
  }
  engine.Execute("INSERT INTO r VALUES (2, 20)");  // still quarantined (sticky)
  reference.Execute("INSERT INTO r VALUES (1, 10)");
  reference.Execute("INSERT INTO r VALUES (2, 20)");
  ASSERT_TRUE(engine.views().IsQuarantined("va"));

  engine.Execute("REPAIR VIEW va");
  EXPECT_FALSE(engine.views().IsQuarantined("va"));
  EXPECT_EQ(Query(engine, "SELECT * FROM va"),
            Query(reference, "SELECT * FROM va"));

  // Maintenance resumes differentially after the heal.
  engine.Execute("INSERT INTO r VALUES (3, 30)");
  reference.Execute("INSERT INTO r VALUES (3, 30)");
  EXPECT_EQ(Query(engine, "SELECT * FROM va"),
            Query(reference, "SELECT * FROM va"));
}

TEST_F(QuarantineTest, TransientIoErrorHealsAutomaticallyNextCommit) {
  Engine engine;
  engine.ExecuteScript(Preamble());
  {
    ScopedFault fault("viewmgr.differential.pre_apply",
                      Spec(FaultKind::kIoError));
    engine.Execute("INSERT INTO r VALUES (1, 10)");
  }
  ASSERT_TRUE(engine.views().IsQuarantined("va"));
  EXPECT_FALSE(engine.views().Describe("va").quarantine_sticky);

  // The next commit retries the repair against the pre-state, heals the
  // view, and then maintains it through the commit like any sibling.
  engine.Execute("INSERT INTO r VALUES (2, 20)");
  EXPECT_FALSE(engine.views().IsQuarantined("va"));
  const std::string contents = Query(engine, "SELECT * FROM va");
  EXPECT_NE(contents.find("10"), std::string::npos) << contents;
  EXPECT_NE(contents.find("20"), std::string::npos) << contents;
  EXPECT_EQ(engine.views().metrics().Find("va")->stats.repairs, 1);
}

TEST_F(QuarantineTest, ExhaustedTransientRetriesEscalateToSticky) {
  Engine engine;
  engine.ExecuteScript(Preamble());
  {
    ScopedFault fault("viewmgr.differential.pre_apply",
                      Spec(FaultKind::kIoError));
    engine.Execute("INSERT INTO r VALUES (1, 10)");
  }
  ASSERT_TRUE(engine.views().IsQuarantined("va"));

  {
    // Every automatic repair attempt fails too.
    ScopedFault broken_repair("viewmgr.repair",
                              Spec(FaultKind::kIoError, /*sticky=*/true));
    // Backoff schedule in commits after the quarantine: +1, +2, +4 — three
    // failed attempts, then the quarantine escalates to sticky.
    for (int i = 0; i < 8; ++i) {
      engine.Execute("INSERT INTO s VALUES (" + std::to_string(i) + ", 0)");
    }
    EXPECT_EQ(FaultRegistry::Global().FireCount("viewmgr.repair"), 3);
  }

  EXPECT_TRUE(engine.views().IsQuarantined("va"));
  EXPECT_TRUE(engine.views().Describe("va").quarantine_sticky);

  // Sticky: no further automatic attempts, explicit REPAIR heals.
  engine.Execute("INSERT INTO s VALUES (50, 0)");
  EXPECT_TRUE(engine.views().IsQuarantined("va"));
  engine.Execute("REPAIR VIEW va");
  EXPECT_FALSE(engine.views().IsQuarantined("va"));
  EXPECT_NE(Query(engine, "SELECT * FROM va").find("10"), std::string::npos);
}

TEST_F(QuarantineTest, QuarantineSurvivesCheckpointRecovery) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10)");

  {
    auto storage = Storage::Open(Dir());
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    {
      ScopedFault fault("viewmgr.differential.pre_apply",
                        Spec(FaultKind::kCorruption));
      engine.Execute("INSERT INTO r VALUES (1, 10)");
    }
    ASSERT_TRUE(engine.views().IsQuarantined("va"));
    // Destruction checkpoints — including the quarantine state.
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  EXPECT_TRUE(recovered.views().IsQuarantined("va"));
  ViewInfo info = recovered.views().Describe("va");
  EXPECT_TRUE(info.quarantine_sticky);  // corruption never auto-retries
  EXPECT_NE(info.quarantine_reason.find("injected fault"), std::string::npos);

  recovered.Execute("REPAIR VIEW va");
  EXPECT_EQ(Query(recovered, "SELECT * FROM va"),
            Query(reference, "SELECT * FROM va"));
}

TEST_F(QuarantineTest, QuarantineSurvivesWalReplay) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10)");
  reference.Execute("INSERT INTO s VALUES (2, 20)");

  Storage::Options no_checkpoint;
  no_checkpoint.checkpoint_on_close = false;
  {
    auto storage = Storage::Open(Dir(), no_checkpoint);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());  // DDL and inserts stay in the WAL
    {
      ScopedFault fault("viewmgr.differential.pre_apply",
                        Spec(FaultKind::kCorruption));
      engine.Execute("INSERT INTO r VALUES (1, 10)");
    }
    engine.Execute("INSERT INTO s VALUES (2, 20)");
    ASSERT_TRUE(engine.views().IsQuarantined("va"));
    // No close-time checkpoint: recovery must replay effects *and* the
    // quarantine record from the log.
  }

  auto storage = Storage::Open(Dir(), no_checkpoint);
  Engine recovered(storage.get());
  EXPECT_GE(storage->wal_stats().records_replayed, 3);
  EXPECT_TRUE(recovered.views().IsQuarantined("va"));
  EXPECT_EQ(Query(recovered, "SELECT * FROM vb"),
            Query(reference, "SELECT * FROM vb"));

  recovered.Execute("REPAIR VIEW va");
  EXPECT_EQ(Query(recovered, "SELECT * FROM va"),
            Query(reference, "SELECT * FROM va"));
}

TEST_F(QuarantineTest, RepairRecordSurvivesWalReplay) {
  Storage::Options no_checkpoint;
  no_checkpoint.checkpoint_on_close = false;
  {
    auto storage = Storage::Open(Dir(), no_checkpoint);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    {
      ScopedFault fault("viewmgr.differential.pre_apply",
                        Spec(FaultKind::kCorruption));
      engine.Execute("INSERT INTO r VALUES (1, 10)");
    }
    engine.Execute("REPAIR VIEW va");  // logged as a repair record
    engine.Execute("INSERT INTO r VALUES (2, 20)");
  }

  auto storage = Storage::Open(Dir(), no_checkpoint);
  Engine recovered(storage.get());
  EXPECT_FALSE(recovered.views().IsQuarantined("va"));
  const std::string contents = Query(recovered, "SELECT * FROM va");
  EXPECT_NE(contents.find("10"), std::string::npos) << contents;
  EXPECT_NE(contents.find("20"), std::string::npos) << contents;
}

TEST_F(QuarantineTest, RefreshFaultQuarantinesDeferredView) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE MATERIALIZED VIEW vd DEFERRED AS "
      "  SELECT a, b FROM r WHERE a < 100;");
  engine.Execute("INSERT INTO r VALUES (1, 10)");
  {
    ScopedFault fault("viewmgr.refresh", Spec(FaultKind::kError));
    Status status = engine.TryExecute("REFRESH VIEW vd", nullptr);
    EXPECT_EQ(status.kind, Status::Kind::kViewQuarantined);
  }
  EXPECT_TRUE(engine.views().IsQuarantined("vd"));

  engine.Execute("REPAIR VIEW vd");
  EXPECT_FALSE(engine.views().IsQuarantined("vd"));
  EXPECT_NE(Query(engine, "SELECT * FROM vd").find("10"), std::string::npos);
}

// Satellite (a): an exception outside the mview::Error hierarchy —
// std::bad_alloc here — must come back as a classified kInternal status,
// not escape TryExecute / TryExecuteScript.
TEST_F(QuarantineTest, BadAllocBecomesInternalStatus) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE r (a INT64, b INT64);"
      "CREATE ASSERTION bounded ON r WHERE a > 1000;");
  {
    ScopedFault fault("integrity.precheck", Spec(FaultKind::kBadAlloc));
    Status status =
        engine.TryExecute("INSERT INTO r VALUES (1, 10)", nullptr);
    EXPECT_FALSE(status.ok);
    EXPECT_EQ(status.kind, Status::Kind::kInternal);
    EXPECT_NE(status.message.find("bad_alloc"), std::string::npos)
        << status.message;
  }
  // The rejected transaction mutated nothing.
  EXPECT_EQ(Query(engine, "SELECT * FROM r").find("1 |"), std::string::npos);

  {
    ScopedFault fault("integrity.precheck", Spec(FaultKind::kBadAlloc));
    std::vector<Engine::Result> results;
    size_t failed = 99;
    Status status = engine.TryExecuteScript(
        "INSERT INTO r VALUES (2, 20); INSERT INTO r VALUES (3, 30);",
        &results, &failed);
    EXPECT_EQ(status.kind, Status::Kind::kInternal);
    EXPECT_EQ(failed, 0u);
  }

  // The fail-once faults are spent: the engine works normally afterwards.
  engine.Execute("INSERT INTO r VALUES (4, 40)");
  EXPECT_NE(Query(engine, "SELECT * FROM r").find("4"), std::string::npos);
}

// Satellite (d): a throwing assertion check rejects the transaction with
// the database and every error view untouched.
TEST_F(QuarantineTest, IntegrityPrecheckFaultRejectsWithoutMutation) {
  Database db;
  testing::MakeRelation(&db, "accounts", {"id", "balance"}, {{1, 100}});
  IntegrityGuard guard(&db);
  guard.AddAssertion("non_negative", {"accounts"}, "balance < 0");

  Transaction txn;
  txn.Insert("accounts", T({2, 50}));
  {
    ScopedFault fault("integrity.precheck",
                      Spec(FaultKind::kError, /*sticky=*/true));
    EXPECT_THROW(guard.TryApply(txn), Error);
  }
  EXPECT_FALSE(db.Get("accounts").Contains(T({2, 50})));
  EXPECT_TRUE(guard.AllHold());

  // Disarmed: the same transaction commits.
  EXPECT_TRUE(guard.TryApply(txn));
  EXPECT_TRUE(db.Get("accounts").Contains(T({2, 50})));
}

}  // namespace
}  // namespace mview
