#include "sql/session.h"

#include <gtest/gtest.h>

#include <memory>

#include "sql/engine.h"
#include "util/error.h"
#include "util/status.h"

namespace mview::sql {
namespace {

TEST(SessionTest, TransactionsAreSessionLocal) {
  Engine engine;
  engine.Execute("CREATE TABLE t (a INT64)");
  std::unique_ptr<Session> a = engine.CreateSession();
  std::unique_ptr<Session> b = engine.CreateSession();

  a->Execute("BEGIN");
  a->Execute("INSERT INTO t VALUES (1)");
  EXPECT_TRUE(a->in_transaction());
  EXPECT_FALSE(b->in_transaction());

  // Staged but uncommitted work is invisible to every other session.
  EXPECT_EQ(b->Execute("SELECT * FROM t").NumRows(), 0u);
  EXPECT_EQ(engine.Execute("SELECT * FROM t").NumRows(), 0u);

  a->Execute("COMMIT");
  EXPECT_FALSE(a->in_transaction());
  EXPECT_EQ(b->Execute("SELECT * FROM t").NumRows(), 1u);
}

TEST(SessionTest, RollbackIsSessionLocal) {
  Engine engine;
  engine.Execute("CREATE TABLE t (a INT64)");
  std::unique_ptr<Session> a = engine.CreateSession();
  a->Execute("BEGIN");
  a->Execute("INSERT INTO t VALUES (1)");
  a->Execute("ROLLBACK");
  EXPECT_EQ(engine.Execute("SELECT * FROM t").NumRows(), 0u);
}

TEST(SessionTest, IdsAreUniqueAndTheDefaultSessionIsFirst) {
  Engine engine;
  // The façade's default session takes id 1 at engine construction.
  std::unique_ptr<Session> a = engine.CreateSession();
  std::unique_ptr<Session> b = engine.CreateSession();
  EXPECT_EQ(a->id(), 2u);
  EXPECT_EQ(b->id(), 3u);
}

TEST(SessionTest, StatsCountStatementsRowsAndErrors) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "INSERT INTO t VALUES (1), (2);");
  std::unique_ptr<Session> s = engine.CreateSession();
  s->Execute("SELECT * FROM t");
  EXPECT_FALSE(s->TryExecute("SELECT * FROM no_such_table", nullptr).ok);

  obs::SessionStats stats = s->StatsSnapshot();
  EXPECT_EQ(stats.statements, 2);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.rows_returned, 2);
  EXPECT_EQ(stats.statement_latency.count(), 2);
  EXPECT_EQ(stats.read_latency.count(), 2);
}

TEST(SessionTest, ViewSelectsAreServedFromTheSnapshot) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t WHERE a >= 2;"
      "INSERT INTO t VALUES (1), (2), (3);");
  std::unique_ptr<Session> s = engine.CreateSession();
  EXPECT_EQ(s->Execute("SELECT * FROM v").NumRows(), 2u);
  EXPECT_EQ(s->Execute("SELECT * FROM t").NumRows(), 3u);  // base: locked path
  obs::SessionStats stats = s->StatsSnapshot();
  EXPECT_EQ(stats.snapshot_reads, 1);
}

TEST(SessionTest, SnapshotPinsThePublishedEpoch) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t;"
      "INSERT INTO t VALUES (1);");
  std::shared_ptr<const EpochSnapshot> before = engine.Snapshot();
  const uint64_t epoch_before = before->epoch();
  ASSERT_EQ(before->Read("v").TotalCount(), 1);

  engine.Execute("INSERT INTO t VALUES (2)");

  // The pinned epoch is immutable — the commit published a successor.
  EXPECT_EQ(before->Read("v").TotalCount(), 1);
  std::shared_ptr<const EpochSnapshot> after = engine.Snapshot();
  EXPECT_GT(after->epoch(), epoch_before);
  EXPECT_EQ(after->Read("v").TotalCount(), 2);
}

TEST(SessionTest, SnapshotLookupContract) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t;");
  std::shared_ptr<const EpochSnapshot> snap = engine.Snapshot();
  EXPECT_EQ(snap->NumViews(), 1u);
  EXPECT_EQ(snap->ViewNames(), std::vector<std::string>{"v"});
  EXPECT_NE(snap->Find("v"), nullptr);
  EXPECT_EQ(snap->Find("t"), nullptr);  // base tables are not in the epoch
  EXPECT_THROW(snap->Read("missing"), Error);
}

TEST(SessionTest, QuarantinedViewReadsThrowThroughTheSnapshot) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t;"
      "INSERT INTO t VALUES (1);");
  engine.mutable_views().Quarantine("v", "test fault", /*sticky=*/true);

  // The SQL read path (which serves view SELECTs from the snapshot) and
  // the raw snapshot read agree on the health contract.
  EXPECT_THROW(engine.Execute("SELECT * FROM v"), ViewQuarantinedError);
  EXPECT_THROW(engine.Snapshot()->Read("v"), ViewQuarantinedError);

  std::unique_ptr<Session> s = engine.CreateSession();
  Status status = s->TryExecute("SELECT * FROM v", nullptr);
  EXPECT_EQ(status.kind, Status::Kind::kViewQuarantined);

  engine.Execute("REPAIR VIEW v");
  EXPECT_EQ(engine.Execute("SELECT * FROM v").NumRows(), 1u);
}

TEST(SessionTest, DroppedViewLeavesTheEpoch) {
  Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t;");
  std::shared_ptr<const EpochSnapshot> pinned = engine.Snapshot();
  engine.Execute("DROP VIEW v");
  EXPECT_NE(pinned->Find("v"), nullptr);  // the old epoch still has it
  EXPECT_EQ(engine.Snapshot()->Find("v"), nullptr);
  // A view SELECT now falls through to the locked path and fails there.
  EXPECT_THROW(engine.Execute("SELECT * FROM v"), Error);
}

TEST(SessionTest, ShowStatsCarriesSessionCounters) {
  Engine engine;
  engine.Execute("CREATE TABLE t (a INT64)");
  {
    std::unique_ptr<Session> s = engine.CreateSession();
    s->Execute("SELECT * FROM t");
  }  // closed: folds into the core's totals

  Engine::Result result = engine.Execute("SHOW STATS");
  ASSERT_EQ(result.kind, Engine::Result::Kind::kRows);
  const size_t metric_col = *result.ColumnIndex("metric");
  const size_t value_col = *result.ColumnIndex("value");
  bool saw_opened = false, saw_statements = false;
  for (const auto& [tuple, count] : result) {
    std::string_view metric = tuple.at(metric_col).AsString();
    if (metric == "sessions_opened") {
      saw_opened = true;
      EXPECT_GE(tuple.at(value_col).AsInt64(), 2);  // default + ours
    }
    if (metric == "session_statements") {
      saw_statements = true;
      EXPECT_GE(tuple.at(value_col).AsInt64(), 1);
    }
  }
  EXPECT_TRUE(saw_opened);
  EXPECT_TRUE(saw_statements);

  Engine::Result json = engine.Execute("SHOW STATS JSON");
  EXPECT_NE(json.message.find("\"sessions\""), std::string::npos);
  EXPECT_NE(json.message.find("\"snapshot_reads\""), std::string::npos);
}

TEST(SessionTest, PrometheusExportCarriesSessionFamilies) {
  Engine engine;
  engine.Execute("CREATE TABLE t (a INT64)");
  std::string text = engine.ExportMetricsText();
  EXPECT_NE(text.find("mview_sessions_active"), std::string::npos);
  EXPECT_NE(text.find("mview_session_statements_total"), std::string::npos);
  EXPECT_NE(text.find("mview_epochs_published_total"), std::string::npos);
}

TEST(SessionTest, CoreIsUsableWithoutTheFacade) {
  EngineCore core;
  std::unique_ptr<Session> s = core.CreateSession();
  s->Execute("CREATE TABLE t (a INT64)");
  s->Execute("INSERT INTO t VALUES (7)");
  EXPECT_EQ(s->Execute("SELECT * FROM t").ValueAt(0, 0).AsInt64(), 7);
  EXPECT_EQ(core.Snapshot()->NumViews(), 0u);
}

}  // namespace
}  // namespace mview::sql
