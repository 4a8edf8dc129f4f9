// Golden-schema test for `SHOW STATS JSON`: the document must stay a
// parseable JSON object with the keys downstream dashboards scrape.  Keys
// may be added; removing or renaming one must fail here.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "json_test_util.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"

namespace mview {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

void ExpectViewMetricsShape(const JsonValue& v, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  for (const char* key :
       {"transactions", "skipped_irrelevant", "updates_seen",
        "updates_filtered", "rows_enumerated", "rows_evaluated",
        "delta_inserts", "delta_deletes", "full_reevaluations", "refreshes",
        "maintenance_nanos", "batch_batches", "batch_rows", "arena_bytes",
        "arena_high_water", "filter_nanos", "differential_nanos",
        "apply_nanos"}) {
    ASSERT_TRUE(v.Has(key)) << "missing per-view key: " << key;
    EXPECT_EQ(v.At(key).kind, JsonValue::Kind::kNumber) << key;
  }
  ASSERT_TRUE(v.Has("delta_size_histogram"));
  for (const char* key :
       {"filter_latency", "differential_latency", "apply_latency"}) {
    ASSERT_TRUE(v.Has(key)) << "missing histogram key: " << key;
    const JsonValue& h = v.At(key);
    ASSERT_EQ(h.kind, JsonValue::Kind::kObject) << key;
    for (const char* hk : {"count", "sum_nanos", "max_nanos", "p50_nanos",
                           "p95_nanos", "p99_nanos", "buckets"}) {
      EXPECT_TRUE(h.Has(hk)) << key << " missing " << hk;
    }
  }
}

TEST(StatsJsonTest, GoldenSchema) {
  const std::string dir = testing::ScratchDir();
  {
    auto storage = Storage::Open(dir);
    sql::Engine engine(storage.get());
    engine.mutable_views().SetParallelism(2);
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE TABLE s (b INT64, c INT64);"
        "CREATE MATERIALIZED VIEW v AS SELECT * FROM r, s WHERE r.b = s.b;"
        "CREATE MATERIALIZED VIEW w AS SELECT * FROM r WHERE a < 100;"
        "CREATE MATERIALIZED VIEW dropped AS SELECT * FROM r WHERE a > 5;"
        "INSERT INTO s VALUES (1, 10), (2, 20);"
        "INSERT INTO r VALUES (1, 1), (2, 2), (3, 3);"
        "DELETE FROM r WHERE a = 3;"
        "DROP VIEW dropped;"  // retired metrics must surface, not vanish
        "CHECKPOINT;");

    sql::Engine::Result result = engine.Execute("SHOW STATS JSON");
    ASSERT_EQ(result.kind, sql::Engine::Result::Kind::kMessage);
    JsonValue doc = JsonParser::Parse(result.message);
    ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);

    // Commit scope.
    for (const char* key : {"commits", "normalize_nanos", "base_apply_nanos"}) {
      ASSERT_TRUE(doc.Has(key)) << key;
      EXPECT_EQ(doc.At(key).kind, JsonValue::Kind::kNumber) << key;
    }
    EXPECT_GT(doc.At("commits").number, 0);
    ASSERT_TRUE(doc.Has("commit_latency"));
    EXPECT_GT(doc.At("commit_latency").At("count").number, 0);

    // Storage scope.
    const JsonValue& storage_json = doc.At("storage");
    for (const char* key :
         {"wal_appends", "wal_fsyncs", "wal_bytes", "fsync_nanos",
          "checkpoints", "checkpoint_nanos", "replayed_records",
          "restore_nanos", "derive_nanos", "replay_nanos",
          "batch_commits_histogram", "fsync_latency"}) {
      ASSERT_TRUE(storage_json.Has(key)) << key;
    }
    EXPECT_GT(storage_json.At("wal_appends").number, 0);
    // The first checkpoint writes every table's base; the rest of its bytes
    // are the manifest's.
    for (const char* key : {"checkpoint_bytes", "checkpoint_base_bytes",
                            "checkpoint_delta_bytes"}) {
      ASSERT_TRUE(storage_json.Has(key)) << key;
    }
    EXPECT_GT(storage_json.At("checkpoint_base_bytes").number, 0);
    EXPECT_EQ(storage_json.At("checkpoint_delta_bytes").number, 0);
    EXPECT_LT(storage_json.At("checkpoint_base_bytes").number,
              storage_json.At("checkpoint_bytes").number);
    EXPECT_GT(storage_json.At("fsync_latency").At("count").number, 0);

    // Row-store gauges.
    const JsonValue& row_store = doc.At("row_store");
    for (const char* owner : {"bases", "views", "spares"}) {
      for (const char* key : {"mapped_bytes", "live_bytes"}) {
        ASSERT_TRUE(row_store.At(owner).Has(key)) << owner << "." << key;
      }
    }
    EXPECT_GT(row_store.At("bases").At("live_bytes").number, 0);
    EXPECT_GT(row_store.At("views").At("live_bytes").number, 0);

    // Pool gauges.
    const JsonValue& pool = doc.At("pool");
    EXPECT_EQ(pool.At("workers").number, 2);
    EXPECT_GE(pool.At("queue_depth").number, 0);
    EXPECT_GE(pool.At("active_workers").number, 0);

    // Aggregate, retired, and per-view scopes share the view shape.
    ExpectViewMetricsShape(doc.At("global"), "global");
    ExpectViewMetricsShape(doc.At("retired"), "retired");
    const JsonValue& views = doc.At("views");
    ASSERT_EQ(views.kind, JsonValue::Kind::kObject);
    ASSERT_TRUE(views.Has("v"));
    ASSERT_TRUE(views.Has("w"));
    EXPECT_FALSE(views.Has("dropped"));
    ExpectViewMetricsShape(views.At("v"), "views.v");
    ExpectViewMetricsShape(views.At("w"), "views.w");
    // The dropped view did work before being dropped; it must be retired.
    EXPECT_GT(doc.At("retired").At("transactions").number, 0);
    // Live views recorded per-phase latency histograms.
    EXPECT_GT(views.At("v").At("differential_latency").At("count").number, 0);
  }
  std::filesystem::remove_all(dir);
}

// The open's three steps are timed from inside: a fresh directory has no
// image to decode or derive from, and a reopen over a checkpoint and a
// WAL tail spends time in all three.
TEST(StatsJsonTest, OpenTimingsComeFromTheLastOpen) {
  const std::string dir = testing::ScratchDir();
  Storage::Options options;
  options.checkpoint_on_close = false;
  auto storage_json = [](sql::Engine& engine) {
    return JsonParser::Parse(engine.Execute("SHOW STATS JSON").message)
        .At("storage");
  };
  {
    auto storage = Storage::Open(dir, options);
    sql::Engine engine(storage.get());
    const JsonValue fresh = storage_json(engine);
    EXPECT_EQ(fresh.At("restore_nanos").number, 0);
    EXPECT_EQ(fresh.At("derive_nanos").number, 0);
    EXPECT_GT(fresh.At("replay_nanos").number, 0);
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE MATERIALIZED VIEW v AS SELECT a FROM r WHERE b < 5;"
        "INSERT INTO r VALUES (1, 1), (2, 9), (3, 3);"
        "CHECKPOINT;"
        "INSERT INTO r VALUES (4, 4);");
  }
  {
    auto storage = Storage::Open(dir, options);
    sql::Engine engine(storage.get());
    const JsonValue reopened = storage_json(engine);
    EXPECT_GT(reopened.At("restore_nanos").number, 0);
    EXPECT_GT(reopened.At("derive_nanos").number, 0);
    EXPECT_GT(reopened.At("replay_nanos").number, 0);
    EXPECT_EQ(reopened.At("replayed_records").number, 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(StatsJsonTest, InMemoryEngineParsesToo) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t WHERE a < 10;"
      "INSERT INTO t VALUES (1);");
  JsonValue doc = JsonParser::Parse(engine.Execute("SHOW STATS JSON").message);
  EXPECT_EQ(doc.At("storage").At("wal_appends").number, 0);
  EXPECT_EQ(doc.At("pool").At("workers").number, 0);
  EXPECT_GT(doc.At("views").At("v").At("transactions").number, 0);
}

// The row-store gauges follow the rows: live bytes are slot bytes of the
// rows held, and a relation past its first 16 KiB maps its chunks.
TEST(StatsJsonTest, RowStoreGaugesFollowTheRows) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64, b INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT a FROM t WHERE b < 1000000;");
  constexpr int64_t kRows = 2000;
  for (int64_t batch = 0; batch < 4; ++batch) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int64_t i = batch; i < kRows; i += 4) {
      if (i != batch) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
    }
    engine.Execute(insert);
  }
  auto gauges = [&engine] {
    return JsonParser::Parse(engine.Execute("SHOW STATS JSON").message)
        .At("row_store");
  };
  JsonValue rs = gauges();
  // A 2-int base row is a 16 B header and two 16 B values; a 1-int view
  // row adds an 8 B count to its header and value.
  EXPECT_EQ(rs.At("bases").At("live_bytes").number, kRows * 48);
  EXPECT_EQ(rs.At("views").At("live_bytes").number, kRows * 40);
  EXPECT_GT(rs.At("bases").At("mapped_bytes").number, 0);
  EXPECT_GT(rs.At("views").At("mapped_bytes").number, 0);
  // The retired front a delta commit left behind is the spare.
  EXPECT_GT(rs.At("spares").At("live_bytes").number, 0);

  engine.Execute("DELETE FROM t WHERE b < 1000000");
  rs = gauges();
  EXPECT_EQ(rs.At("bases").At("live_bytes").number, 0);
  EXPECT_EQ(rs.At("views").At("live_bytes").number, 0);
}

TEST(StatsJsonTest, LongFormatCarriesPoolGauges) {
  sql::Engine engine;
  engine.mutable_views().SetParallelism(3);
  engine.ExecuteScript("CREATE TABLE t (a INT64);");
  sql::Engine::Result result = engine.Execute("SHOW STATS");
  ASSERT_EQ(result.kind, sql::Engine::Result::Kind::kRows);
  bool saw_workers = false;
  for (const auto& [tuple, count] : result.rows) {
    if (tuple.at(1).AsString() == "pool_workers") {
      saw_workers = true;
      EXPECT_EQ(tuple.at(2).AsInt64(), 3);
    }
  }
  EXPECT_TRUE(saw_workers);
}

}  // namespace
}  // namespace mview
