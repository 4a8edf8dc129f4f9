// Crash-recovery matrix and end-to-end durability tests: a durable engine
// killed after zero, partial, or full fsync — with immediate and deferred
// views registered — must recover to exactly the state an uninterrupted
// engine would hold, and WAL replay of a random workload must match direct
// execution tuple for tuple.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "ivm/view_def.h"
#include "ivm/view_manager.h"
#include "sql/engine.h"
#include "storage/checkpoint.h"
#include "storage/file.h"
#include "storage/recovery.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "util/fault.h"
#include "ivm_test_util.h"
#include "test_util.h"
#include "workload/generator.h"

namespace mview {
namespace {

using sql::Engine;

// Fails the `fail_at`-th directory sync (1-based) and no other.
class FailingDirSync : public storage::FileSystem {
 public:
  explicit FailingDirSync(int fail_at) : fail_at_(fail_at) {}
  void SyncDir(const std::string& dir) override {
    if (++syncs_ == fail_at_) throw IoError("injected EIO syncing " + dir);
    FileSystem::SyncDir(dir);
  }

 private:
  int fail_at_;
  int syncs_ = 0;
};

// Fails the `fail_at`-th rename (1-based) and no other.
class FailingRename : public storage::FileSystem {
 public:
  explicit FailingRename(int fail_at) : fail_at_(fail_at) {}
  void Rename(const std::string& from, const std::string& to) override {
    if (++renames_ == fail_at_) throw IoError("injected EIO renaming " + from);
    FileSystem::Rename(from, to);
  }

 private:
  int fail_at_;
  int renames_ = 0;
};

// Records every directory sync.
class DirSyncLog : public storage::FileSystem {
 public:
  void SyncDir(const std::string& dir) override {
    synced.push_back(dir);
    FileSystem::SyncDir(dir);
  }

  std::vector<std::string> synced;
};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = testing::ScratchDir(); }

  const std::string& Dir() const { return dir_; }

  // The schema + view + assertion preamble every SQL test shares: an
  // immediate join view, a deferred selection view, and an assertion.
  static const char* Preamble() {
    return "CREATE TABLE r (a INT64, b INT64);"
           "CREATE TABLE s (b2 INT64, c INT64);"
           "CREATE MATERIALIZED VIEW joined AS "
           "  SELECT a, c FROM r, s WHERE b = b2;"
           "CREATE MATERIALIZED VIEW small_a DEFERRED AS "
           "  SELECT a, b FROM r WHERE a < 100;"
           "CREATE ASSERTION a_bounded ON r WHERE a > 1000000;";
  }

  static std::string Query(Engine& engine, const std::string& sql) {
    return engine.Execute(sql).ToString();
  }

  // Compares the full visible state of two engines: every base table and
  // every view materialization, via SELECT (sorted rows with counts).
  static void ExpectSameState(Engine& recovered, Engine& reference) {
    for (const char* rel : {"r", "s", "joined", "small_a"}) {
      EXPECT_EQ(Query(recovered, std::string("SELECT * FROM ") + rel),
                Query(reference, std::string("SELECT * FROM ") + rel))
          << "divergence in " << rel;
    }
  }

 private:
  std::string dir_;
};

TEST_F(RecoveryTest, CleanShutdownRecoversTablesViewsAndStaleness) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.ExecuteScript(
      "INSERT INTO r VALUES (1, 10), (2, 20);"
      "INSERT INTO s VALUES (10, 100), (20, 200);");

  {
    auto storage = Storage::Open(Dir());
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.ExecuteScript(
        "INSERT INTO r VALUES (1, 10), (2, 20);"
        "INSERT INTO s VALUES (10, 100), (20, 200);");
    // Engine destruction closes the storage, which checkpoints.
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  ExpectSameState(recovered, reference);

  // Everything was inside the close-time checkpoint: nothing to replay.
  EXPECT_EQ(storage->wal_stats().records_replayed, 0);

  // The deferred view's staleness survived the restart bit for bit.
  ViewInfo recovered_info = recovered.views().Describe("small_a");
  ViewInfo reference_info = reference.views().Describe("small_a");
  EXPECT_EQ(recovered_info.stale, reference_info.stale);
  EXPECT_EQ(recovered_info.pending_tuples, reference_info.pending_tuples);
  EXPECT_TRUE(recovered_info.stale);  // the INSERTs are still pending

  recovered.Execute("REFRESH small_a;");
  reference.Execute("REFRESH small_a;");
  EXPECT_EQ(Query(recovered, "SELECT * FROM small_a"),
            Query(reference, "SELECT * FROM small_a"));
}

TEST_F(RecoveryTest, CrashAfterFullFsyncReplaysTheWalTail) {
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.ExecuteScript(
      "INSERT INTO r VALUES (1, 10);"
      "INSERT INTO s VALUES (10, 100);"
      "INSERT INTO r VALUES (2, 10), (3, 30);"
      "DELETE FROM r WHERE a = 1;");

  {
    Storage::Options options;
    options.checkpoint_on_close = false;  // simulated kill: no shutdown
                                          // checkpoint, WAL tail remains
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("CHECKPOINT;");  // the WAL tail below is DML only
    engine.ExecuteScript(
        "INSERT INTO r VALUES (1, 10);"
        "INSERT INTO s VALUES (10, 100);"
        "INSERT INTO r VALUES (2, 10), (3, 30);"
        "DELETE FROM r WHERE a = 1;");
    EXPECT_EQ(storage->wal_stats().durable_lsn,
              storage->wal_stats().base_lsn + 4);
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  EXPECT_EQ(storage->wal_stats().records_replayed, 4);
  ExpectSameState(recovered, reference);

  // Replay flowed through the maintenance pipeline: the deferred view is
  // stale with the same backlog, and refreshing converges both engines.
  EXPECT_TRUE(recovered.views().Describe("small_a").stale);
  recovered.Execute("REFRESH small_a;");
  reference.Execute("REFRESH small_a;");
  EXPECT_EQ(Query(recovered, "SELECT * FROM small_a"),
            Query(reference, "SELECT * FROM small_a"));
}

TEST_F(RecoveryTest, CrashAfterRefreshKeepsTheRefresh) {
  std::string rows;
  for (int a = 0; a < 100; ++a) {
    rows += (a == 0 ? "" : ", ") + std::string("(") + std::to_string(a) +
            ", " + std::to_string(a % 7) + ")";
  }
  const std::string insert = "INSERT INTO r VALUES " + rows + ";";

  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute(insert);
  reference.Execute("REFRESH small_a;");
  reference.Execute("INSERT INTO r VALUES (500, 1), (7, 70);");

  {
    Storage::Options options;
    options.checkpoint_on_close = false;  // simulated kill, no checkpoint
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute(insert);
    engine.Execute("REFRESH small_a;");
    engine.Execute("INSERT INTO r VALUES (500, 1), (7, 70);");
    // A refresh with nothing pending has nothing to log.
    engine.Execute("REFRESH joined;");
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  ExpectSameState(recovered, reference);
  EXPECT_EQ(recovered.views().View("small_a").size(), 100u);
  // The backlog after the refresh is pending again, and only it.
  EXPECT_TRUE(recovered.views().Describe("small_a").stale);
  EXPECT_EQ(recovered.views().Describe("small_a").pending_tuples,
            reference.views().Describe("small_a").pending_tuples);
  recovered.Execute("REFRESH small_a;");
  reference.Execute("REFRESH small_a;");
  ExpectSameState(recovered, reference);
}

// The other maintenance statements, each followed by a crash before any
// checkpoint.  A quarantine and its REPAIR are logged; a REPAIR of a
// healthy view and SCRUB … REPAIR recompute the rows replay rebuilds from
// the log anyway, so they need no record.  Each must recover equal to an
// uninterrupted engine that never saw the fault or the drift.
TEST_F(RecoveryTest, CrashAfterRepairOrScrubKeepsTheViews) {
  const std::string data =
      "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30);"
      "INSERT INTO s VALUES (10, 100), (20, 200);";
  const std::vector<std::pair<std::string, std::function<void(Engine&)>>>
      cases = {
          {"repair healthy",
           [](Engine& e) { e.Execute("REPAIR VIEW joined;"); }},
          {"repair deferred",  // consumes small_a's backlog, as REFRESH
           [](Engine& e) { e.Execute("REPAIR VIEW small_a;"); }},
          {"repair quarantined",
           [](Engine& e) {
             {
               util::FaultSpec spec;
               spec.kind = util::FaultKind::kCorruption;
               util::ScopedFault fault("viewmgr.differential.pre_apply", spec);
               e.Execute("INSERT INTO s VALUES (30, 300);");
             }
             ASSERT_TRUE(e.views().IsQuarantined("joined"));
             e.Execute("REPAIR VIEW joined;");
           }},
          {"scrub repair",
           [](Engine& e) {
             e.mutable_views().MutableMaterialization("joined").Add(
                 Tuple({Value(77), Value(77)}), 2);
             e.Execute("SCRUB ALL REPAIR;");
           }},
      };
  for (const auto& [label, run] : cases) {
    SCOPED_TRACE(label);
    std::filesystem::remove_all(Dir());
    Engine reference;
    reference.ExecuteScript(Preamble() + data);
    if (label == "repair quarantined") {
      reference.Execute("INSERT INTO s VALUES (30, 300);");
    }
    if (label == "repair deferred") reference.Execute("REFRESH small_a;");
    {
      Storage::Options options;
      options.checkpoint_on_close = false;  // simulated kill
      auto storage = Storage::Open(Dir(), options);
      Engine engine(storage.get());
      engine.ExecuteScript(Preamble() + data);
      run(engine);
      ExpectSameState(engine, reference);
    }
    auto storage = Storage::Open(Dir());
    Engine recovered(storage.get());
    EXPECT_TRUE(recovered.views().QuarantinedViews().empty());
    ExpectSameState(recovered, reference);
  }
}

TEST_F(RecoveryTest, FailedRefreshAppendLeavesTheViewStale) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("INSERT INTO r VALUES (1, 10), (2, 20);");
    const int64_t appended = storage->wal_stats().records_appended;
    {
      util::FaultSpec eio;
      eio.kind = util::FaultKind::kIoError;
      util::ScopedFault fault("wal.append", eio);
      Status status = engine.TryExecute("REFRESH small_a;", nullptr);
      ASSERT_FALSE(status.ok);
      EXPECT_EQ(status.kind, Status::Kind::kIoError) << status.message;
    }
    EXPECT_EQ(storage->wal_stats().records_appended, appended);
    // Not acknowledged, not applied: the backlog is still pending.
    EXPECT_TRUE(engine.views().Describe("small_a").stale);
    EXPECT_EQ(engine.views().View("small_a").size(), 0u);
  }
  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  EXPECT_TRUE(recovered.views().Describe("small_a").stale);
  EXPECT_EQ(recovered.views().View("small_a").size(), 0u);
}

TEST_F(RecoveryTest, CrashBeforeAnyFsyncLosesOnlyTheUndurableCommit) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    // The schema lands durably (and is checkpointed, so nothing is left to
    // replay) before every later fsync "loses power".
    engine.ExecuteScript(Preamble());
    engine.Execute("CHECKPOINT;");
    // "wal.fsync" fires before the batch is written: the deterministic
    // stand-in for "power lost with zero fsyncs completed", since an
    // in-process crash after the write would leave its bytes in the file,
    // which a real power cut may or may not.
    util::FaultSpec eio;
    eio.kind = util::FaultKind::kIoError;
    util::ScopedFault fault("wal.fsync", eio);

    Status status =
        engine.TryExecute("INSERT INTO r VALUES (1, 10);", nullptr);
    ASSERT_FALSE(status.ok);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);

    // Write-ahead rule: the failed commit never touched the live state.
    EXPECT_TRUE(engine.database().Get("r").empty());
    EXPECT_EQ(engine.views().View("joined").size(), 0u);
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  EXPECT_EQ(storage->wal_stats().records_replayed, 0);

  Engine reference;
  reference.ExecuteScript(Preamble());
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, CrashMidWriteDropsOnlyTheTornCommit) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("CHECKPOINT;");  // the WAL tail below is DML only
    util::FaultSpec torn;  // third commit is torn in half
    torn.kind = util::FaultKind::kIoError;
    torn.hits_before = 2;
    util::ScopedFault fault("wal.torn_write", torn);
    engine.Execute("INSERT INTO r VALUES (1, 10);");
    engine.Execute("INSERT INTO s VALUES (10, 100);");

    Status status =
        engine.TryExecute("INSERT INTO r VALUES (3, 30);", nullptr);
    ASSERT_FALSE(status.ok);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);

    // The failure is sticky, as after a real crash.
    status = engine.TryExecute("INSERT INTO r VALUES (4, 40);", nullptr);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  EXPECT_EQ(storage->wal_stats().records_replayed, 2);
  EXPECT_GT(storage->wal_stats().truncated_bytes, 0);

  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10);");
  reference.Execute("INSERT INTO s VALUES (10, 100);");
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, FailedManifestDirectorySyncFailsOnlyTheCheckpoint) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("CHECKPOINT;");
    engine.Execute("INSERT INTO r VALUES (1, 10);");
    const uint64_t base = storage->wal_stats().base_lsn;
    {
      FailingDirSync fs(/*fail_at=*/1);  // the manifest's, after its rename
      storage::ScopedFileSystem seam(&fs);
      Status status = engine.TryExecute("CHECKPOINT;", nullptr);
      ASSERT_FALSE(status.ok);
      EXPECT_EQ(status.kind, Status::Kind::kIoError) << status.message;
    }
    // The log was not rotated and stays healthy; the next checkpoint
    // builds on the previous manifest.
    EXPECT_EQ(storage->wal_stats().base_lsn, base);
    engine.Execute("INSERT INTO s VALUES (10, 100);");
    engine.Execute("CHECKPOINT;");
    engine.Execute("INSERT INTO r VALUES (2, 10);");
  }
  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10);");
  reference.Execute("INSERT INTO s VALUES (10, 100);");
  reference.Execute("INSERT INTO r VALUES (2, 10);");
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, FailedRotationDirectorySyncFailsTheLog) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("INSERT INTO r VALUES (1, 10);");
    {
      FailingDirSync fs(/*fail_at=*/2);  // the rotation's, after the manifest's
      storage::ScopedFileSystem seam(&fs);
      Status status = engine.TryExecute("CHECKPOINT;", nullptr);
      ASSERT_FALSE(status.ok);
      EXPECT_EQ(status.kind, Status::Kind::kIoError) << status.message;
    }
    // The renamed-away log may be all the old descriptor still reaches:
    // appends there could vanish, so the log refuses them (fsyncgate).
    Status status = engine.TryExecute("INSERT INTO r VALUES (2, 20);", nullptr);
    EXPECT_EQ(status.kind, Status::Kind::kIoError);
    EXPECT_EQ(status.message.rfind("wal: log has failed", 0), 0u)
        << status.message;
  }
  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10);");
  ExpectSameState(recovered, reference);
}

// The failed attempt's manifest landed before its directory sync failed,
// so it is the file on disk.  The next attempt must write its segments
// under a new generation: rewriting the landed manifest's segments in
// place, then stopping before its own rename, would leave that manifest
// naming segments that fail their frame.
TEST_F(RecoveryTest, CheckpointAfterAFailedDirectorySyncKeepsTheLandedImage) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("CHECKPOINT;");
    engine.Execute("INSERT INTO r VALUES (1, 10);");
    {
      FailingDirSync fs(/*fail_at=*/1);  // the manifest's, after its rename
      storage::ScopedFileSystem seam(&fs);
      ASSERT_FALSE(engine.TryExecute("CHECKPOINT;", nullptr).ok);
    }
    engine.Execute("INSERT INTO r VALUES (2, 10);");  // r's next delta differs
    util::ScopedFault fault("checkpoint.manifest", util::FaultSpec{});
    ASSERT_FALSE(engine.TryExecute("CHECKPOINT;", nullptr).ok);
  }  // killed: no checkpoint at close
  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10);");
  reference.Execute("INSERT INTO r VALUES (2, 10);");
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, FailedRotationBeforeItsRenameLeavesTheLogUsable) {
  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("INSERT INTO r VALUES (1, 10);");
    {
      FailingRename fs(/*fail_at=*/2);  // the rotation's, after the manifest's
      storage::ScopedFileSystem seam(&fs);
      Status status = engine.TryExecute("CHECKPOINT;", nullptr);
      ASSERT_FALSE(status.ok);
      EXPECT_EQ(status.kind, Status::Kind::kIoError) << status.message;
    }
    // The old log is still the live one: appends go on into it, and the
    // next checkpoint rotates it.
    engine.Execute("INSERT INTO r VALUES (2, 20);");
    engine.Execute("CHECKPOINT;");
    engine.Execute("INSERT INTO s VALUES (10, 100);");
  }
  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.Execute("INSERT INTO r VALUES (1, 10);");
  reference.Execute("INSERT INTO r VALUES (2, 20);");
  reference.Execute("INSERT INTO s VALUES (10, 100);");
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, OpenSyncsEachDirectoryItCreatesIntoItsParent) {
  const std::filesystem::path root =
      std::filesystem::absolute(Dir()).lexically_normal();
  DirSyncLog fs;
  storage::ScopedFileSystem seam(&fs);
  Storage::Open(Dir() + "/a/b/");
  EXPECT_EQ(fs.synced, (std::vector<std::string>{(root / "a").string(),
                                                 root.string()}));
  fs.synced.clear();
  Storage::Open(Dir() + "/a/b");  // exists: nothing to sync
  EXPECT_TRUE(fs.synced.empty());
}

TEST_F(RecoveryTest, ReplaySkipsRecordsTheCheckpointAlreadyCovers) {
  // Simulate a crash in the window between checkpoint write and log
  // rotation: the checkpoint covers LSNs the log still carries.  Replay
  // must skip them or every covered commit would apply twice.
  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.ExecuteScript(
      "INSERT INTO r VALUES (1, 10);INSERT INTO r VALUES (2, 20);");

  {
    Storage::Options options;
    options.checkpoint_on_close = false;
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.ExecuteScript(
        "INSERT INTO r VALUES (1, 10);INSERT INTO r VALUES (2, 20);");
    // Write the checkpoint by hand — without the Rotate that
    // Storage::Checkpoint would perform next.
    storage::WriteCheckpoint(Dir(), storage->wal_stats().durable_lsn,
                             engine.database(), engine.views(), &engine.guard(),
                             engine.views().changed_scopes(), /*prev=*/nullptr,
                             /*stats=*/nullptr);
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  // The log still carries all seven records — the five DDL statements and
  // both commits (they were scanned at open) — but the checkpoint covers
  // them, so none may be re-applied.
  EXPECT_EQ(storage->wal_stats().records_replayed, 7);
  EXPECT_EQ(recovered.views().metrics().storage().replayed_records, 0);
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, TornRotateDoesNotSwallowPostRecoveryCommits) {
  // A crash during log rotation can leave the WAL empty (or a torn header
  // prefix) while the checkpoint's LSN is high.  Recovery must rebase the
  // log *above* the checkpoint — otherwise post-recovery commits get LSNs
  // the replay filter skips, and acknowledged-durable work silently
  // vanishes on the next restart.
  {
    auto storage = Storage::Open(Dir());
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.ExecuteScript(
        "INSERT INTO r VALUES (1, 10);INSERT INTO r VALUES (2, 20);");
    engine.Execute("CHECKPOINT;");  // checkpoint LSN is now 2
  }
  {
    // Simulate the torn rotate: the checkpoint is durable, the log is a
    // 3-byte header prefix.
    std::ofstream wal(Dir() + "/wal.mv", std::ios::binary | std::ios::trunc);
    wal.write("MVW", 3);
  }
  {
    Storage::Options options;
    options.checkpoint_on_close = false;  // the commit must live in the WAL
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    // The log restarted above the checkpoint, not at LSN 1.
    EXPECT_GE(storage->wal_stats().base_lsn, 2u);
    engine.Execute("INSERT INTO r VALUES (3, 30);");
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  EXPECT_EQ(storage->wal_stats().records_replayed, 1);

  Engine reference;
  reference.ExecuteScript(Preamble());
  reference.ExecuteScript(
      "INSERT INTO r VALUES (1, 10);INSERT INTO r VALUES (2, 20);"
      "INSERT INTO r VALUES (3, 30);");
  ExpectSameState(recovered, reference);
}

// A DDL statement is acknowledged only once its log record is durable:
// with the append or the fsync failing, the statement is rejected with
// nothing changed — invisible to catalog reads and snapshot readers — and
// it is absent after reopening.
TEST_F(RecoveryTest, FailedDdlAppendLeavesNoTrace) {
  const std::vector<std::string> ddl = {
      "CREATE TABLE t (x INT64);",
      "DROP TABLE s;",
      "CREATE MATERIALIZED VIEW big_a AS SELECT a, b FROM r WHERE a > 5;",
      "DROP VIEW joined;",
      "CREATE ASSERTION c_bounded ON s WHERE c > 1000000;",
      "DROP ASSERTION a_bounded;",
  };
  auto catalog = [](Engine& engine) {
    std::string out;
    for (const char* show : {"SHOW TABLES;", "SHOW VIEWS;",
                             "SHOW ASSERTIONS;"}) {
      out += engine.Execute(show).ToString();
    }
    return out + "snapshot views: " +
           std::to_string(engine.core().Snapshot()->ViewNames().size());
  };
  for (const char* point : {"wal.append", "wal.fsync"}) {
    for (const std::string& sql : ddl) {
      SCOPED_TRACE(std::string(point) + ": " + sql);
      std::filesystem::remove_all(Dir());
      std::string before;
      {
        auto storage = Storage::Open(Dir());
        Engine engine(storage.get());
        engine.ExecuteScript(Preamble());
        engine.Execute("DROP TABLE s;" == sql ? "DROP VIEW joined;"
                                              : "INSERT INTO r VALUES (1, 10);");
        before = catalog(engine);
        const int64_t appended = storage->wal_stats().records_appended;

        util::FaultSpec eio;
        eio.kind = util::FaultKind::kIoError;
        util::FaultRegistry::Global().Arm(point, eio);
        Status status = engine.TryExecute(sql, nullptr);
        util::FaultRegistry::Global().DisarmAll();
        ASSERT_FALSE(status.ok);
        EXPECT_EQ(status.kind, Status::Kind::kIoError) << status.message;
        EXPECT_EQ(catalog(engine), before);
        EXPECT_EQ(storage->wal_stats().records_appended, appended);
      }
      auto storage = Storage::Open(Dir());
      Engine recovered(storage.get());
      EXPECT_EQ(catalog(recovered), before);
    }
  }
}

// Each DDL statement is one log record: no checkpoint, no rotation.
TEST_F(RecoveryTest, DdlIsLoggedAsOneRecordWithoutACheckpoint) {
  auto storage = Storage::Open(Dir());
  Engine engine(storage.get());
  int64_t appended = 0;
  for (const char* sql :
       {"CREATE TABLE r (a INT64, b INT64);",
        "CREATE TABLE s (b2 INT64, c INT64);",
        "CREATE MATERIALIZED VIEW joined AS SELECT a, c FROM r, s "
        "WHERE b = b2;",
        "CREATE ASSERTION a_bounded ON r WHERE a > 1000000;",
        "DROP ASSERTION a_bounded;", "DROP VIEW joined;", "DROP TABLE s;"}) {
    engine.Execute(sql);
    ++appended;
    EXPECT_EQ(storage->wal_stats().records_appended, appended) << sql;
    EXPECT_EQ(storage->wal_stats().durable_lsn,
              static_cast<uint64_t>(appended))
        << sql;
  }
  EXPECT_EQ(storage->wal_stats().base_lsn, 0u);
  EXPECT_EQ(engine.views().metrics().storage().checkpoints, 0);
  EXPECT_FALSE(std::filesystem::exists(storage->manifest_path()));

  engine.Execute("INSERT INTO r VALUES (1, 10);");
  EXPECT_EQ(storage->wal_stats().durable_lsn, 8u);
}

// A crash after DDL and DML with no checkpoint at all: recovery rebuilds
// the whole catalog from the log — tables, immediate, DEFERRED (with its
// backlog) and PARTITIONS views, assertions, and the drops in between —
// equal to an uninterrupted in-memory engine.
TEST_F(RecoveryTest, CrashAfterDdlAndDmlRecoversFromTheLogAlone) {
  const std::string script =
      std::string(Preamble()) +
      "INSERT INTO r VALUES (1, 10), (2, 20), (3, 30);"
      "INSERT INTO s VALUES (10, 100), (30, 300);"
      "CREATE TABLE gone (x INT64);"
      "CREATE MATERIALIZED VIEW part PARTITIONS 4 AS "
      "  SELECT a, b FROM r WHERE a > 1;"
      "CREATE MATERIALIZED VIEW temp AS SELECT c FROM s WHERE c > 0;"
      "CREATE ASSERTION c_bounded ON s WHERE c > 5000;"
      "INSERT INTO r VALUES (4, 10);"
      "DELETE FROM s WHERE b2 = 30;"
      "DROP VIEW temp;"
      "DROP TABLE gone;"
      "DROP ASSERTION a_bounded;"
      "INSERT INTO r VALUES (5, 50);";
  Engine reference;
  reference.ExecuteScript(script);
  {
    Storage::Options options;
    options.checkpoint_on_close = false;  // simulated kill
    auto storage = Storage::Open(Dir(), options);
    Engine engine(storage.get());
    engine.ExecuteScript(script);
    EXPECT_EQ(engine.views().metrics().storage().checkpoints, 0);
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());
  ExpectSameState(recovered, reference);
  for (const char* show : {"SHOW TABLES;", "SHOW VIEWS;", "SHOW ASSERTIONS;",
                           "SHOW PARTITIONS;", "SELECT * FROM part;"}) {
    EXPECT_EQ(Query(recovered, show), Query(reference, show)) << show;
  }
  EXPECT_EQ(recovered.views().Describe("small_a").pending_tuples,
            reference.views().Describe("small_a").pending_tuples);
  EXPECT_TRUE(recovered.views().Describe("small_a").stale);

  // The replayed assertion guards commits; the dropped one does not.
  for (Engine* engine : {&recovered, &reference}) {
    EXPECT_NE(engine->Execute("INSERT INTO s VALUES (7, 9000);")
                  .message.find("c_bounded"),
              std::string::npos);
    engine->Execute("INSERT INTO r VALUES (2000000, 1);");
  }
  recovered.Execute("REFRESH small_a;");
  reference.Execute("REFRESH small_a;");
  ExpectSameState(recovered, reference);
}

TEST_F(RecoveryTest, AssertionsRecoverAndStillRejectViolations) {
  {
    auto storage = Storage::Open(Dir());
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.Execute("INSERT INTO r VALUES (5, 50);");
  }

  auto storage = Storage::Open(Dir());
  Engine recovered(storage.get());

  // The recovered assertion still guards commits.
  Engine::Result result =
      recovered.Execute("INSERT INTO r VALUES (2000000, 1);");
  EXPECT_EQ(result.kind, Engine::Result::Kind::kMessage);
  EXPECT_NE(result.message.find("a_bounded"), std::string::npos);
  EXPECT_FALSE(recovered.database().Get("r").Contains(
      Tuple({Value(int64_t{2000000}), Value(int64_t{1})})));

  // And legal commits still pass.
  recovered.Execute("INSERT INTO r VALUES (6, 60);");
  EXPECT_TRUE(recovered.database().Get("r").Contains(
      Tuple({Value(int64_t{6}), Value(int64_t{60})})));
}

// Views are derived at open, so an evaluation that throws there must not
// fail the open: the view comes up quarantined with the failure as its
// reason, the other views are derived, and REPAIR heals it.  The fault
// fires once, during `Attach`: first in a full evaluation (the immediate
// view, derived first), then in a backlog's delta (the deferred view).
TEST_F(RecoveryTest, ViewWhoseDerivationFailsOpensQuarantined) {
  {
    auto storage = Storage::Open(Dir());
    Engine engine(storage.get());
    engine.ExecuteScript(Preamble());
    engine.ExecuteScript(
        "INSERT INTO r VALUES (1, 10), (2, 20);"
        "INSERT INTO s VALUES (10, 100), (20, 200);");
  }
  Storage::Options options;
  options.checkpoint_on_close = false;
  for (const std::string point : {"ra.batch.alloc", "differential.eval"}) {
    SCOPED_TRACE(point);
    const std::string failed =
        point == "ra.batch.alloc" ? "joined" : "small_a";
    const std::string healthy = failed == "joined" ? "small_a" : "joined";
    std::unique_ptr<Storage> storage;
    std::unique_ptr<Engine> recovered;
    {
      util::ScopedFault fault(point, util::FaultSpec{});
      storage = Storage::Open(Dir(), options);
      ASSERT_NO_THROW(recovered = std::make_unique<Engine>(storage.get()));
    }
    const ViewInfo info = recovered->views().Describe(failed);
    EXPECT_TRUE(info.quarantined);
    EXPECT_TRUE(info.quarantine_sticky);
    EXPECT_NE(info.quarantine_reason.find(point), std::string::npos)
        << info.quarantine_reason;
    EXPECT_FALSE(recovered->views().IsQuarantined(healthy));
    EXPECT_EQ(recovered->views().Describe("small_a").stale,
              failed != "small_a");  // a quarantine drops the backlog
    recovered->Execute("REPAIR VIEW " + failed);
    recovered->Execute("REFRESH small_a");
    for (const std::string& name : {failed, healthy}) {
      EXPECT_TRUE(recovered->views().View(name).SameContents(
          testing::NaiveEvaluate(recovered->views().Describe(name).definition,
                                 recovered->database())))
          << name;
    }
  }
}

TEST_F(RecoveryTest, SqlCheckpointShowWalAndStorageStats) {
  auto storage = Storage::Open(Dir());
  Engine engine(storage.get());
  engine.ExecuteScript(Preamble());
  const uint64_t ddl_lsn = storage->wal_stats().durable_lsn;
  EXPECT_EQ(ddl_lsn, 5u);  // one record per DDL statement
  engine.ExecuteScript(
      "INSERT INTO r VALUES (1, 10);INSERT INTO r VALUES (2, 20);");

  Engine::Result checkpoint = engine.Execute("CHECKPOINT;");
  EXPECT_EQ(checkpoint.kind, Engine::Result::Kind::kMessage);
  EXPECT_NE(checkpoint.message.find("checkpoint"), std::string::npos);
  EXPECT_EQ(storage->wal_stats().base_lsn, ddl_lsn + 2);

  Engine::Result wal = engine.Execute("SHOW WAL;");
  ASSERT_EQ(wal.kind, Engine::Result::Kind::kRows);
  bool saw_attached = false;
  bool saw_base_lsn = false;
  for (const auto& [row, count] : wal.rows) {
    if (row.at(0).AsString() == "attached") {
      saw_attached = true;
      EXPECT_EQ(row.at(1).AsInt64(), 1);
    }
    if (row.at(0).AsString() == "base_lsn") {
      saw_base_lsn = true;
      EXPECT_EQ(row.at(1).AsInt64(), static_cast<int64_t>(ddl_lsn + 2));
    }
  }
  EXPECT_TRUE(saw_attached);
  EXPECT_TRUE(saw_base_lsn);

  // The storage counters ride along in the metrics registry JSON.
  std::string json = engine.Execute("SHOW STATS JSON;").message;
  EXPECT_NE(json.find("\"storage\""), std::string::npos);
  EXPECT_NE(json.find("\"wal_appends\""), std::string::npos);
  EXPECT_NE(json.find("\"checkpoints\""), std::string::npos);

  // An in-memory engine reports an unattached log.
  Engine in_memory;
  Engine::Result detached = in_memory.Execute("SHOW WAL;");
  ASSERT_EQ(detached.kind, Engine::Result::Kind::kRows);
  EXPECT_EQ(detached.rows.at(0).first.at(0).AsString(), "attached");
  EXPECT_EQ(detached.rows.at(0).first.at(1).AsInt64(), 0);
}

// ---------------------------------------------------------------------------
// Differential checkpoints: chains of delta segments over a base.

// Table name -> its chain in the manifest on disk (views have none).
std::map<std::string, std::vector<storage::SegmentRef>> Chains(
    const std::string& dir) {
  std::optional<storage::CheckpointManifest> m = storage::ReadManifest(dir);
  std::map<std::string, std::vector<storage::SegmentRef>> chains;
  if (!m.has_value()) return chains;
  for (const auto& scope : m->tables) chains[scope.name] = scope.chain;
  return chains;
}

// Segment files in `dir` that the manifest does not reference.
std::set<std::string> Orphans(const std::string& dir) {
  std::set<std::string> live;
  for (const auto& [name, chain] : Chains(dir)) {
    for (const auto& ref : chain) live.insert(ref.file);
  }
  std::set<std::string> orphans;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("seg_", 0) == 0 && live.count(name) == 0) {
      orphans.insert(name);
    }
  }
  return orphans;
}

// Every file in `dir` with its size.
std::map<std::string, uintmax_t> Files(const std::string& dir) {
  std::map<std::string, uintmax_t> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = entry.file_size();
  }
  return files;
}

class DifferentialCheckpointTest : public RecoveryTest {
 protected:
  void SetUp() override {
    RecoveryTest::SetUp();
    options_.checkpoint_on_close = false;
    storage_ = Storage::Open(Dir(), options_);
    engine_ = std::make_unique<Engine>(storage_.get());
    Both(Preamble());
    // A base large enough that one-row deltas stay far below its bytes.
    for (int from = 0; from < 300; from += 50) {
      std::string r = "INSERT INTO r VALUES ";
      std::string s = "INSERT INTO s VALUES ";
      for (int a = from; a < from + 50; ++a) {
        const std::string sep = a == from ? "" : ", ";
        r += sep + "(" + std::to_string(a) + ", " + std::to_string(a % 7) + ")";
        s += sep + "(" + std::to_string(a % 7) + ", " + std::to_string(a) + ")";
      }
      Both(r + ";" + s + ";");
    }
    // Packed, consecutive keys take about 4 bits a row, so r also holds
    // rows up to a = 999 that join nothing (no b2 is 7).
    for (int from = 300; from < 1000; from += 100) {
      std::string r = "INSERT INTO r VALUES ";
      for (int a = from; a < from + 100; ++a) {
        r += (a == from ? "(" : ", (") + std::to_string(a) + ", 7)";
      }
      Both(r + ";");
    }
    engine_->Execute("CHECKPOINT");
  }

  // Runs `script` on the durable engine and the in-memory reference.
  void Both(const std::string& script) {
    reference_.ExecuteScript(script);
    engine_->ExecuteScript(script);
  }

  // Drops the engine without a checkpoint, as a crash would.
  void Crash() {
    engine_.reset();
    storage_.reset();
  }

  void Reopen() {
    Crash();
    storage_ = Storage::Open(Dir(), options_);
    engine_ = std::make_unique<Engine>(storage_.get());
  }

  // Recovers a copy of the directory as it is now into a fresh engine and
  // compares it with the reference.
  void ExpectCopyRecovers(const std::string& label) {
    const std::string copy = Dir() + "_copy";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(Dir(), copy);
    {
      auto storage = Storage::Open(copy, options_);
      Engine recovered(storage.get());
      SCOPED_TRACE(label);
      ExpectSameState(recovered, reference_);
    }
    std::filesystem::remove_all(copy);
  }

  Storage::Options options_;
  Engine reference_;
  std::unique_ptr<Storage> storage_;
  std::unique_ptr<Engine> engine_;
};

// Recovery equals the reference with 0 to 8 deltas in a chain, across the
// count rule's compaction (the 9th delta rewrites the base instead) and
// the byte rule's (a change larger than the base compacts at once).
TEST_F(DifferentialCheckpointTest, ChainsRecoverAtEveryLength) {
  const size_t max = storage::kMaxDeltas;
  for (size_t step = 0; step <= max + 2; ++step) {
    if (step > 0) {
      // Fresh rows in and out, plus one row toggled at every step, so the
      // chain's deltas disagree about it and only the latest may win.
      Both("INSERT INTO r VALUES (" + std::to_string(1000 + step) + ", 3);" +
           "DELETE FROM r WHERE a = " + std::to_string(step) + ";" +
           (step % 2 == 1 ? "INSERT INTO r VALUES (777, 3);"
                          : "DELETE FROM r WHERE a = 777;"));
      engine_->Execute("CHECKPOINT");
    }
    const size_t expect = step <= max ? 1 + step : step - max;
    EXPECT_EQ(Chains(Dir())["r"].size(), expect) << "step " << step;
    EXPECT_EQ(Chains(Dir())["s"].size(), 1u) << "unchanged, carried";
    ExpectCopyRecovers("step " + std::to_string(step));
  }
  const std::string base = Chains(Dir())["r"][0].file;
  Both("DELETE FROM r WHERE a < 1000;");
  engine_->Execute("CHECKPOINT");
  ASSERT_EQ(Chains(Dir())["r"].size(), 1u);
  EXPECT_NE(Chains(Dir())["r"][0].file, base);
  ExpectCopyRecovers("after the byte rule");
  EXPECT_TRUE(Orphans(Dir()).empty());
}

// A crash after the delta segments are written but before the manifest
// rename: the old manifest stays authoritative (the WAL still holds the
// changes), and the orphans go at the next checkpoint.
TEST_F(DifferentialCheckpointTest, CrashBeforeManifestRenameKeepsTheOldImage) {
  Both("INSERT INTO r VALUES (5000, 2);DELETE FROM s WHERE c = 3;");
  engine_->Execute("CHECKPOINT");
  Both("INSERT INTO r VALUES (5001, 2);INSERT INTO s VALUES (2, 5001);");
  const auto before = Chains(Dir());
  {
    util::ScopedFault fault("checkpoint.manifest", util::FaultSpec{});
    EXPECT_THROW(engine_->Execute("CHECKPOINT"), Error);
  }
  EXPECT_EQ(Chains(Dir())["r"].size(), before.at("r").size());
  EXPECT_FALSE(Orphans(Dir()).empty());

  Reopen();
  ExpectSameState(*engine_, reference_);
  EXPECT_FALSE(Orphans(Dir()).empty());
  engine_->Execute("CHECKPOINT");
  EXPECT_TRUE(Orphans(Dir()).empty());
  Reopen();
  ExpectSameState(*engine_, reference_);
}

// A table dropped and re-created under its name, with the same rows, while
// its chain holds deltas: the next checkpoint gives it a fresh base.  (A
// merge against the old image would find nothing to write and carry the
// predecessor's chain forward.)  The view over it, re-created too, is
// derived from the new table at recovery.
TEST_F(DifferentialCheckpointTest, ScopeRecreatedMidChainNeverInheritsIt) {
  for (int i = 0; i < 2; ++i) {
    Both("INSERT INTO s VALUES (3, " + std::to_string(9000 + i) + ");");
    engine_->Execute("CHECKPOINT");
  }
  const auto before = Chains(Dir());
  ASSERT_EQ(before.at("s").size(), 3u);
  EXPECT_EQ(before.count("joined"), 0u);
  std::string refill = "INSERT INTO s VALUES (3, 9000), (3, 9001)";
  for (int a = 0; a < 300; ++a) {
    refill += ", (" + std::to_string(a % 7) + ", " + std::to_string(a) + ")";
  }
  Both("DROP VIEW joined;"
       "DROP TABLE s;"
       "CREATE TABLE s (b2 INT64, c INT64);" +
       refill +
       ";"
       "CREATE MATERIALIZED VIEW joined AS "
       "  SELECT a, c FROM r, s WHERE b = b2;");
  engine_->Execute("CHECKPOINT");
  auto after = Chains(Dir());
  ASSERT_EQ(after["s"].size(), 1u);
  for (const auto& old : before.at("s")) {
    EXPECT_NE(after["s"][0].file, old.file);
  }
  EXPECT_EQ(after["r"].size(), before.at("r").size());  // untouched
  Reopen();
  ExpectSameState(*engine_, reference_);
}

// A quarantined view, a DEFERRED view with a pending backlog, and an
// assertion all survive a chain of differential checkpoints.
TEST_F(DifferentialCheckpointTest, QuarantineBacklogAndAssertionSurvive) {
  {
    util::FaultSpec spec;
    spec.kind = util::FaultKind::kCorruption;
    util::ScopedFault fault("viewmgr.differential.pre_apply", spec);
    engine_->Execute("INSERT INTO r VALUES (7000, 1);");
  }
  reference_.Execute("INSERT INTO r VALUES (7000, 1);");
  ASSERT_TRUE(engine_->views().IsQuarantined("joined"));
  engine_->Execute("CHECKPOINT");
  for (int i = 0; i < 3; ++i) {
    Both("INSERT INTO r VALUES (" + std::to_string(20 + i) + ", 5);" +
         "DELETE FROM r WHERE a = " + std::to_string(40 + i) + ";");
    engine_->Execute("CHECKPOINT");
  }
  EXPECT_GE(Chains(Dir())["r"].size(), 4u);
  const size_t backlog = reference_.views().Describe("small_a").pending_tuples;
  ASSERT_GT(backlog, 0u);

  Reopen();
  EXPECT_TRUE(engine_->views().IsQuarantined("joined"));
  EXPECT_TRUE(engine_->views().Describe("joined").quarantine_sticky);
  EXPECT_EQ(engine_->views().Describe("small_a").pending_tuples, backlog);
  for (const char* rel : {"r", "s", "small_a"}) {
    EXPECT_EQ(Query(*engine_, std::string("SELECT * FROM ") + rel),
              Query(reference_, std::string("SELECT * FROM ") + rel))
        << rel;
  }
  // The recovered assertion still rejects a violating commit.
  Engine::Result rejected =
      engine_->Execute("INSERT INTO r VALUES (2000000, 1)");
  EXPECT_NE(rejected.message.find("a_bounded"), std::string::npos);
  EXPECT_FALSE(engine_->database().Get("r").Contains(
      Tuple({Value(2000000), Value(1)})));
  engine_->Execute("REPAIR VIEW joined");
  Both("REFRESH VIEW small_a;");
  ExpectSameState(*engine_, reference_);
}

// Every path that changes a view's rows is reproduced from the image
// alone: a commit (with a RECOMPUTED view's full re-evaluation) reaches
// the tables, a REFRESH empties the backlog the manifest keeps, and the
// REPAIR of a quarantined view that missed a commit clears the health the
// manifest keeps; recovery derives every view from the result.  Each
// checkpoint rotates the log away, so recovery reads the image alone.
TEST_F(DifferentialCheckpointTest, EveryMutationPathReachesTheImage) {
  Both("CREATE MATERIALIZED VIEW recomputed RECOMPUTED AS "
       "  SELECT a, b FROM r WHERE b = 3;");
  engine_->Execute("CHECKPOINT");
  auto check = [&](const std::string& label) {
    engine_->Execute("CHECKPOINT");
    Reopen();
    EXPECT_EQ(storage_->wal_stats().records_replayed, 0) << label;
    for (const char* rel : {"r", "s", "joined", "small_a", "recomputed"}) {
      EXPECT_EQ(Query(*engine_, std::string("SELECT * FROM ") + rel),
                Query(reference_, std::string("SELECT * FROM ") + rel))
          << label << ": divergence in " << rel;
    }
  };
  Both("INSERT INTO r VALUES (8000, 3);DELETE FROM r WHERE a = 10;");
  check("commit");
  Both("REFRESH VIEW small_a;");
  check("refresh");
  {
    util::FaultSpec spec;
    spec.kind = util::FaultKind::kCorruption;
    util::ScopedFault fault("viewmgr.differential.pre_apply", spec);
    engine_->Execute("INSERT INTO s VALUES (3, 8001);");
  }
  reference_.Execute("INSERT INTO s VALUES (3, 8001);");
  ASSERT_TRUE(engine_->views().IsQuarantined("joined"));
  engine_->Execute("CHECKPOINT");  // the quarantine, in the manifest
  engine_->Execute("REPAIR VIEW joined");
  check("repair");
}

// `checkpoint_bytes` counts every byte of every file a checkpoint writes,
// and `segments_written` every segment file; `checkpoint_base_bytes` and
// `checkpoint_delta_bytes` split the segments' bytes by chain position.
// Only table scopes are written: one segment per changed table, none for
// the views over them.
TEST_F(DifferentialCheckpointTest, CheckpointBytesEqualTheFilesWritten) {
  for (int round = 0; round < 4; ++round) {
    if (round < 3) {
      Both("INSERT INTO r VALUES (" + std::to_string(3000 + round) + ", 1);" +
           "INSERT INTO s VALUES (1, " + std::to_string(3000 + round) + ");");
    } else {
      Both("DELETE FROM s WHERE c < 1000;");  // outgrows s's base: compacts
    }
    StorageMetrics& m = engine_->mutable_views().metrics().storage();
    const int64_t bytes0 = m.checkpoint_bytes;
    const int64_t base0 = m.checkpoint_base_bytes;
    const int64_t delta0 = m.checkpoint_delta_bytes;
    const int64_t segments0 = m.segments_written;
    const auto files0 = Files(Dir());
    engine_->Execute("CHECKPOINT");
    const auto chains = Chains(Dir());
    EXPECT_EQ(chains.size(), 2u);  // r and s; no view scope
    std::set<std::string> bases, live;
    for (const auto& [scope, chain] : chains) {
      bases.insert(chain[0].file);
      for (const auto& ref : chain) live.insert(ref.file);
    }
    uintmax_t written = 0;
    int64_t base = 0;
    int64_t delta = 0;
    int64_t segments = 0;
    for (const auto& [name, size] : Files(Dir())) {
      if (name == "manifest.mv") {
        written += size;
      } else if (name.rfind("seg_", 0) == 0 && files0.count(name) == 0) {
        EXPECT_EQ(live.count(name), 1u) << name << " is no table's segment";
        written += size;
        (bases.count(name) > 0 ? base : delta) += static_cast<int64_t>(size);
        ++segments;
      }
    }
    EXPECT_EQ(m.checkpoint_bytes - bytes0, static_cast<int64_t>(written));
    EXPECT_EQ(m.checkpoint_base_bytes - base0, base) << "round " << round;
    EXPECT_EQ(m.checkpoint_delta_bytes - delta0, delta) << "round " << round;
    EXPECT_EQ(m.segments_written - segments0, segments);
    EXPECT_GT(segments, 0);
    EXPECT_EQ(segments, round < 3 ? 2 : 1) << "round " << round;
    EXPECT_GT(round < 3 ? delta : base, 0) << "round " << round;
  }
}

// `REPAIR VIEW` of a healthy view changes no table, and views have no
// chain, so the next checkpoint writes no segment at all.
TEST_F(DifferentialCheckpointTest,
       RepairOfAHealthyViewLeavesItsNextDeltaEmpty) {
  const auto before = Chains(Dir());
  engine_->Execute("REPAIR VIEW joined");
  for (const auto& [table, chain] : before) {
    EXPECT_FALSE(engine_->views().changed_scopes().Changed(table)) << table;
  }
  StorageMetrics& m = engine_->mutable_views().metrics().storage();
  const int64_t segments0 = m.segments_written;
  const int64_t skipped0 = m.partitions_skipped;
  engine_->Execute("CHECKPOINT");
  EXPECT_EQ(m.segments_written, segments0);
  EXPECT_EQ(m.partitions_skipped - skipped0, 2);  // r and s
  const auto after = Chains(Dir());
  EXPECT_EQ(after.size(), 2u);
  for (const auto& [table, chain] : before) {
    ASSERT_EQ(after.at(table).size(), chain.size()) << table;
    EXPECT_EQ(after.at(table).back().file, chain.back().file) << table;
  }
}

// The replay == direct-execution property, at the component level: a
// random multi-relation workload is applied to a live ViewManager while
// every effect is appended to a WAL; recovering checkpoint + WAL into a
// fresh database must reproduce the tables, both view materializations,
// and the deferred backlog exactly.
TEST_F(RecoveryTest, RandomWorkloadReplayMatchesDirectExecution) {
  const std::string wal_path = Dir() + "/wal.mv";

  RelationSpec r_spec("R", /*arity=*/2, /*domain=*/40, /*rows=*/60);
  RelationSpec s_spec("S", /*arity=*/2, /*domain=*/40, /*rows=*/60);
  WorkloadGenerator gen(/*seed=*/7);

  Database live_db;
  gen.Populate(&live_db, r_spec);
  gen.Populate(&live_db, s_spec);

  ViewManager live(&live_db);
  ViewDefinition join("j", {BaseRef{"R", {}}, BaseRef{"S", {}}},
                      "R_a1 = S_a0", {"R_a0", "S_a1"});
  ViewDefinition select = ViewDefinition::Select("sel", "R", "R_a0 < 20");
  live.RegisterView(join, MaintenanceMode::kImmediate);
  live.RegisterView(select, MaintenanceMode::kDeferred);

  // Checkpoint the populated initial state at LSN 0, then stream a random
  // workload through the live manager and the log in lockstep.
  storage::WriteCheckpoint(Dir(), /*lsn=*/0, live_db, live, /*guard=*/nullptr,
                           live.changed_scopes(), /*prev=*/nullptr,
                           /*stats=*/nullptr);
  {
    storage::Wal wal(wal_path, storage::WalOptions{});
    for (int i = 0; i < 40; ++i) {
      Transaction txn = gen.MakeTransaction(r_spec, /*num_inserts=*/3,
                                            /*num_deletes=*/2);
      gen.AddUpdates(&txn, s_spec, /*num_inserts=*/2, /*num_deletes=*/1);
      TransactionEffect effect = txn.Normalize(live_db);
      if (effect.Empty()) continue;
      wal.Append(effect);
      live.ApplyEffect(effect);
    }
  }

  // Recover into a fresh database + manager.
  Database recovered_db;
  ViewManager recovered(&recovered_db);
  auto manifest = storage::ReadManifest(Dir());
  ASSERT_TRUE(manifest.has_value());
  storage::InstallCheckpoint(Dir(), &*manifest, &recovered_db, &recovered);
  int64_t replayed = 0;
  {
    storage::Wal wal(wal_path, storage::WalOptions{},
                     [&](storage::WalRecord&& record) {
                       recovered.ApplyEffect(
                           storage::ToEffect(record, recovered_db));
                       ++replayed;
                     });
    EXPECT_GT(replayed, 0);
  }

  for (const char* rel : {"R", "S"}) {
    EXPECT_EQ(recovered_db.Get(rel).ToSortedVector(),
              live_db.Get(rel).ToSortedVector())
        << "table " << rel << " diverged";
  }
  EXPECT_TRUE(recovered.View("j").SameContents(live.View("j")));
  EXPECT_EQ(recovered.Describe("sel").pending_tuples,
            live.Describe("sel").pending_tuples);

  recovered.RefreshAll();
  live.RefreshAll();
  EXPECT_TRUE(recovered.View("sel").SameContents(live.View("sel")));
  EXPECT_TRUE(recovered.View("j").SameContents(live.View("j")));
}

}  // namespace
}  // namespace mview
