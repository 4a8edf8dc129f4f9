#ifndef MVIEW_STORAGE_STORAGE_H_
#define MVIEW_STORAGE_STORAGE_H_

#include <memory>
#include <optional>
#include <string>

#include "storage/checkpoint.h"
#include "storage/wal.h"

namespace mview::sql {
class Engine;
class EngineCore;
}  // namespace mview::sql

namespace mview {

/// The single storage-facing facade: one durable database directory
/// holding a checkpoint image (`manifest.mv` plus each table's chain of
/// `seg_*.mv` row segments; views are derived state and store no rows)
/// and a write-ahead log (`wal.mv`).
///
/// Lifecycle: `Open` the directory, construct an `sql::Engine` with the
/// `Storage*` (the engine attaches, which recovers — checkpoint restore,
/// WAL tail replay through the maintenance pipeline, assertion
/// re-registration), then use the engine normally.  Every committed
/// transaction and every catalog change (DDL) is appended to the log
/// (group-committed) before it is applied, so a DDL statement costs one
/// small record, not a checkpoint.  `Checkpoint` (or SQL `CHECKPOINT`)
/// writes the table rows that changed since the last one and truncates the
/// log; `Close` detaches (checkpointing first by default).
///
/// Durability: files are reached through the `storage::FileSystem` seam.
/// The ordering rules in `storage/wal.h` and `storage/checkpoint.h` are
/// meant to make a power cut, under the seam's crash model, leave a
/// directory that recovers to the state after a prefix of the statements
/// holding every acknowledged one.  `tests/crash_state_test.cc` checks
/// that for every power cut of a scripted workload run in an existing
/// database directory.
class Storage {
 public:
  struct Options {
    /// Checkpoint automatically in `Close` (skipped when the log has
    /// failed — a later `Open` recovers from the last durable state).
    bool checkpoint_on_close = true;
  };

  /// Opens (creating if needed) the database directory; each directory it
  /// creates is synced into its parent.  Throws `storage::IoError` when the
  /// directory cannot be created.  Recovery happens at `Attach` time, not
  /// here.  The storage must outlive the engine it attaches to; the engine
  /// calls `Close` from its destructor, so the usual declaration order
  /// (`Storage` first, `Engine` second) checkpoints cleanly on scope exit.
  static std::unique_ptr<Storage> Open(const std::string& path,
                                       Options options);
  static std::unique_ptr<Storage> Open(const std::string& path);

  /// Closes the log file; does NOT checkpoint (the engine may already be
  /// gone).  Call `Close` — or let the engine's destructor do it — for a
  /// checkpointing shutdown.  Dropping the log unflushed is safe: it holds
  /// every commit, so the next `Open` recovers everything.
  ~Storage() = default;

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Binds this storage to an *empty* engine core and recovers into it:
  /// decodes the latest checkpoint's tables and derives every view from
  /// them (`storage::InstallCheckpoint`; a view whose evaluation throws
  /// comes up quarantined), replays the WAL tail through
  /// `ViewManager::ApplyEffect` (so replayed updates flow through
  /// irrelevance filtering and differential re-evaluation), truncates any
  /// torn tail, rebases the log above the checkpoint LSN when a torn
  /// rotation left it behind, re-registers assertions against the
  /// recovered state, and finally republishes the recovered view state as
  /// epoch 0 — a freshly opened database always serves snapshot readers
  /// from epoch 0 regardless of how many rounds the WAL replayed.  Times
  /// the first three steps (`StorageMetrics::restore_nanos`,
  /// `derive_nanos`, `replay_nanos`).  Called by the
  /// `sql::EngineCore(Storage*)` constructor; callable directly for engines
  /// assembled by hand.  Throws `storage::CorruptionError` /
  /// `storage::IoError` on unrecoverable state.
  void Attach(sql::EngineCore& core);

  /// Checkpoints the engine state at the current durable LSN — one delta
  /// segment per table whose rows changed since the last checkpoint,
  /// holding just those rows, so the cost follows the change rather than
  /// the database (see `storage/checkpoint.h`) — then truncates the log.
  /// Requires an attached engine.  A failure before the log rotates (a
  /// failed directory sync included) leaves the previous manifest the base
  /// of the next checkpoint, which still writes its segments under a new
  /// generation; a rotation that fails after its rename fails the log.
  void Checkpoint();

  /// Detaches from the engine, checkpointing first when
  /// `checkpoint_on_close` is set and the log is healthy.  Idempotent;
  /// the engine remains usable but non-durable afterwards.
  void Close();

  const std::string& path() const { return path_; }
  std::string wal_path() const { return path_ + "/wal.mv"; }
  std::string manifest_path() const { return path_ + "/manifest.mv"; }

  /// Counters of the underlying log (zeroes when not attached) — what SQL
  /// `SHOW WAL` prints.
  storage::WalStats wal_stats() const;

  /// Prometheus text-format (exposition 0.0.4) rendering of the attached
  /// engine's full metrics registry, WAL counters synced first.  Empty
  /// when not attached.  Suitable as a `/metrics` scrape body.
  std::string ExportMetricsText();

 private:
  friend class sql::EngineCore;

  Storage(std::string path, Options options);

  /// The write-ahead hooks: each appends one record to the log and returns
  /// once it is durable.  The engine calls them before the change is
  /// applied anywhere — a commit's effect, a validated DDL statement (a new
  /// view already evaluated), a deferred view's refresh, a REPAIR that
  /// consumes a backlog (a quarantined view's repair is logged by the
  /// health listener) — so a failed append rejects the statement with
  /// nothing changed.
  void LogCommit(const TransactionEffect& effect);
  void LogCatalog(const storage::CatalogChange& change);
  void LogRefresh(const std::string& view);
  void LogRepair(const std::string& view);

  /// Refreshes the WAL-owned counters in the engine's `MetricsRegistry`
  /// from a snapshot taken under the log mutex.  Called by the engine
  /// before rendering `SHOW STATS`, so metrics reads never race the
  /// group-commit leader.
  void SyncWalMetrics();

  std::string path_;
  Options options_;
  sql::EngineCore* engine_ = nullptr;
  std::unique_ptr<storage::Wal> wal_;
  /// The manifest of the last checkpoint (written here or recovered at
  /// `Attach`); the next write extends or carries forward its chains.
  /// Absent until the first checkpoint of a fresh database.  A failed
  /// write advances its generation (see `Checkpoint`).
  std::optional<storage::CheckpointManifest> manifest_;
};

}  // namespace mview

#endif  // MVIEW_STORAGE_STORAGE_H_
