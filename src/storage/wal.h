#ifndef MVIEW_STORAGE_WAL_H_
#define MVIEW_STORAGE_WAL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "db/transaction.h"
#include "ivm/metrics.h"
#include "storage/codec.h"
#include "storage/file.h"

namespace mview::storage {

/// One decoded log record, tagged with its log sequence number.  Most
/// records are `kEffect` — the normalized net effect (Section 3) of a
/// committed transaction.  View-health transitions are logged too so a
/// quarantine survives recovery: `kQuarantine` marks a view whose
/// maintenance failed mid-commit, `kRepair` marks its subsequent heal (or a
/// `REPAIR` that consumed a deferred view's backlog).
/// `kCatalog` carries one DDL statement, so the log replays schema changes
/// in order with the commits around them.  `kRefresh` marks a `REFRESH` of
/// a deferred view, so a refresh already reported as done survives a crash
/// before the next checkpoint.
struct WalRecord {
  enum class Type : uint8_t {
    kEffect = 0,
    kQuarantine = 1,
    kRepair = 2,
    kCatalog = 3,
    kRefresh = 4,
  };
  struct Change {
    std::string relation;
    ColumnTypes types;  // of both row lists
    std::vector<Tuple> inserts;
    std::vector<Tuple> deletes;
  };
  uint64_t lsn = 0;
  Type type = Type::kEffect;
  std::vector<Change> changes;  // kEffect
  std::string view;             // kQuarantine / kRepair / kRefresh
  std::string reason;           // kQuarantine
  bool sticky = false;          // kQuarantine
  CatalogChange catalog;        // kCatalog
};

/// Knobs for the log; every field has a production-safe default.
struct WalOptions {
  /// How long a group-commit leader holds a batch open for more commits,
  /// measured from the first commit in the batch.  0 (the default) never
  /// delays: a batch is exactly what accumulated while the previous fsync
  /// was in flight (natural batching).  Positive windows trade commit
  /// latency for fewer, larger fsyncs.
  std::chrono::microseconds group_commit_window{0};

  /// Upper bound on commits coalesced into one fsync.  1 degenerates to
  /// per-commit fsync (the E15 baseline).
  size_t max_batch = 64;

  /// When true, a file no longer than the 16-byte header whose magic is
  /// wrong is re-initialized empty instead of refused with
  /// `CorruptionError`: it cannot hold a record, so with an authoritative
  /// checkpoint beside it nothing is lost (without one the bytes more
  /// likely mean external damage).  The caller must then rebase the log
  /// above the checkpoint LSN (see `Storage::Attach`).
  bool tolerate_torn_header = false;
};

/// Point-in-time counters of one log instance.  Returned by `Wal::stats`
/// as a snapshot taken under the log mutex, so reading one is safe while
/// other threads commit.
struct WalStats {
  uint64_t base_lsn = 0;     // LSN of the checkpoint the log starts after
  uint64_t durable_lsn = 0;  // highest LSN guaranteed on disk
  uint64_t next_lsn = 0;     // LSN the next append will receive
  int64_t records_appended = 0;
  int64_t bytes_appended = 0;
  int64_t fsyncs = 0;
  int64_t fsync_nanos = 0;       // wall time inside write+fsync
  int64_t records_replayed = 0;  // recovered at open
  int64_t truncated_bytes = 0;   // torn tail dropped at open
  SizeHistogram batch_commits;   // commits coalesced per fsync batch
  obs::LatencyHistogram fsync_latency;  // write+fsync wall time per batch
};

/// An fsync-batched append-only log of committed transaction effects,
/// catalog changes and view-health transitions.
///
/// File layout: an 16-byte header (`"MVWAL005"` + little-endian u64 base
/// LSN) followed by records `[u32 payload_len][u32 crc32][payload]`.  The
/// payload carries the LSN, a record-type byte (`WalRecord::Type`), and
/// the type's body — for effects, per relation a column-type header and
/// the insert and delete rows in sorted order, in the compact row codec
/// of `storage/codec.h` (the header makes a log decodable without the
/// catalog); for catalog changes, the structural codec of the same file.  LSNs are assigned contiguously from
/// `base_lsn + 1`; recovery rejects gaps as corruption and truncates an
/// unreadable *tail* (short or CRC-failing trailing bytes) as a torn
/// write.
///
/// `Append` is thread-safe and returns only when the record is durable
/// (group commit): the first waiter becomes the batch leader, holds the
/// batch open per `group_commit_window`/`max_batch`, writes and fsyncs
/// once, and wakes every commit the batch covered.  Commits arriving
/// while a leader is syncing form the next batch — under load the log
/// batches naturally even with a zero window.
///
/// Sticky fsync-failure rule (fsyncgate semantics): when a batch's
/// write+fsync fails — a real `EIO` or an injected fault — the log is
/// failed permanently and **never retries the fsync**.  After an `EIO`
/// the kernel may mark the dirty pages clean, so a "successful" retry
/// would acknowledge commits whose bytes were silently dropped; the only
/// safe recovery is to reject every waiter and future append with
/// `IoError` until the directory is reopened through recovery, which
/// replays exactly the acknowledged prefix (unacknowledged records were
/// never written past the failure).  A `Rotate` that fails after its
/// rename (in the directory sync) fails it too: the old descriptor then
/// names an unlinked file.  One that fails before the rename leaves the
/// old log live and usable.
///
/// Ordering under the crash model of `storage/file.h`: a batch is fsynced
/// before its commits are acknowledged, and a new or rotated log is built
/// beside the path, fsynced, renamed over it and the directory synced
/// (else a power cut could drop the file's name, and with it every
/// acknowledged record).  The fault points `wal.fsync` (before a batch's
/// write), `wal.torn_write` (half the batch written, then the append
/// fails) and `wal.before_sync` (between write and fsync) inject failures
/// on that path.
class Wal {
 public:
  using ReplayFn = std::function<void(WalRecord&&)>;

  /// Opens or creates the log at `path`.  Existing records are decoded in
  /// order and passed to `replay` (when non-null); a torn tail is
  /// truncated before the log accepts appends.  Throws `IoError` on file
  /// errors and `CorruptionError` on a bad header or mid-log damage.
  Wal(std::string path, WalOptions options, const ReplayFn& replay = nullptr);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends the effect as one record and returns its LSN once durable.
  /// Thread-safe.  Throws `IoError` when the log has failed (the failure
  /// is sticky — reopen through recovery).
  uint64_t Append(const TransactionEffect& effect);

  /// Appends a view-quarantine record (the view's maintenance failed and
  /// its materialization is no longer trusted); durable before return.
  uint64_t AppendQuarantine(const std::string& view, const std::string& reason,
                            bool sticky);

  /// Appends a view-repair record (the quarantined view was healed by full
  /// re-evaluation); durable before return.
  uint64_t AppendRepair(const std::string& view);

  /// Appends a catalog-change record; durable before return.  Fails like
  /// `Append` (same "wal.append" fault point, same sticky failure), so a
  /// rejected DDL statement is never acknowledged.
  uint64_t AppendCatalog(const CatalogChange& change);

  /// Appends a deferred-view refresh record; durable before return.  Fails
  /// like `Append`, so a refresh whose record did not land never runs.
  uint64_t AppendRefresh(const std::string& view);

  /// Empties the log and restarts it after `base_lsn` (call after a
  /// checkpoint covering everything up to `base_lsn` is durable).  The
  /// new log is built beside the old one and swapped in with an atomic
  /// rename (`File::Replace`), so a crash at any instant leaves either the
  /// old records or the complete new header — never a truncated file.
  /// Must not race appends.
  void Rotate(uint64_t base_lsn);

  WalStats stats() const;
  const std::string& path() const { return path_; }

  /// True once an append has failed; the log rejects further work until
  /// reopened through recovery.
  bool failed() const;

 private:
  // Shared group-commit path: assigns the LSN, frames `payload_tail` (the
  // payload bytes after the leading LSN), and blocks until durable.
  uint64_t AppendPayload(std::string payload_tail);
  // Replaces the file with an empty log after `base_lsn`; `renamed` as in
  // `File::Replace`.
  void Reset(uint64_t base_lsn, bool* renamed = nullptr);
  // Writes `batch` at the end of the log and fsyncs; returns nanos spent.
  // Called by the batch leader with `mu_` released.
  int64_t WriteAndSync(const std::string& batch);
  // Drains up to max_batch pending records as the leader; `lk` holds mu_.
  void LeadBatch(std::unique_lock<std::mutex>& lk);
  void ThrowIfFailed() const;  // requires mu_

  std::string path_;
  WalOptions options_;
  File file_;
  uint64_t end_ = 0;  // offset of the next batch: the valid prefix's end

  mutable std::mutex mu_;
  std::condition_variable cv_batch_;    // new record buffered
  std::condition_variable cv_durable_;  // durable_lsn_ advanced / failure
  std::deque<std::string> pending_;     // encoded records awaiting fsync
  std::chrono::steady_clock::time_point batch_open_;  // first pending arrival
  bool leader_active_ = false;
  bool failed_ = false;
  std::string failure_message_;

  uint64_t base_lsn_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  WalStats stats_;
};

}  // namespace mview::storage

#endif  // MVIEW_STORAGE_WAL_H_
