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

namespace mview::storage {

/// Fault-injection hook for crash tests: lets a test make the log
/// misbehave mid-write to prove torn-tail truncation and idempotent
/// replay.  The default policy never fails.  Once a policy injects a
/// failure the log is sticky-failed (as a crashed process would be); the
/// test then reopens the file through recovery.
///
/// This predates the process-wide `util::FaultRegistry` and remains for
/// tests that need the torn-write *prefix* semantics; `RegistryFailurePolicy`
/// below adapts it onto the registry's named fault points so one armed
/// registry drives both mechanisms.
class FailurePolicy {
 public:
  virtual ~FailurePolicy() = default;

  /// Called with the size of each physical batch about to be written.
  /// Return `size` to write it whole; return less to simulate a torn
  /// write — the prefix is written, then the append fails with `IoError`.
  virtual size_t AdmitWrite(size_t size) { return size; }

  /// Called between write and fsync; throw `IoError` to simulate power
  /// loss in the window where bytes may or may not be durable.
  virtual void BeforeSync() {}
};

/// Adapter from the legacy `FailurePolicy` hooks onto the process-wide
/// fault registry: `AdmitWrite` fires the `"wal.torn_write"` point (an
/// injected `IoError` there truncates the batch to half, simulating a torn
/// write) and `BeforeSync` fires `"wal.before_sync"` (throwing models power
/// loss in the bytes-maybe-durable window).  Stateless; one instance can
/// serve every log in the process.
class RegistryFailurePolicy : public FailurePolicy {
 public:
  size_t AdmitWrite(size_t size) override;
  void BeforeSync() override;
};

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

  /// When false, records are written but never fsynced — the "no
  /// durability" benchmark baseline.  Never disable this for real data.
  bool fsync = true;

  /// When true, a file too short to hold the 16-byte header (or exactly
  /// header-sized with bad magic) is treated as a *torn header write* —
  /// re-initialized empty instead of throwing `CorruptionError`.  Set this
  /// only when an authoritative checkpoint exists: such a file cannot
  /// contain a complete record, so with a checkpoint nothing is lost, but
  /// without one the same bytes more likely mean external damage.  A file
  /// long enough to carry records whose magic is wrong is always
  /// corruption.  The caller must rebase the log above the checkpoint LSN
  /// afterwards (see `Storage::Attach`).
  bool tolerate_torn_header = false;

  FailurePolicy* failure_policy = nullptr;  // not owned; may be null
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
/// never written past the failure).
class Wal {
 public:
  using ReplayFn = std::function<void(WalRecord&&)>;

  /// Opens or creates the log at `path`.  Existing records are decoded in
  /// order and passed to `replay` (when non-null); a torn tail is
  /// truncated before the log accepts appends.  Throws `IoError` on file
  /// errors and `CorruptionError` on a bad header or mid-log damage.
  Wal(std::string path, WalOptions options, const ReplayFn& replay = nullptr);
  ~Wal();

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
  /// rename, so a crash at any instant leaves either the old records or
  /// the complete new header — never a truncated file.  Must not race
  /// appends.
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
  void ScanExisting(const ReplayFn& replay);
  void WriteHeader(uint64_t base_lsn);
  // Writes `batch` at the current end of file and fsyncs; returns nanos
  // spent.  Called by the batch leader with `mu_` released.
  int64_t WriteAndSync(const std::string& batch);
  // Drains up to max_batch pending records as the leader; `lk` holds mu_.
  void LeadBatch(std::unique_lock<std::mutex>& lk);
  void ThrowIfFailed() const;  // requires mu_

  std::string path_;
  WalOptions options_;
  int fd_ = -1;

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
