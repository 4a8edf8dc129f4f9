#ifndef MVIEW_IVM_METRICS_H_
#define MVIEW_IVM_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ivm/differential.h"
#include "obs/histogram.h"
#include "obs/session_stats.h"
#include "relational/row_store.h"

namespace mview {

/// A histogram over non-negative sizes with power-of-two buckets
/// `[0], [1], [2,3], [4,7], …` — used to record view-delta sizes (total
/// multiplicity moved per maintained commit), whose distribution is the
/// paper's whole argument for differential maintenance: most deltas are
/// tiny relative to the view.
class SizeHistogram {
 public:
  /// Bucket count; the last bucket absorbs everything ≥ 2^(kBuckets-2).
  static constexpr size_t kBuckets = 32;

  /// Records one sample (negative values clamp to 0).
  void Record(int64_t size);

  int64_t total_samples() const { return total_samples_; }
  int64_t max_sample() const { return max_sample_; }

  /// The count in bucket `b` (see `BucketLabel`).
  int64_t bucket(size_t b) const { return counts_.at(b); }

  /// Human-readable range of bucket `b`: "0", "1", "2-3", "4-7", …
  static std::string BucketLabel(size_t b);

  /// `{"0": 3, "2-3": 1}` — only non-empty buckets.
  std::string ToJson() const;

  SizeHistogram& operator+=(const SizeHistogram& other);

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t total_samples_ = 0;
  int64_t max_sample_ = 0;
};

/// Everything the system records about one view's maintenance: the paper's
/// work counters, the wall-clock phase breakdown of the commit pipeline,
/// and the delta-size distribution.
///
/// Owned by the `MetricsRegistry`; during a parallel commit each view's
/// `ViewMetrics` is written only by the worker computing that view's delta,
/// so no synchronization is needed.
struct ViewMetrics {
  MaintenanceStats stats;
  PhaseBreakdown phases;
  SizeHistogram delta_sizes;

  // Per-commit latency distributions of the three maintenance phases.
  // The `phases` sums above stay authoritative for totals; the histograms
  // add the p50/p95/p99 shape that sums cannot express.
  obs::LatencyHistogram filter_latency;
  obs::LatencyHistogram differential_latency;
  obs::LatencyHistogram apply_latency;

  ViewMetrics& operator+=(const ViewMetrics& other);

  /// One JSON object with counters, phase timers, and the histograms.
  std::string ToJson() const;
};

/// Commit-scope counters not attributable to a single view.
struct CommitMetrics {
  int64_t commits = 0;             // non-empty effects applied
  int64_t normalize_nanos = 0;     // Transaction::Normalize time
  int64_t base_apply_nanos = 0;    // TransactionEffect::ApplyTo time
  // Epoch-snapshot publication (the non-blocking read path).
  int64_t epochs_published = 0;   // RCU snapshots installed
  int64_t snapshot_reuses = 0;    // retired buffers recycled via delta replay
  int64_t snapshot_copies = 0;    // buffers cloned (first commit, or a
                                  // reader still pinned the spare)
  obs::LatencyHistogram commit_latency;  // end-to-end ApplyEffect latency
};

/// Point-in-time ThreadPool gauges, refreshed by
/// `ViewManager::SyncPoolMetrics()` before stats are rendered — the pool
/// itself is sampled under its own mutex, this struct is just the last
/// snapshot.
struct PoolMetrics {
  int64_t workers = 0;         // pool size (0 = serial maintenance)
  int64_t queue_depth = 0;     // tasks queued, not yet picked up
  int64_t active_workers = 0;  // tasks currently executing

  /// `{"workers": …, "queue_depth": …, "active_workers": …}`.
  std::string ToJson() const;
};

/// Row-store gauges: the bytes stored rows hold, by owner — the base
/// relations, the views' current materializations (shared with the
/// published epoch) and the views' retired epoch spares.  Per owner,
/// `mapped` is what the row stores mapped themselves and `live` the slot
/// bytes of the rows they hold, so an operator can set resident memory
/// against the rows it keeps.  Refreshed by
/// `ViewManager::SyncRowStoreMetrics()` before stats are rendered — like
/// `PoolMetrics` this struct is just the last snapshot.  Surfaced under the
/// "row_store" key of `SHOW STATS JSON`, `*`-scoped rows of the long
/// format, and the `mview_row_store_*` Prometheus families.
struct RowStoreMetrics {
  RowStoreBytes bases;
  RowStoreBytes views;
  RowStoreBytes spares;

  /// `{"bases": {"mapped_bytes": …, "live_bytes": …}, "views": {…},
  ///   "spares": {…}}`.
  std::string ToJson() const;
};

/// Durability-layer counters: WAL appends, group-commit batching, fsync
/// latency, checkpoints, recovery replay.  Written only on the engine
/// thread: the checkpoint/replay counters directly by `Storage`, and the
/// WAL counters by `Storage::SyncWalMetrics`, which copies a snapshot
/// taken under the log mutex before `SHOW STATS` renders — group-commit
/// leader threads never touch this struct.  Surfaced under the "storage"
/// key of `SHOW STATS JSON` and as `*`-scoped rows of the long
/// `SHOW STATS` format.
struct StorageMetrics {
  int64_t wal_appends = 0;       // records made durable
  int64_t wal_fsyncs = 0;        // fsync calls issued by the log
  int64_t wal_bytes = 0;         // record bytes written (excl. header)
  int64_t fsync_nanos = 0;       // total wall time inside write+fsync
  int64_t checkpoints = 0;       // checkpoints written
  int64_t checkpoint_nanos = 0;  // time spent writing checkpoints
  int64_t checkpoint_bytes = 0;  // every byte a checkpoint writes
  int64_t checkpoint_base_bytes = 0;   // of which fresh bases and compactions
  int64_t checkpoint_delta_bytes = 0;  // of which delta segments
  int64_t segments_written = 0;  // segment files (bases and deltas) written
  // Table chains a checkpoint carried forward unchanged; the
  // key keeps its name for `SHOW STATS JSON` readers.
  int64_t partitions_skipped = 0;
  int64_t replayed_records = 0;  // WAL records replayed at recovery
  // The last open's steps: tables decoded, views derived, WAL replayed.
  int64_t restore_nanos = 0;
  int64_t derive_nanos = 0;
  int64_t replay_nanos = 0;
  SizeHistogram batch_commits;   // commits coalesced per fsync batch
  obs::LatencyHistogram fsync_latency;  // per write+fsync batch

  /// One JSON object with the counters and the batch-size histogram.
  std::string ToJson() const;
};

/// Session-scope counters: how many client sessions have existed and the
/// combined work they did.  Refreshed by the engine (closed sessions'
/// totals plus a sample of every live session) before stats are rendered,
/// on the thread holding the engine's exclusive lock — like `PoolMetrics`
/// this struct is just the last snapshot.  Surfaced under the "sessions"
/// key of `SHOW STATS JSON` and the `mview_session_*` Prometheus families.
struct SessionMetrics {
  int64_t opened = 0;  // sessions ever created (incl. the engine default)
  int64_t closed = 0;
  int64_t active = 0;            // = opened - closed at sample time
  obs::SessionStats totals;      // all sessions, closed + live

  /// `{"opened": …, "closed": …, "active": …, "totals": {…}}`.
  std::string ToJson() const;
};

/// Admission-control snapshot: per-lane admit/shed counters, in-flight
/// gauges, and the current write-lane retry-after hint.  Refreshed by the
/// engine from its `AdmissionController` (which is internally atomic)
/// before stats are rendered — like `PoolMetrics` this struct is just the
/// last snapshot.  Surfaced under the "admission" key of `SHOW STATS
/// JSON`, `*`-scoped rows of the long format, and the `mview_admission_*`
/// Prometheus families.
struct AdmissionMetrics {
  int64_t read_slots = 0;   // configured lane budget (0 = unlimited)
  int64_t write_slots = 0;
  int64_t read_admitted = 0;
  int64_t read_shed = 0;
  int64_t read_inflight = 0;
  int64_t write_admitted = 0;
  int64_t write_shed = 0;
  int64_t write_inflight = 0;
  int64_t retry_after_ms = 0;  // current write-lane backoff hint
  int64_t deadline_exceeded = 0;  // statements unwound by expired deadline

  /// `{"read_slots": …, …}`.
  std::string ToJson() const;
};

/// Cumulative counters of the online consistency scrubber, exported under
/// the "scrub" key of `SHOW STATS JSON` and as the `mview_scrub_*`
/// Prometheus families.  Written by the `Scrubber` on the engine thread.
struct ScrubMetrics {
  int64_t views_scrubbed = 0;  // scrub passes over individual views
  int64_t views_clean = 0;
  int64_t views_drifted = 0;   // passes that found drift
  int64_t drift_tuples = 0;    // total |missing| + |extra| multiplicity
  int64_t repairs = 0;         // auto-repairs that succeeded

  /// `{"views_scrubbed": …, …}`.
  std::string ToJson() const;
};

/// Per-view + global maintenance metrics for one `ViewManager`.
///
/// The registry is keyed by view name and hands out stable `ViewMetrics`
/// pointers (entries never move).  It is *not* internally synchronized:
/// the `ViewManager` guarantees that concurrent writers touch disjoint
/// per-view entries and that registration, commit-scope updates, and
/// `ToJson` happen on the coordinating thread only.
class MetricsRegistry {
 public:
  /// Returns the entry for `view`, creating it on first use.
  ViewMetrics& ForView(const std::string& view);

  /// Returns the entry or nullptr.
  const ViewMetrics* Find(const std::string& view) const;

  /// Retires a view's metrics (no-op when absent).  The dropped view's
  /// counters are folded into the `retired()` accumulator instead of being
  /// discarded, so `DROP VIEW` mid-session can no longer make session
  /// totals jump backwards while `Aggregate()` stays exactly the sum of
  /// the live views.
  void Remove(const std::string& view);

  /// Registered view names, sorted.
  std::vector<std::string> ViewNames() const;

  CommitMetrics& commit() { return commit_; }
  const CommitMetrics& commit() const { return commit_; }

  StorageMetrics& storage() { return storage_; }
  const StorageMetrics& storage() const { return storage_; }

  PoolMetrics& pool() { return pool_; }
  const PoolMetrics& pool() const { return pool_; }

  ScrubMetrics& scrub() { return scrub_; }
  const ScrubMetrics& scrub() const { return scrub_; }

  SessionMetrics& sessions() { return sessions_; }
  const SessionMetrics& sessions() const { return sessions_; }

  AdmissionMetrics& admission() { return admission_; }
  const AdmissionMetrics& admission() const { return admission_; }

  RowStoreMetrics& row_store() { return row_store_; }
  const RowStoreMetrics& row_store() const { return row_store_; }

  /// Metrics accumulated by views dropped since session start.
  const ViewMetrics& retired() const { return retired_; }

  /// Sum of every *live* view's metrics (the "global" row of SHOW STATS);
  /// dropped views are accounted separately under `retired()`.
  ViewMetrics Aggregate() const;

  /// The full registry as one JSON document:
  /// `{"commits": …, "normalize_nanos": …, "base_apply_nanos": …,
  ///   "epochs_published": …, "snapshot_reuses": …, "snapshot_copies": …,
  ///   "commit_latency": {…}, "storage": {…}, "pool": {…}, "scrub": {…},
  ///   "sessions": {…}, "admission": {…}, "row_store": {…},
  ///   "global": {…}, "retired": {…},
  ///   "views": {"name": {…}, …}}`.
  std::string ToJson() const;

 private:
  std::map<std::string, std::unique_ptr<ViewMetrics>> views_;
  ViewMetrics retired_;
  CommitMetrics commit_;
  StorageMetrics storage_;
  PoolMetrics pool_;
  ScrubMetrics scrub_;
  SessionMetrics sessions_;
  AdmissionMetrics admission_;
  RowStoreMetrics row_store_;
};

}  // namespace mview

#endif  // MVIEW_IVM_METRICS_H_
