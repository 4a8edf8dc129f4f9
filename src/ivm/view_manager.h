#ifndef MVIEW_IVM_VIEW_MANAGER_H_
#define MVIEW_IVM_VIEW_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "ivm/differential.h"
#include "ivm/metrics.h"
#include "ivm/partition.h"
#include "ivm/snapshot.h"
#include "ivm/view_def.h"
#include "util/thread_pool.h"

namespace mview {

namespace obs {
class TraceSpan;
}
namespace util {
class Cancellation;
}

/// When a materialized view is brought up to date.
enum class MaintenanceMode {
  /// Differentially at every transaction commit (the paper's main model:
  /// "views are materialized every time a transaction updates the
  /// database", Section 5).
  kImmediate,
  /// Deferred: base changes are logged (filtered per Algorithm 4.1) and the
  /// view is refreshed differentially on demand — the snapshot model of
  /// Section 6 / [AL80].
  kDeferred,
  /// Recompute the view from scratch at every commit (the paper's baseline
  /// comparator; used by the benchmarks).
  kFullReevaluation,
};

/// Everything one call needs to know about a registered view: a value
/// snapshot taken at `Describe` time (later commits do not mutate it).
struct ViewInfo {
  std::string name;
  MaintenanceMode mode = MaintenanceMode::kImmediate;
  ViewDefinition definition;
  MaintenanceStats stats;     // snapshot of the work counters
  size_t rows = 0;            // distinct tuples currently materialized
  bool stale = false;         // deferred view with pending base changes
  size_t pending_tuples = 0;  // logged tuples awaiting a refresh
  // Health: a quarantined view's materialization is untrusted (maintenance
  // failed mid-commit); reads throw until it is repaired.
  bool quarantined = false;
  std::string quarantine_reason;
  bool quarantine_sticky = false;  // no automatic retry; REPAIR VIEW only
};

/// Checkpointed health state handed back to `ViewManager::RestoreView`;
/// the default is healthy.
struct RestoredHealth {
  bool quarantined = false;
  std::string reason;
  bool sticky = false;
};

/// A view-health transition, published to the listener installed with
/// `ViewManager::SetHealthListener` (the storage layer logs these to the
/// WAL so quarantine survives recovery).
struct ViewHealthEvent {
  enum class Kind { kQuarantine, kRepair };
  Kind kind = Kind::kQuarantine;
  std::string view;
  std::string reason;   // kQuarantine: the captured exception message
  bool sticky = false;  // kQuarantine: no automatic retry
};

/// A view's materialization buffer plus the number of published epochs
/// that hold it.  Each epoch counts itself in when published and out with
/// a release decrement when destroyed — after every read made through it —
/// so the writer's acquire load that sees zero orders all those reads
/// before it recycles the buffer.
struct ViewBuffer : CountedRelation {
  explicit ViewBuffer(CountedRelation rows)
      : CountedRelation(std::move(rows)) {}
  mutable std::atomic<int64_t> epochs{0};
};

/// One view's entry in a published epoch: an immutable materialization
/// plus the health/staleness the view had when the epoch was installed.
struct ViewSnapshot {
  /// The materialized contents at the epoch — never null, never mutated
  /// after publication (the commit pipeline installs the *next* version in
  /// a different buffer).
  std::shared_ptr<const ViewBuffer> data;
  MaintenanceMode mode = MaintenanceMode::kImmediate;
  bool quarantined = false;
  std::string quarantine_reason;
  bool stale = false;  // deferred view with pending base changes
};

/// An immutable snapshot of every registered view as of one committed
/// round.  Readers obtain one via `ViewManager::Snapshot()` (a single
/// atomic shared_ptr load) and read it without any locking: the commit
/// pipeline never mutates a published epoch, it swaps in a successor.
/// Holding an `EpochSnapshot` pins its buffers alive — drop it promptly so
/// the writer can recycle retired buffers instead of copying.
class EpochSnapshot {
 public:
  EpochSnapshot() = default;
  EpochSnapshot(const EpochSnapshot&) = delete;
  EpochSnapshot& operator=(const EpochSnapshot&) = delete;
  ~EpochSnapshot();

  /// Monotonic publication counter.  Recovery installs epoch 0 (the
  /// recovered state); every later mutation publishes the next epoch.
  uint64_t epoch() const { return epoch_; }

  /// The named view's entry, or nullptr when no such view existed at this
  /// epoch.
  const ViewSnapshot* Find(const std::string& name) const;

  /// The materialization of `name` with the same health contract as
  /// `ViewManager::View`: throws `ViewQuarantinedError` when the view was
  /// quarantined at this epoch and `Error` when it did not exist.
  const CountedRelation& Read(const std::string& name) const;

  std::vector<std::string> ViewNames() const;
  size_t NumViews() const { return views_.size(); }

 private:
  friend class ViewManager;
  uint64_t epoch_ = 0;
  std::map<std::string, ViewSnapshot> views_;
};

/// Which checkpoint scopes — base tables, by name; views are derived and
/// have none — changed since the last successful checkpoint.  It records
/// tables, not rows: the writer finds a changed table's rows by merging
/// its image on disk with its rows in memory.  A commit marks the tables
/// it touches; `CreateTable` marks its table created, so the writer gives
/// it a fresh base instead of a predecessor's chain.
/// Not thread-safe: marks happen on the commit coordinator thread and the
/// checkpoint runs under the engine's exclusive lock.
class ChangedScopes {
 public:
  void MarkRows(const std::string& scope) { scopes_.try_emplace(scope, false); }
  void MarkCreated(const std::string& scope) { scopes_[scope] = true; }

  bool Changed(const std::string& scope) const {
    return scopes_.count(scope) > 0;
  }
  bool Created(const std::string& scope) const {
    auto it = scopes_.find(scope);
    return it != scopes_.end() && it->second;
  }

  /// Resets every scope to unchanged — after a successful checkpoint, or
  /// once recovery has installed the image.
  void Clear() { scopes_.clear(); }

 private:
  std::unordered_map<std::string, bool> scopes_;  // scope -> created
};

/// Owns the materializations of a set of SPJ views over a `Database` and
/// keeps them consistent as transactions commit.
///
/// `Apply` implements the paper's commit protocol as a four-phase pipeline:
/// the transaction is normalized to its net effect against the pre-state
/// (Section 3); per view, irrelevant updates are filtered (Section 4) and
/// surviving updates drive differential re-evaluation (Section 5) against
/// the pre-state; the effect is applied to the base relations; finally the
/// view deltas are applied to the materializations.
///
/// The per-view phase is read-only against the database and independent
/// across views, so `SetParallelism` can fan it out over a `ThreadPool`;
/// views with a partition layout (`MaintenanceOptions::partition_count`)
/// additionally fan out *within* the view — the coordinator prepares the
/// round serially (screen + hash slicing), one worker evaluates each
/// partition in its own arena, and a serial merge folds the per-partition
/// deltas.  Deltas are still applied serially in name order, so view
/// contents are bit-identical to the serial pipeline regardless of worker
/// count or partition count (see DESIGN.md, "Commit pipeline").  A
/// maintainer keeps no state between rounds but its scratch arenas, and
/// the pipeline runs at most one worker per (view, partition) per commit,
/// so the arenas need no locking.
///
/// Failure containment: an exception inside one view's maintenance does
/// not poison the commit.  The failing view is *quarantined* — its
/// materialization is marked untrusted, reads throw
/// `ViewQuarantinedError`, and its deferred backlog is dropped — while the
/// base relations and every sibling view commit normally.  A transient
/// failure (`IoError`) retries automatically with exponential backoff
/// measured in commits; anything else (corruption, logic errors, OOM) is
/// sticky and heals only through an explicit `Repair`, which re-evaluates
/// the view from the bases and verifies the result by double evaluation
/// before installing it.  See DESIGN.md, "Failure model and self-healing".
///
/// Epoch snapshots: every mutation that changes observable view state
/// (commit, register/drop/restore, refresh, repair, quarantine) publishes
/// an immutable `EpochSnapshot` through an atomic shared_ptr swap.
/// `Snapshot()` is safe to call from any thread at any time and is the
/// basis of the engine's non-blocking read path: readers scan the published
/// buffers while the commit pipeline builds the next version in separate
/// buffers (RCU).  Per view the manager keeps the published front buffer
/// plus one retired spare and the delta between them; when no reader still
/// pins the spare it is recycled by replaying that delta (O(|delta|)), so
/// steady-state publication does not copy materializations (see DESIGN.md,
/// "Sessions, epochs, and the server").
///
/// Apart from `Snapshot()`, the manager is not itself thread-safe: one
/// thread (or an external lock) drives `Apply` and the accessors.
/// Parallelism is internal to a single commit.
class ViewManager {
 public:
  /// The manager maintains views over `db`; base relations must be created
  /// before views referencing them.  `parallelism` is the number of worker
  /// threads for the per-view commit phase; 0 (the default) runs it inline
  /// on the calling thread.
  explicit ViewManager(Database* db, size_t parallelism = 0);

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// Resizes the worker pool; 0 reverts to the serial pipeline.  Must not
  /// be called from inside a maintenance task.
  void SetParallelism(size_t workers);
  size_t parallelism() const {
    return pool_ == nullptr ? 0 : pool_->num_workers();
  }

  /// Creates an empty base table and marks its checkpoint scope created,
  /// so a table re-created under a dropped one's name never inherits the
  /// old table's checkpoint chain.  Throws when the name is taken.
  Relation& CreateTable(const std::string& name, Schema schema);

  /// Drops a base table (the next checkpoint leaves its scope out).  The
  /// caller ensures no view still references it.
  void DropTable(const std::string& name);

  /// Registers a view, creates hash indexes on its equi-join attributes,
  /// and materializes it from the current database state.  Throws when the
  /// name is taken or the definition is invalid.  Equivalent to
  /// `InstallView(PrepareView(def, mode, options))`.
  void RegisterView(ViewDefinition def,
                    MaintenanceMode mode = MaintenanceMode::kImmediate,
                    MaintenanceOptions options = MaintenanceOptions{});

  /// The first half of `RegisterView`: a validated, fully evaluated view
  /// that nothing can observe yet.  Consumed by `InstallView`; dropping it
  /// abandons the view.
  struct PreparedView {
    MaintenanceMode mode = MaintenanceMode::kImmediate;
    std::unique_ptr<DifferentialMaintainer> maintainer;
    CountedRelation materialized;
  };

  /// Validates `def` (the name must be free), creates hash indexes on its
  /// equi-join attributes and evaluates it against the current database
  /// state.  Changes no logical state: indexes are access paths, which an
  /// abandoned view leaves behind just as `DropView` does.  Throws like
  /// `RegisterView`.
  PreparedView PrepareView(ViewDefinition def, MaintenanceMode mode,
                           MaintenanceOptions options);

  /// Installs a prepared view and publishes an epoch that contains it.
  /// The database must not have changed since `PrepareView`.
  void InstallView(PreparedView prepared);

  /// Removes a view, its materialization, and its metrics.
  void DropView(const std::string& name);

  /// Commits a transaction: updates the base relations and maintains every
  /// registered view per its mode.
  void Apply(const Transaction& txn);

  /// Lower-level commit taking a pre-normalized effect.  Equivalent to
  /// `CommitPrepared(PrepareCommit(effect), effect)`.
  void ApplyEffect(const TransactionEffect& effect);

  /// The computed-but-unapplied first half of a commit: phase 2's view
  /// deltas, produced by `PrepareCommit` and consumed exactly once by
  /// `CommitPrepared`.  Destroying an uncommitted handle abandons the
  /// round with no observable effect — bases, materializations, and the
  /// deferred backlogs are exactly as if the commit never started.
  class PreparedCommit {
   public:
    PreparedCommit();
    PreparedCommit(PreparedCommit&&) noexcept;
    PreparedCommit& operator=(PreparedCommit&&) noexcept;
    ~PreparedCommit();

   private:
    friend class ViewManager;
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Runs the cancellable prefix of a commit: transient-quarantine retries
  /// against the pre-state, then per-view differential computation (fanned
  /// out over the pool and partitions exactly like `ApplyEffect`).  Nothing
  /// observable is mutated — bases, materializations, and deferred
  /// backlogs are untouched until `CommitPrepared`, so the caller may
  /// abandon the result (deadline expired, WAL append failed) at no cost.
  ///
  /// `cancel` threads a cooperative cancellation token into the evaluation
  /// loops; an expired deadline unwinds cleanly and rethrows
  /// `DeadlineExceededError` out of this call (it never quarantines a view
  /// — the view did nothing wrong).
  PreparedCommit PrepareCommit(const TransactionEffect& effect,
                               const util::Cancellation* cancel = nullptr);

  /// The uncancellable second half: deferred-view logging, base apply,
  /// serial delta apply (quarantining per-view failures), and epoch
  /// publication.  Call only after the effect is durable (the WAL append
  /// is the point of no return); there are no poll points past it.
  void CommitPrepared(PreparedCommit prepared, const TransactionEffect& effect);

  /// The current materialization.  For a deferred view this may be stale;
  /// call `Refresh` first for up-to-date contents.  Throws
  /// `ViewQuarantinedError` when the view is quarantined — its contents
  /// are not trusted until repaired.
  const CountedRelation& View(const std::string& name) const;

  /// The raw materialization with no health check — what the checkpoint
  /// writer and the scrubber read (both must see a quarantined view's
  /// bytes as they are).
  const CountedRelation& Materialization(const std::string& name) const;

  /// Mutable access to the raw materialization.  Exists for tests (the
  /// scrubber suite injects drift through it) — production code never
  /// mutates a materialization except through the commit pipeline.  The
  /// returned buffer may be shared with the published epoch snapshot, so
  /// injected drift is visible to snapshot readers too; the view's retired
  /// spare buffer is dropped so later commits never resurrect pre-drift
  /// bytes.  Single-threaded use only.
  CountedRelation& MutableMaterialization(const std::string& name);

  /// The latest published epoch — one atomic pointer read, callable from
  /// any thread concurrently with commits.  Never null.
  std::shared_ptr<const EpochSnapshot> Snapshot() const {
    return published_.Load();
  }

  /// Re-publishes the current state as epoch 0 and restarts the epoch
  /// counter.  Recovery calls this once after replay so a freshly opened
  /// database always starts serving from epoch 0 regardless of how many
  /// rounds the WAL replayed.
  void PublishAsEpochZero();

  /// Brings a deferred view up to date (no-op for other modes or when
  /// nothing is pending).
  void Refresh(const std::string& name);

  /// Refreshes every deferred view (quarantined views are skipped — their
  /// backlog is rebuilt by `Repair`, not replayed).
  void RefreshAll();

  /// Marks a view's materialization as untrusted.  `reason` is surfaced by
  /// `Describe`/reads; `sticky` disables the automatic transient retry.
  /// Drops the view's deferred backlog (a repair recomputes from the bases,
  /// so the backlog is dead weight).  Publishes
  /// a `kQuarantine` health event.  Idempotent escalation: quarantining an
  /// already-quarantined view updates the reason and may raise (never
  /// lower) stickiness.
  void Quarantine(const std::string& name, const std::string& reason,
                  bool sticky);

  /// Heals a view by full re-evaluation from the current base state —
  /// the paper's provably-correct fallback (recompute is always available
  /// when differential maintenance cannot be trusted).  The view is
  /// evaluated twice and the results compared byte-for-byte before
  /// installation, so a fault that corrupts evaluation itself cannot
  /// "heal" a view into a wrong state.  Clears quarantine and the deferred
  /// backlog and publishes a `kRepair` event.  Works on healthy views too
  /// (re-verification).  Throws — leaving the view quarantined — when
  /// evaluation fails or the double evaluation disagrees.
  void Repair(const std::string& name);

  bool IsQuarantined(const std::string& name) const;

  /// Names of currently quarantined views, sorted.
  std::vector<std::string> QuarantinedViews() const;

  /// Installs the observer for quarantine/repair transitions (null to
  /// clear).  Listener failures are swallowed: durability of health state
  /// is best-effort and must not turn a contained failure into a crash.
  void SetHealthListener(std::function<void(const ViewHealthEvent&)> listener);

  /// A point-in-time description of a registered view — mode, definition,
  /// stats snapshot, staleness, pending count.  Throws on unknown names.
  /// This replaces the former name-keyed getters (`Stats`, `Definition`,
  /// `Mode`, `IsStale`, `PendingTuples`), now removed.
  ViewInfo Describe(const std::string& name) const;

  bool HasView(const std::string& name) const { return views_.count(name) > 0; }
  const DifferentialMaintainer& Maintainer(const std::string& name) const;

  /// Per-view and global maintenance metrics (counters, phase timers,
  /// delta-size histograms); `metrics().ToJson()` is what SQL `SHOW STATS
  /// JSON` prints.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Refreshes `metrics().pool()` with the thread pool's current gauges
  /// (size, queue depth, active workers).  Called before stats are
  /// rendered; samples under the pool's mutex.
  void SyncPoolMetrics();

  /// Refreshes `metrics().row_store()` with the bytes held by the base
  /// relations, the views and their epoch spares.  Called before stats are
  /// rendered, on the thread that may read every relation.
  void SyncRowStoreMetrics();

  /// Installs a checkpointed view, derived from the current bases as
  /// `PrepareView` evaluates it; with a non-empty `pending` (deferred mode,
  /// one log per base occurrence) that backlog's refresh delta is undone,
  /// giving the stale contents, and the backlog is kept.  `health`
  /// restores the checkpointed quarantine state without a health event.
  /// A failed evaluation quarantines the view (`Quarantine`) instead of
  /// throwing; an invalid definition throws.
  void RestoreView(ViewDefinition def, MaintenanceMode mode,
                   MaintenanceOptions options,
                   std::vector<std::unique_ptr<BaseDeltaLog>> pending,
                   RestoredHealth health = RestoredHealth{});

  /// The delta a refresh of deferred view `name` would apply now (REFRESH,
  /// the scrubber and recovery use it); `stats` may be null.
  ViewDelta PendingDelta(const std::string& name,
                         MaintenanceStats* stats = nullptr) const;

  /// The pending change logs of a deferred view, one per base occurrence
  /// (empty vector for other modes) — read by the checkpoint writer.
  const std::vector<std::unique_ptr<BaseDeltaLog>>& PendingLogs(
      const std::string& name) const;

  std::vector<std::string> ViewNames() const;
  Database& database() { return *db_; }
  const Database& database() const { return *db_; }

  /// The tables changed since the last checkpoint: a commit marks the
  /// tables it touches, `CreateTable` its new table, and
  /// `Storage::Checkpoint` clears the set after a successful write.
  ChangedScopes& changed_scopes() { return changed_; }
  const ChangedScopes& changed_scopes() const { return changed_; }

 private:
  struct ManagedView {
    std::string name;
    MaintenanceMode mode = MaintenanceMode::kImmediate;
    std::unique_ptr<DifferentialMaintainer> maintainer;
    // The front buffer: the view's current contents, shared with the
    // published epoch snapshot.  Once published it is treated as immutable
    // by the commit pipeline — deltas are applied to a successor buffer
    // which then replaces it (RCU).
    std::shared_ptr<ViewBuffer> materialized;
    // The previous front, retired at the last delta commit, plus the delta
    // that separates it from `materialized`.  When no epoch snapshot still
    // holds `spare` the next commit recycles it by replaying `lag_delta`
    // instead of copying the whole view.
    std::shared_ptr<ViewBuffer> spare;
    std::unique_ptr<ViewDelta> lag_delta;
    ViewMetrics* metrics = nullptr;  // owned by metrics_, stable address
    uint32_t span_name_id = 0;       // interned "maintain:<name>" span name
    // Deferred mode: one filtered change log per base occurrence.
    std::vector<std::unique_ptr<BaseDeltaLog>> pending;
    // Health.  While quarantined the view is skipped by the commit
    // pipeline; `repair_attempts`/`next_retry_commit` drive the automatic
    // transient retry (exponential backoff measured in commits).
    bool quarantined = false;
    std::string quarantine_reason;
    bool quarantine_sticky = false;
    int64_t repair_attempts = 0;
    int64_t next_retry_commit = 0;
  };

  /// One view's slot in a commit: filled by the (possibly parallel)
  /// compute phase, consumed by the serial apply phase.
  struct CommitJob {
    ManagedView* view = nullptr;
    std::unique_ptr<ViewDelta> delta;  // null: nothing to apply
    // A compute-phase failure, captured instead of propagated so one
    // view's fault cannot abort the commit for its siblings.
    std::exception_ptr error;
    // Intra-view partition fan-out (immediate views with a partition
    // layout, on a pool): the coordinator runs `Prepare` serially, the
    // barrier runs one `ComputePartition` per partition — each writing
    // its own slot below so workers never share state — and the serial
    // merge folds the slots into `delta` and the view's metrics.
    bool partitioned = false;
    std::unique_ptr<DifferentialMaintainer::PreparedDelta> prep;
    std::vector<std::unique_ptr<ViewDelta>> part_deltas;
    std::vector<MaintenanceStats> part_stats;
    std::vector<PhaseBreakdown> part_phases;
    std::vector<std::exception_ptr> part_errors;
  };

  ManagedView& GetView(const std::string& name);
  const ManagedView& GetView(const std::string& name) const;
  /// Phase-2 body for one view: filter + differential (immediate), log
  /// (deferred).  Reads only the frozen pre-state; writes only this view's
  /// state, metrics, and its maintainer's scratch arenas, so jobs are safe
  /// to run concurrently.
  void ComputeJob(CommitJob* job, const TransactionEffect& effect,
                  const util::Cancellation* cancel = nullptr);
  void ComputeJobBody(CommitJob* job, const TransactionEffect& effect,
                      uint32_t delta_rows_arg, obs::TraceSpan& span,
                      const util::Cancellation* cancel);
  /// Serial prologue of a partitioned job: runs the view's `Prepare` and
  /// sizes the per-partition slots.  On failure the error is captured and
  /// the job degrades to unpartitioned-with-error (quarantined in the
  /// serial phase).
  void PreparePartitionedJob(CommitJob* job, const TransactionEffect& effect);
  /// Serial epilogue: folds per-partition deltas/stats/errors into the
  /// job's `delta` and the view's metrics.
  void MergePartitionedJob(CommitJob* job);
  /// Marks the scope of every table the effect touches changed.
  void MarkEffectChanged(const TransactionEffect& effect);
  void LogDeferred(ManagedView* view, const TransactionEffect& effect);
  void RefreshView(ManagedView* view);
  /// True when a deferred view has logged changes awaiting a refresh.
  static bool IsStale(const ManagedView& view);
  /// `InstallView` without the epoch publication.
  ManagedView& AddView(PreparedView prepared);
  /// Quarantines `view` for the failure captured in `error` (transient
  /// `IoError` → automatic retry; everything else sticky).
  void QuarantineFor(ManagedView* view, const std::exception_ptr& error);
  /// Retries the repair of transient-quarantined views whose backoff has
  /// elapsed; called at the top of each commit against the pre-state.
  void RetryTransientQuarantines();
  void PublishHealthEvent(const ViewHealthEvent& event);
  /// Builds the next epoch from the current view states and installs it
  /// with a release store.  Called after every observable mutation.
  void PublishEpoch();
  /// A buffer holding `view`'s current contents that the commit pipeline
  /// may mutate: the retired spare caught up via `lag_delta` replay when no
  /// snapshot holds it, otherwise a clone of the front (counted in
  /// `CommitMetrics::snapshot_copies`).
  std::shared_ptr<ViewBuffer> WritableBuffer(ManagedView* view);

  /// The atomically-swappable holder of the published epoch.  Morally
  /// `std::atomic<std::shared_ptr<const EpochSnapshot>>`, but GCC 12's
  /// implementation of that type is not ThreadSanitizer-clean (its reader
  /// unlock is relaxed, so the internal pointer-field accesses formally
  /// race; fixed in later libstdc++).  A reader-writer lock around the
  /// pointer keeps every access a constant-time refcount bump — readers
  /// never serialize against each other, only against the instant of a
  /// publish — and keeps the whole system race-detector-clean.
  class PublishedEpoch {
   public:
    std::shared_ptr<const EpochSnapshot> Load() const {
      std::shared_lock<std::shared_mutex> lock(mu_);
      return ptr_;
    }
    void Store(std::shared_ptr<const EpochSnapshot> next) {
      {
        std::unique_lock<std::shared_mutex> lock(mu_);
        ptr_.swap(next);
      }
      // `next` (the retired epoch) is destroyed here, outside the lock,
      // so readers are never blocked behind buffer teardown.
    }

   private:
    mutable std::shared_mutex mu_;
    std::shared_ptr<const EpochSnapshot> ptr_;
  };

  Database* db_;
  std::map<std::string, std::unique_ptr<ManagedView>> views_;
  ChangedScopes changed_;
  MetricsRegistry metrics_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::function<void(const ViewHealthEvent&)> health_listener_;
  int64_t commit_seq_ = 0;  // commits seen; the backoff clock
  // The latest published epoch (never null after construction) and the
  // sequence counter behind it.  Only `published_` is touched by readers;
  // everything else is writer-private.
  PublishedEpoch published_;
  uint64_t epoch_seq_ = 0;
};

}  // namespace mview

#endif  // MVIEW_IVM_VIEW_MANAGER_H_
