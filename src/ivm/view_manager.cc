#include "ivm/view_manager.h"

#include "obs/trace.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace mview {
namespace {

/// Whether the failure behind `error` warrants automatic repair retries.
/// Only plain `IoError` qualifies (a transient durability hiccup);
/// corruption, logic errors, and allocation failures are sticky.
bool IsTransientFailure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const CorruptionError&) {
    return false;
  } catch (const IoError&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Whether `error` is an expired statement deadline.  A deadline aborts
/// the *whole* commit (rethrown out of `PrepareCommit`) instead of
/// quarantining the view it happened to interrupt — the view did nothing
/// wrong, and the caller asked for the unwind.
bool IsDeadlineFailure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const DeadlineExceededError&) {
    return true;
  } catch (...) {
    return false;
  }
}

std::string DescribeFailure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

// Automatic-repair policy for transient quarantines: retry after 1 commit,
// then 2, then 4; after `kMaxRepairAttempts` failed retries the quarantine
// becomes sticky and only an explicit repair can heal the view.
constexpr int64_t kMaxRepairAttempts = 3;

}  // namespace

const ViewSnapshot* EpochSnapshot::Find(const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

const CountedRelation& EpochSnapshot::Read(const std::string& name) const {
  const ViewSnapshot* view = Find(name);
  MVIEW_CHECK(view != nullptr, "unknown view: ", name);
  if (view->quarantined) {
    throw ViewQuarantinedError("view " + name + " is quarantined (" +
                               view->quarantine_reason +
                               "); run REPAIR VIEW " + name);
  }
  return *view->data;
}

EpochSnapshot::~EpochSnapshot() {
  // Runs after every reader's last use of this epoch (the last reference
  // drop is ordered after the others); the release pairs with the
  // writer's acquire in `WritableBuffer`.
  for (const auto& [name, view] : views_) {
    view.data->epochs.fetch_sub(1, std::memory_order_release);
  }
}

std::vector<std::string> EpochSnapshot::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

ViewManager::ViewManager(Database* db, size_t parallelism) : db_(db) {
  MVIEW_CHECK(db_ != nullptr, "null database");
  SetParallelism(parallelism);
  PublishEpoch();  // epoch 0: no views yet, but Snapshot() is never null
}

void ViewManager::PublishEpoch() {
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch_ = epoch_seq_++;
  for (const auto& [name, view] : views_) {
    ViewSnapshot vs;
    vs.data = view->materialized;
    view->materialized->epochs.fetch_add(1, std::memory_order_relaxed);
    vs.mode = view->mode;
    vs.quarantined = view->quarantined;
    vs.quarantine_reason = view->quarantine_reason;
    for (const auto& log : view->pending) {
      if (!log->Empty()) vs.stale = true;
    }
    snap->views_.emplace(name, std::move(vs));
  }
  published_.Store(std::move(snap));
  ++metrics_.commit().epochs_published;
}

void ViewManager::PublishAsEpochZero() {
  epoch_seq_ = 0;
  PublishEpoch();
}

std::shared_ptr<ViewBuffer> ViewManager::WritableBuffer(ManagedView* view) {
  // `use_count` alone is a relaxed load: it orders nothing, so a reader
  // still finishing its scan could race the replay below.  The acquire
  // load of the epoch count is the edge: it sees zero only after every
  // epoch holding the buffer was destroyed, each with a release.  The
  // use count still rules out holders that copied `data` out of an epoch.
  if (view->spare != nullptr && view->lag_delta != nullptr &&
      view->spare.use_count() == 1 &&
      view->spare->epochs.load(std::memory_order_acquire) == 0) {
    // No snapshot holds the retired buffer: catch it up to the front by
    // replaying the delta that separates them — O(|delta|), no copy.
    std::shared_ptr<ViewBuffer> buffer = std::move(view->spare);
    view->lag_delta->ApplyTo(buffer.get());
    view->lag_delta.reset();
    ++metrics_.commit().snapshot_reuses;
    return buffer;
  }
  // First delta for this view, or a reader still holds the spare: start
  // from a clone of the front.  Steady state with prompt readers never
  // takes this branch after the first commit.
  view->spare.reset();
  view->lag_delta.reset();
  ++metrics_.commit().snapshot_copies;
  return std::make_shared<ViewBuffer>(
      static_cast<const CountedRelation&>(*view->materialized));
}

void ViewManager::SetParallelism(size_t workers) {
  if (workers == 0) {
    pool_.reset();
  } else if (pool_ == nullptr || pool_->num_workers() != workers) {
    pool_ = std::make_unique<util::ThreadPool>(workers);
  }
}

Relation& ViewManager::CreateTable(const std::string& name, Schema schema) {
  Relation& rel = db_->CreateRelation(name, std::move(schema));
  changed_.MarkCreated(name);
  return rel;
}

void ViewManager::DropTable(const std::string& name) {
  db_->DropRelation(name);
}

void ViewManager::RegisterView(ViewDefinition def, MaintenanceMode mode,
                               MaintenanceOptions options) {
  InstallView(PrepareView(std::move(def), mode, options));
}

ViewManager::PreparedView ViewManager::PrepareView(
    ViewDefinition def, MaintenanceMode mode, MaintenanceOptions options) {
  MVIEW_CHECK(views_.count(def.name()) == 0, "view already registered: ",
              def.name());
  // The maintainer validates the definition and indexes its equi-join
  // attributes, so the evaluation below probes them.
  PreparedView prepared;
  prepared.mode = mode;
  prepared.maintainer =
      std::make_unique<DifferentialMaintainer>(std::move(def), db_, options);
  prepared.materialized = prepared.maintainer->FullEvaluate();
  return prepared;
}

void ViewManager::InstallView(PreparedView prepared) {
  AddView(std::move(prepared));
  PublishEpoch();
}

ViewManager::ManagedView& ViewManager::AddView(PreparedView prepared) {
  const std::string name = prepared.maintainer->definition().name();
  MVIEW_CHECK(views_.count(name) == 0, "view already registered: ", name);

  auto view = std::make_unique<ManagedView>();
  view->name = name;
  view->mode = prepared.mode;
  view->maintainer = std::move(prepared.maintainer);
  view->materialized =
      std::make_shared<ViewBuffer>(std::move(prepared.materialized));
  view->metrics = &metrics_.ForView(name);
  view->span_name_id = obs::Tracer::Global().InternName("maintain:" + name);
  if (view->mode == MaintenanceMode::kDeferred) {
    const ViewDefinition& d = view->maintainer->definition();
    for (size_t i = 0; i < d.bases().size(); ++i) {
      view->pending.push_back(
          std::make_unique<BaseDeltaLog>(d.AliasedSchema(*db_, i)));
    }
  }
  return *(views_[name] = std::move(view));
}

void ViewManager::RestoreView(ViewDefinition def, MaintenanceMode mode,
                              MaintenanceOptions options,
                              std::vector<std::unique_ptr<BaseDeltaLog>> pending,
                              RestoredHealth health) {
  MVIEW_CHECK(pending.empty() || (mode == MaintenanceMode::kDeferred &&
                                  pending.size() == def.bases().size()),
              "restored pending logs must cover every base of ", def.name());
  PreparedView prepared;
  prepared.mode = mode;
  prepared.maintainer =
      std::make_unique<DifferentialMaintainer>(std::move(def), db_, options);
  prepared.materialized =
      CountedRelation(prepared.maintainer->definition().OutputSchema(*db_));
  ManagedView& view = AddView(std::move(prepared));
  if (!pending.empty()) view.pending = std::move(pending);
  view.quarantined = health.quarantined;
  view.quarantine_reason = std::move(health.reason);
  view.quarantine_sticky = health.sticky;
  // Derive the contents the way `PrepareView` does; a stale deferred view
  // is the fresh result with its backlog's refresh delta undone.
  try {
    CountedRelation rows = view.maintainer->FullEvaluate();
    if (IsStale(view)) {
      ViewDelta undo = PendingDelta(view.name);
      std::swap(undo.inserts, undo.deletes);
      undo.ApplyTo(&rows);
    }
    view.materialized = std::make_shared<ViewBuffer>(std::move(rows));
  } catch (...) {
    // Contained like a commit-time failure: the view stays empty and
    // quarantined (reads throw until REPAIR).  Publishes the epoch.
    QuarantineFor(&view, std::current_exception());
    return;
  }
  PublishEpoch();
}

void ViewManager::DropView(const std::string& name) {
  MVIEW_CHECK(views_.erase(name) > 0, "unknown view: ", name);
  metrics_.Remove(name);
  PublishEpoch();
}

void ViewManager::SyncPoolMetrics() {
  PoolMetrics& pm = metrics_.pool();
  if (pool_ == nullptr) {
    pm = PoolMetrics{};
    return;
  }
  util::ThreadPool::Gauges g = pool_->gauges();
  pm.workers = static_cast<int64_t>(g.workers);
  pm.queue_depth = static_cast<int64_t>(g.queued);
  pm.active_workers = static_cast<int64_t>(g.active);
}

void ViewManager::SyncRowStoreMetrics() {
  RowStoreMetrics& rs = metrics_.row_store();
  rs = RowStoreMetrics{};
  for (const std::string& name : db_->Names()) {
    rs.bases += db_->Get(name).memory();
  }
  for (const auto& [name, view] : views_) {
    if (view->materialized != nullptr) rs.views += view->materialized->memory();
    if (view->spare != nullptr) rs.spares += view->spare->memory();
  }
}

void ViewManager::Apply(const Transaction& txn) {
  Stopwatch timer;
  TransactionEffect effect = txn.Normalize(*db_);
  metrics_.commit().normalize_nanos += timer.ElapsedNanos();
  ApplyEffect(effect);
}

void ViewManager::ComputeJob(CommitJob* job, const TransactionEffect& effect,
                             const util::Cancellation* cancel) {
  static const uint32_t kDeltaRowsArg =
      obs::Tracer::Global().InternName("delta_rows");
  ManagedView* view = job->view;
  ViewMetrics& m = *view->metrics;
  ++m.stats.transactions;
  obs::TraceSpan span(view->span_name_id);
  Stopwatch timer;
  try {
    // Fires before this view's delta is computed — the "worker blew up
    // before producing anything" shape of maintenance failure.
    MVIEW_FAULT_POINT("viewmgr.differential.pre_apply");
    ComputeJobBody(job, effect, kDeltaRowsArg, span, cancel);
  } catch (...) {
    // Captured, not propagated: the serial phase quarantines this view
    // while bases and sibling views commit normally.
    job->error = std::current_exception();
    job->delta.reset();
  }
  m.stats.maintenance_nanos += timer.ElapsedNanos();
}

void ViewManager::ComputeJobBody(CommitJob* job,
                                 const TransactionEffect& effect,
                                 uint32_t delta_rows_arg,
                                 obs::TraceSpan& span,
                                 const util::Cancellation* cancel) {
  ManagedView* view = job->view;
  ViewMetrics& m = *view->metrics;
  switch (view->mode) {
    case MaintenanceMode::kImmediate: {
      const int64_t filter_before = m.phases.filter_nanos;
      const int64_t differential_before = m.phases.differential_nanos;
      ViewDelta delta =
          view->maintainer->ComputeDelta(effect, &m.stats, &m.phases, cancel);
      m.filter_latency.Record(m.phases.filter_nanos - filter_before);
      m.differential_latency.Record(m.phases.differential_nanos -
                                    differential_before);
      if (delta.Empty()) {
        ++m.stats.skipped_irrelevant;
      } else {
        span.SetArg(delta_rows_arg, delta.TotalCount());
        job->delta = std::make_unique<ViewDelta>(std::move(delta));
      }
      break;
    }
    case MaintenanceMode::kDeferred: {
      Stopwatch filter_timer;
      LogDeferred(view, effect);
      const int64_t nanos = filter_timer.ElapsedNanos();
      m.phases.filter_nanos += nanos;
      m.filter_latency.Record(nanos);
      break;
    }
    case MaintenanceMode::kFullReevaluation:
      break;  // recomputed after the effect lands
  }
}

void ViewManager::PreparePartitionedJob(CommitJob* job,
                                        const TransactionEffect& effect) {
  ManagedView* view = job->view;
  ViewMetrics& m = *view->metrics;
  ++m.stats.transactions;
  Stopwatch timer;
  try {
    // Same fault point as the whole-view compute path: a partitioned view
    // that blows up before producing anything fails here, serially, and
    // degrades to an errored job the serial phase quarantines.
    MVIEW_FAULT_POINT("viewmgr.differential.pre_apply");
    const int64_t filter_before = m.phases.filter_nanos;
    job->prep = std::make_unique<DifferentialMaintainer::PreparedDelta>(
        view->maintainer->Prepare(effect, &m.stats, &m.phases));
    m.filter_latency.Record(m.phases.filter_nanos - filter_before);
    const uint32_t count = view->maintainer->partition_count();
    job->part_deltas.resize(count);
    job->part_stats.assign(count, MaintenanceStats{});
    job->part_phases.assign(count, PhaseBreakdown{});
    job->part_errors.assign(count, nullptr);
    job->partitioned = true;
  } catch (...) {
    job->error = std::current_exception();
    job->partitioned = false;
    job->prep.reset();
  }
  m.stats.maintenance_nanos += timer.ElapsedNanos();
}

void ViewManager::MergePartitionedJob(CommitJob* job) {
  static const uint32_t kDeltaRowsArg =
      obs::Tracer::Global().InternName("delta_rows");
  ManagedView* view = job->view;
  ViewMetrics& m = *view->metrics;
  Stopwatch timer;
  for (const auto& err : job->part_errors) {
    if (err != nullptr) {
      // First failing partition wins; sibling slices are discarded — a
      // partial delta must never be applied.
      job->error = err;
      break;
    }
  }
  if (job->error != nullptr) {
    job->delta.reset();
    m.stats.maintenance_nanos += timer.ElapsedNanos();
    return;
  }
  const int64_t differential_before = m.phases.differential_nanos;
  std::vector<ViewDelta> slices;
  slices.reserve(job->part_deltas.size());
  for (size_t p = 0; p < job->part_deltas.size(); ++p) {
    // Per-partition stats hold only counters and timers (the workers leave
    // gauges untouched), so summing them never double-counts.
    m.stats += job->part_stats[p];
    m.phases += job->part_phases[p];
    if (job->part_deltas[p] != nullptr) {
      slices.push_back(std::move(*job->part_deltas[p]));
    }
  }
  ViewDelta merged =
      view->maintainer->MergePartitions(std::move(slices), &m.stats);
  view->maintainer->FinalizeRoundStats(&m.stats);
  m.differential_latency.Record(m.phases.differential_nanos -
                                differential_before);
  if (merged.Empty()) {
    ++m.stats.skipped_irrelevant;
  } else {
    obs::TraceSpan span(view->span_name_id);
    span.SetArg(kDeltaRowsArg, merged.TotalCount());
    job->delta = std::make_unique<ViewDelta>(std::move(merged));
  }
  m.stats.maintenance_nanos += timer.ElapsedNanos();
}

void ViewManager::MarkEffectChanged(const TransactionEffect& effect) {
  for (const std::string& name : effect.TouchedRelations()) {
    changed_.MarkRows(name);
  }
}

struct ViewManager::PreparedCommit::Impl {
  std::vector<CommitJob> jobs;
  int64_t prepare_nanos = 0;  // folded into the commit-latency record
};

ViewManager::PreparedCommit::PreparedCommit() = default;
ViewManager::PreparedCommit::PreparedCommit(PreparedCommit&&) noexcept =
    default;
ViewManager::PreparedCommit& ViewManager::PreparedCommit::operator=(
    PreparedCommit&&) noexcept = default;
ViewManager::PreparedCommit::~PreparedCommit() = default;

void ViewManager::ApplyEffect(const TransactionEffect& effect) {
  CommitPrepared(PrepareCommit(effect), effect);
}

ViewManager::PreparedCommit ViewManager::PrepareCommit(
    const TransactionEffect& effect, const util::Cancellation* cancel) {
  PreparedCommit prepared;
  prepared.impl_ = std::make_unique<PreparedCommit::Impl>();
  if (effect.Empty()) return prepared;
  Stopwatch prepare_timer;
  ++commit_seq_;

  // Heal transient-quarantined views whose backoff has elapsed while the
  // database still holds the pre-state; a view repaired here participates
  // in this commit like any healthy sibling.  (A repair survives an
  // abandoned commit — it recomputed from the pre-state, which stays.)
  RetryTransientQuarantines();
  if (cancel != nullptr) cancel->Check();

  // Phase 2 (after the caller's phase-1 normalize): per affected view,
  // filter + differential against the immutable pre-state (assumption (a)
  // of Section 5: base-relation contents before the transaction).  The
  // jobs only read the database and only write their own view's state, so
  // they fan out across the pool when one is configured.  Quarantined
  // views are skipped: their materialization is untrusted, so a delta
  // against it is meaningless — repair recomputes from the bases.
  // Deferred views get a job slot but compute nothing here: their logging
  // mutates the backlog, so it runs in `CommitPrepared` only.
  std::vector<CommitJob>& jobs = prepared.impl_->jobs;
  for (auto& [name, view] : views_) {
    if (view->quarantined) continue;
    if (!view->maintainer->AffectedBy(effect)) continue;
    jobs.emplace_back();
    jobs.back().view = view.get();
  }

  // Partitioned views (immediate mode, partition_count > 1, pool present)
  // run their serial prologue now: screen + hash-slice the deltas so the
  // barrier below can fan one worker per (view, partition).  Without a
  // pool the partition split buys nothing, so such views take the plain
  // single-worker path and produce identical bytes.
  bool any_partitioned = false;
  for (auto& job : jobs) {
    ManagedView* view = job.view;
    if (pool_ == nullptr || view->mode != MaintenanceMode::kImmediate ||
        view->maintainer->partition_count() <= 1) {
      continue;
    }
    PreparePartitionedJob(&job, effect);
    any_partitioned |= job.partitioned;
  }

  // One flat barrier: per-partition slices of partitioned views alongside
  // whole-view jobs.  The pool has no nested-submit support, so the
  // coordinator owns all fan-out; every worker writes only its own slot.
  if (pool_ != nullptr && (jobs.size() > 1 || any_partitioned)) {
    for (auto& job : jobs) {
      if (job.partitioned) {
        const uint32_t count = job.view->maintainer->partition_count();
        for (uint32_t p = 0; p < count; ++p) {
          CommitJob* j = &job;
          pool_->Submit([j, p, cancel] {
            Stopwatch timer;
            obs::TraceSpan span(j->view->span_name_id);
            try {
              ViewDelta slice = j->view->maintainer->ComputePartition(
                  *j->prep, p, &j->part_stats[p], &j->part_phases[p], cancel);
              if (!slice.Empty()) {
                j->part_deltas[p] =
                    std::make_unique<ViewDelta>(std::move(slice));
              }
            } catch (...) {
              j->part_errors[p] = std::current_exception();
            }
            j->part_stats[p].maintenance_nanos += timer.ElapsedNanos();
          });
        }
      } else if (job.error == nullptr &&
                 job.view->mode != MaintenanceMode::kDeferred) {
        pool_->Submit(
            [this, &job, &effect, cancel] { ComputeJob(&job, effect, cancel); });
      }
    }
    // Workers capture their own failures into the job, so WaitAll returns
    // normally even when a view's maintenance blew up.
    pool_->WaitAll();
  } else {
    for (auto& job : jobs) {
      if (job.error == nullptr && !job.partitioned &&
          job.view->mode != MaintenanceMode::kDeferred) {
        ComputeJob(&job, effect, cancel);
      }
    }
  }

  // Serial epilogue for partitioned jobs: fold slices into one delta per
  // view (name order again — `jobs` follows the sorted map).
  for (auto& job : jobs) {
    if (job.partitioned) MergePartitionedJob(&job);
  }

  // A deadline that expired inside any view's compute aborts the whole
  // commit (rethrown to the caller, who never reaches `CommitPrepared`);
  // other captured failures stay with their job for per-view quarantine.
  for (auto& job : jobs) {
    if (job.error != nullptr && IsDeadlineFailure(job.error)) {
      std::rethrow_exception(job.error);
    }
  }

  prepared.impl_->prepare_nanos = prepare_timer.ElapsedNanos();
  return prepared;
}

void ViewManager::CommitPrepared(PreparedCommit prepared,
                                 const TransactionEffect& effect) {
  static const uint32_t kBaseApplyName =
      obs::Tracer::Global().InternName("base_apply");
  static const uint32_t kSerialApplyName =
      obs::Tracer::Global().InternName("serial_apply");
  if (effect.Empty()) return;
  MVIEW_CHECK(prepared.impl_ != nullptr,
              "CommitPrepared needs a PrepareCommit result");
  ++metrics_.commit().commits;
  Stopwatch commit_timer;
  std::vector<CommitJob>& jobs = prepared.impl_->jobs;

  // Deferred views log their (filtered) backlog now — the first mutation
  // of view state, safely past every poll point.  A logging failure is
  // captured like any phase-2 failure and quarantined below.
  for (auto& job : jobs) {
    if (job.view->mode == MaintenanceMode::kDeferred &&
        job.error == nullptr) {
      ComputeJob(&job, effect);
    }
  }

  // Phase 3: apply the transaction to the base relations.
  {
    obs::TraceSpan span(kBaseApplyName);
    Stopwatch timer;
    effect.ApplyTo(db_);
    MarkEffectChanged(effect);
    metrics_.commit().base_apply_nanos += timer.ElapsedNanos();
  }

  // Phase 4: apply the deltas / recompute baselines, serially in name
  // order (`jobs` follows the sorted `views_` map) for determinism.  A
  // failure — captured in phase 2 or thrown here — quarantines its view
  // and the loop moves on: the bases are already committed, and sibling
  // views must not lose their deltas to someone else's fault.
  {
    obs::TraceSpan span(kSerialApplyName);
    for (auto& job : jobs) {
      ManagedView* view = job.view;
      if (job.error != nullptr) {
        QuarantineFor(view, job.error);
        continue;
      }
      ViewMetrics& m = *view->metrics;
      try {
        MVIEW_FAULT_POINT("viewmgr.apply.serial");
        if (job.delta != nullptr) {
          Stopwatch timer;
          // RCU install: apply the delta to a writable successor buffer,
          // retire the published front as the new spare, and remember the
          // delta so the spare can be recycled next commit.  The published
          // epoch's buffer is never touched.
          std::shared_ptr<ViewBuffer> next = WritableBuffer(view);
          job.delta->ApplyTo(next.get());
          m.delta_sizes.Record(job.delta->TotalCount());
          view->spare = std::move(view->materialized);
          view->materialized = std::move(next);
          view->lag_delta = std::move(job.delta);
          int64_t nanos = timer.ElapsedNanos();
          m.phases.apply_nanos += nanos;
          m.stats.maintenance_nanos += nanos;
          m.apply_latency.Record(nanos);
        }
        if (view->mode == MaintenanceMode::kFullReevaluation) {
          Stopwatch timer;
          view->materialized = std::make_shared<ViewBuffer>(
              view->maintainer->FullEvaluate(&m.stats.plan));
          view->spare.reset();
          view->lag_delta.reset();
          ++m.stats.full_reevaluations;
          int64_t nanos = timer.ElapsedNanos();
          m.phases.apply_nanos += nanos;
          m.stats.maintenance_nanos += nanos;
          m.apply_latency.Record(nanos);
        }
      } catch (...) {
        QuarantineFor(view, std::current_exception());
      }
    }
  }
  PublishEpoch();
  metrics_.commit().commit_latency.Record(prepared.impl_->prepare_nanos +
                                          commit_timer.ElapsedNanos());
}

void ViewManager::QuarantineFor(ManagedView* view,
                                const std::exception_ptr& error) {
  Quarantine(view->name, DescribeFailure(error), !IsTransientFailure(error));
}

void ViewManager::Quarantine(const std::string& name, const std::string& reason,
                             bool sticky) {
  ManagedView& view = GetView(name);
  const bool was_quarantined = view.quarantined;
  view.quarantined = true;
  view.quarantine_reason = reason;
  view.quarantine_sticky = view.quarantine_sticky || sticky;
  if (!was_quarantined) {
    ++view.metrics->stats.quarantines;
    view.repair_attempts = 0;
    view.next_retry_commit = commit_seq_ + 1;
  }
  // The deferred backlog is dead weight once repair recomputes from the
  // bases.
  for (auto& log : view.pending) log->Clear();
  PublishHealthEvent({ViewHealthEvent::Kind::kQuarantine, name, reason,
                      view.quarantine_sticky});
  // Snapshot readers must observe the quarantine too (their epoch's data
  // pointer still exists but `Read` now throws).
  PublishEpoch();
}

void ViewManager::Repair(const std::string& name) {
  ManagedView& view = GetView(name);
  ViewMetrics& m = *view.metrics;
  Stopwatch timer;
  // Lets tests fail the heal itself (exercising retry backoff and sticky
  // escalation) before any evaluation runs.  The evaluations below pass
  // the `ra.batch.alloc` point through their arenas, so an armed arena
  // fault fails the repair as well and leaves the view quarantined.
  MVIEW_FAULT_POINT("viewmgr.repair");
  // Full recompute from the current base state — the paper's always-valid
  // fallback.  Evaluate twice and require byte equality: a fault that
  // perturbs evaluation itself must fail the repair, never install a
  // wrong materialization as "healed".
  CountedRelation result = view.maintainer->FullEvaluate(&m.stats.plan);
  CountedRelation check = view.maintainer->FullEvaluate();
  if (!result.SameContents(check)) {
    throw Error("repair verification failed for view " + name +
                ": two full evaluations disagree");
  }
  view.materialized = std::make_shared<ViewBuffer>(std::move(result));
  view.spare.reset();
  view.lag_delta.reset();
  for (auto& log : view.pending) log->Clear();
  const bool was_quarantined = view.quarantined;
  view.quarantined = false;
  view.quarantine_reason.clear();
  view.quarantine_sticky = false;
  view.repair_attempts = 0;
  view.next_retry_commit = 0;
  ++m.stats.repairs;
  m.stats.maintenance_nanos += timer.ElapsedNanos();
  if (was_quarantined) {
    PublishHealthEvent({ViewHealthEvent::Kind::kRepair, name, "", false});
  }
  PublishEpoch();
}

void ViewManager::RetryTransientQuarantines() {
  for (auto& [name, view] : views_) {
    ManagedView* v = view.get();
    if (!v->quarantined || v->quarantine_sticky) continue;
    if (commit_seq_ < v->next_retry_commit) continue;
    try {
      Repair(name);
    } catch (...) {
      ++v->repair_attempts;
      if (v->repair_attempts >= kMaxRepairAttempts) {
        // Retries exhausted: escalate to sticky so the failure stops
        // burning a full recompute per commit; explicit REPAIR VIEW only.
        v->quarantine_sticky = true;
        PublishHealthEvent({ViewHealthEvent::Kind::kQuarantine, name,
                            v->quarantine_reason, true});
      } else {
        // Exponential backoff in commits: retry after 2, then 4.
        v->next_retry_commit =
            commit_seq_ + (int64_t{1} << v->repair_attempts);
      }
    }
  }
}

bool ViewManager::IsQuarantined(const std::string& name) const {
  return GetView(name).quarantined;
}

std::vector<std::string> ViewManager::QuarantinedViews() const {
  std::vector<std::string> names;
  for (const auto& [name, view] : views_) {
    if (view->quarantined) names.push_back(name);
  }
  return names;
}

void ViewManager::SetHealthListener(
    std::function<void(const ViewHealthEvent&)> listener) {
  health_listener_ = std::move(listener);
}

void ViewManager::PublishHealthEvent(const ViewHealthEvent& event) {
  if (!health_listener_) return;
  try {
    health_listener_(event);
  } catch (...) {
    // Durability of health state is best-effort: a failing listener (e.g.
    // a failed WAL) must not turn a contained view fault into a crash —
    // recovery recomputes views correctly without the record.
  }
}

void ViewManager::LogDeferred(ManagedView* view,
                              const TransactionEffect& effect) {
  const ViewDefinition& def = view->maintainer->definition();
  const bool use_filter = view->maintainer->options().use_irrelevance_filter;
  MaintenanceStats& stats = view->metrics->stats;
  for (size_t i = 0; i < def.bases().size(); ++i) {
    const RelationEffect* re = effect.Find(def.bases()[i].relation);
    if (re == nullptr) continue;
    const SubstitutionFilter& filter =
        view->maintainer->filter().base_filter(i);
    BaseDeltaLog& log = *view->pending[i];
    re->inserts.Scan([&](const Tuple& t) {
      ++stats.updates_seen;
      if (use_filter && !filter.MightBeRelevant(t)) {
        ++stats.updates_filtered;
        return;
      }
      log.LogInsert(t);
    });
    re->deletes.Scan([&](const Tuple& t) {
      ++stats.updates_seen;
      if (use_filter && !filter.MightBeRelevant(t)) {
        ++stats.updates_filtered;
        return;
      }
      log.LogDelete(t);
    });
  }
}

bool ViewManager::IsStale(const ManagedView& view) {
  for (const auto& log : view.pending) {
    if (!log->Empty()) return true;
  }
  return false;
}

ViewDelta ViewManager::PendingDelta(const std::string& name,
                                    MaintenanceStats* stats) const {
  const ManagedView& view = GetView(name);
  // The database holds the post-state; the clean old part of each base is
  // r_now − inserts (= r_old − deletes).
  std::vector<BaseParts> parts(view.pending.size());
  for (size_t i = 0; i < view.pending.size(); ++i) {
    const BaseDeltaLog& log = *view.pending[i];
    if (log.Empty()) continue;
    parts[i].inserts = &log.inserts();
    parts[i].deletes = &log.deletes();
    parts[i].subtract = &log.inserts();
  }
  return view.maintainer->ComputeDeltaFromParts(parts, stats);
}

void ViewManager::RefreshView(ManagedView* view) {
  // A quarantined view has no backlog to replay (quarantine cleared it);
  // reads surface the quarantine, and repair rebuilds from the bases.
  if (view->quarantined) return;
  if (view->mode != MaintenanceMode::kDeferred) return;
  if (!IsStale(*view)) return;
  ViewMetrics& m = *view->metrics;
  Stopwatch timer;
  try {
    MVIEW_FAULT_POINT("viewmgr.refresh");
    ViewDelta delta = PendingDelta(view->name, &m.stats);
    m.phases.differential_nanos += timer.ElapsedNanos();
    Stopwatch apply_timer;
    std::shared_ptr<ViewBuffer> next = WritableBuffer(view);
    delta.ApplyTo(next.get());
    m.delta_sizes.Record(delta.TotalCount());
    view->spare = std::move(view->materialized);
    view->materialized = std::move(next);
    view->lag_delta = std::make_unique<ViewDelta>(std::move(delta));
    m.phases.apply_nanos += apply_timer.ElapsedNanos();
    for (auto& log : view->pending) log->Clear();
    ++m.stats.refreshes;
    m.stats.maintenance_nanos += timer.ElapsedNanos();
    PublishEpoch();
  } catch (...) {
    // Same containment as the commit pipeline: a failed refresh (possibly
    // mid-apply) leaves the materialization untrusted — quarantine it.
    QuarantineFor(view, std::current_exception());
  }
}

void ViewManager::Refresh(const std::string& name) {
  RefreshView(&GetView(name));
}

void ViewManager::RefreshAll() {
  for (auto& [name, view] : views_) RefreshView(view.get());
}

ViewInfo ViewManager::Describe(const std::string& name) const {
  const ManagedView& view = GetView(name);
  ViewInfo info;
  info.name = name;
  info.mode = view.mode;
  info.definition = view.maintainer->definition();
  info.stats = view.metrics->stats;
  info.rows = view.materialized->size();
  for (const auto& log : view.pending) {
    if (!log->Empty()) info.stale = true;
    info.pending_tuples += log->TotalTuples();
  }
  info.quarantined = view.quarantined;
  info.quarantine_reason = view.quarantine_reason;
  info.quarantine_sticky = view.quarantine_sticky;
  return info;
}

const CountedRelation& ViewManager::View(const std::string& name) const {
  const ManagedView& view = GetView(name);
  if (view.quarantined) {
    throw ViewQuarantinedError("view " + name + " is quarantined (" +
                               view.quarantine_reason +
                               "); run REPAIR VIEW " + name);
  }
  return *view.materialized;
}

const CountedRelation& ViewManager::Materialization(
    const std::string& name) const {
  return *GetView(name).materialized;
}

CountedRelation& ViewManager::MutableMaterialization(const std::string& name) {
  ManagedView& view = GetView(name);
  // The returned buffer may be shared with the published epoch, so injected
  // drift is visible to snapshot readers too.  Drop the retired spare and
  // its catch-up delta: replaying them later would resurrect pre-drift
  // bytes and silently undo what the test injected.
  view.spare.reset();
  view.lag_delta.reset();
  return *view.materialized;
}

const std::vector<std::unique_ptr<BaseDeltaLog>>& ViewManager::PendingLogs(
    const std::string& name) const {
  return GetView(name).pending;
}

const DifferentialMaintainer& ViewManager::Maintainer(
    const std::string& name) const {
  return *GetView(name).maintainer;
}

std::vector<std::string> ViewManager::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, view] : views_) names.push_back(name);
  return names;
}

ViewManager::ManagedView& ViewManager::GetView(const std::string& name) {
  auto it = views_.find(name);
  MVIEW_CHECK(it != views_.end(), "unknown view: ", name);
  return *it->second;
}

const ViewManager::ManagedView& ViewManager::GetView(
    const std::string& name) const {
  auto it = views_.find(name);
  MVIEW_CHECK(it != views_.end(), "unknown view: ", name);
  return *it->second;
}

}  // namespace mview
