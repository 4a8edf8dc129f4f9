#ifndef MVIEW_IVM_DIFFERENTIAL_H_
#define MVIEW_IVM_DIFFERENTIAL_H_

#include <memory>
#include <vector>

#include "db/transaction.h"
#include "ivm/delta.h"
#include "ivm/irrelevance.h"
#include "ivm/partition.h"
#include "ivm/view_def.h"
#include "ra/planner.h"
#include "util/arena.h"

namespace mview {

/// Tuning knobs for differential maintenance.  Every view delta is the
/// paper's truth table (Section 5.3) with partial subexpressions shared
/// between its rows (Section 5.4); these two settings only choose whether
/// the rows see screened deltas and how many slices a round is split into.
struct MaintenanceOptions {
  /// Run Algorithm 4.1 over the transaction's tuples before re-evaluation
  /// (Section 4); off = treat every update as relevant.
  bool use_irrelevance_filter = true;

  /// Split each maintenance round into this many hash partitions that can
  /// be computed independently (see `PartitionLayout` for the keyed /
  /// row-hash mode choice).  1 disables partitioning.  The merged delta is
  /// byte-identical to the unpartitioned one (property-tested); bench E21
  /// measures the split.
  uint32_t partition_count = 1;
};

/// Wall-clock nanoseconds spent in each phase of the commit pipeline,
/// aggregated per view (filter/differential/apply) or per commit
/// (normalize) by the `ViewManager`'s `MetricsRegistry`.
struct PhaseBreakdown {
  int64_t normalize_nanos = 0;     // Transaction::Normalize (Section 3)
  int64_t filter_nanos = 0;        // Algorithm 4.1 irrelevance filtering
  int64_t differential_nanos = 0;  // Algorithm 5.1 delta computation
  int64_t apply_nanos = 0;         // delta application / recompute

  PhaseBreakdown& operator+=(const PhaseBreakdown& other);
};

/// Work counters for maintenance, aggregated per view by the `ViewManager`
/// and reported by the benchmark harness.
struct MaintenanceStats {
  int64_t transactions = 0;          // transactions routed to this view
  int64_t skipped_irrelevant = 0;    // transactions dropped entirely
  int64_t updates_seen = 0;          // tuples examined by the filter
  int64_t updates_filtered = 0;      // tuples proved irrelevant
  int64_t rows_enumerated = 0;       // truth-table rows considered
  int64_t rows_evaluated = 0;        // rows with all parts non-empty
  int64_t delta_inserts = 0;         // view tuples inserted (multiplicity)
  int64_t delta_deletes = 0;         // view tuples deleted (multiplicity)
  int64_t full_reevaluations = 0;
  int64_t refreshes = 0;             // deferred-mode refresh operations
  int64_t quarantines = 0;           // times this view entered quarantine
  int64_t repairs = 0;               // successful heals (full recompute)
  int64_t maintenance_nanos = 0;     // time spent maintaining this view
  // Columnar executor activity (ra/batch.h).
  // The first two are cumulative; the arena pair are gauges overwritten
  // after every round (operator+= sums them, which aggregates per-view
  // gauges into a total across views): `arena_bytes` is the scratch memory
  // currently reserved by the per-round arena, `arena_high_water` the
  // largest live footprint any round reached.
  int64_t batch_batches = 0;
  int64_t batch_rows = 0;
  int64_t arena_bytes = 0;
  int64_t arena_high_water = 0;
  // Partitioned maintenance (MaintenanceOptions::partition_count).  The
  // first two are cumulative: partitions evaluated vs. skipped because
  // their delta slice was empty.  The rows pair are per-round skew gauges
  // (overwritten by every `Prepare`): total delta rows sliced and the
  // largest single partition's share; `operator+=` sums the total and
  // takes the max of the max, so the aggregate reports the worst skew
  // across views.
  int64_t partition_jobs = 0;
  int64_t partitions_pruned = 0;
  int64_t partition_rows_total = 0;
  int64_t partition_rows_max = 0;
  PlanStats plan;

  MaintenanceStats& operator+=(const MaintenanceStats& other);
};

/// The per-base inputs of one differential computation: which tuples were
/// inserted, which deleted, and what to subtract from the relation's
/// *current* contents to recover the clean old part (`r_old − d`).
///
/// For commit-time maintenance the database holds the pre-state and
/// `subtract = deletes`.  For deferred snapshot refresh the database holds
/// the post-state and `subtract = inserts` (since
/// `r_old − d = r_now − i`); see `ViewManager::Refresh`.
struct BaseParts {
  const Relation* inserts = nullptr;  // null or empty = none
  const Relation* deletes = nullptr;
  const Relation* subtract = nullptr;
};

/// Differential re-evaluation of one SPJ view (Section 5, Algorithm 5.1).
///
/// `ComputeDelta` expands the view expression over the modified relations'
/// parts — the binary truth table of Section 5.3 generalized to mixed
/// insert/delete transactions via the tag algebra of Example 5.4: each base
/// contributes its clean old part, its deletions, or its insertions; rows
/// mixing insertions with deletions are pruned (`insert ⋈ delete → ignore`),
/// the all-clean row is the unchanged view and is never evaluated, and rows
/// naming an empty part vanish, leaving at most `2^k − 1` joins per tag for
/// `k` modified relations.  Rows containing a deletion produce delete-tagged
/// view tuples; the rest produce insert-tagged ones.
class DifferentialMaintainer {
 public:
  /// Compiles maintenance machinery for `def` over `db` (whose relations
  /// must outlive this object).  Throws when the definition is invalid.
  ///
  /// Indexes every base attribute of the definition's equi-join predicates
  /// (`ViewDefinition::JoinAttributes`), so each differential row probes
  /// the clean bases from its small delta (Section 5.3's `t_r ⋈ s`) in
  /// O(|delta|).  A base that no equality reaches is read in place at its
  /// cross-join step; the maintainer keeps no copy of it.
  DifferentialMaintainer(ViewDefinition def, Database* db,
                         MaintenanceOptions options = {});

  /// Computes the view delta for a transaction's net effect.  The database
  /// must still hold the *pre-transaction* state (the paper's assumption
  /// (a), Section 5).  Irrelevant tuples are filtered per Algorithm 4.1
  /// when enabled.  When `phases` is non-null, filter and differential time
  /// are accumulated into it separately.
  ///
  /// Thread-safety: reads only the (frozen) database pre-state and mutates
  /// only this maintainer's own scratch arenas, so concurrent
  /// calls for *different* maintainers are safe as long as no thread
  /// mutates the database — the property the parallel commit pipeline
  /// relies on (it runs at most one worker per view per commit).
  /// Concurrent calls on the *same* maintainer are not safe.
  ///
  /// `cancel` (optional) threads a cooperative cancellation token into the
  /// evaluation loops; an expired deadline unwinds the round cleanly
  /// (nothing observable was mutated) and throws `DeadlineExceededError`.
  ViewDelta ComputeDelta(const TransactionEffect& effect,
                         MaintenanceStats* stats = nullptr,
                         PhaseBreakdown* phases = nullptr,
                         const util::Cancellation* cancel = nullptr) const;

  /// The partition-independent prefix of one maintenance round, produced
  /// once per (view, transaction) by `Prepare` and consumed by one
  /// `ComputePartition` call per partition.  Owns every filtered and
  /// sliced relation its parts point into; the source effect must stay
  /// alive (each part's `subtract` is its unfiltered deletes).
  struct PreparedDelta {
    /// Screened full per-base parts (`subtract` = the unfiltered deletes).
    std::vector<BaseParts> parts;
    /// `sliced[p][i]`: partition `p`'s hash slice of base `i`'s filtered
    /// deltas (keyed mode: by the join-key attribute; row-hash mode: by
    /// whole-tuple hash).  Empty when `partition_count() == 1`.
    std::vector<std::vector<BaseParts>> sliced;
    /// Whether partition `p` has any non-empty delta slice.  When no
    /// partition does, partition 0 is marked active anyway so every round
    /// performs (at least) one evaluation — the same fault-point cadence as
    /// unpartitioned maintenance.
    std::vector<bool> active;
    std::vector<std::unique_ptr<Relation>> owned;
  };

  /// Runs the irrelevance screen and slices the surviving deltas by
  /// partition — the serial O(|delta|) prologue of a round.  Accumulates
  /// filter time/counters and the partition skew gauges.
  PreparedDelta Prepare(const TransactionEffect& effect,
                        MaintenanceStats* stats = nullptr,
                        PhaseBreakdown* phases = nullptr) const;

  /// Evaluates partition `p` of a prepared round (nothing, when `p` is
  /// inactive) and returns the partition's normalized delta.
  ///
  /// Thread-safety: calls for *distinct* partitions of the same prepared
  /// round may run concurrently — each touches only its own arena and
  /// reads the frozen pre-state — provided each call gets its
  /// own `stats`/`phases` (or null).  Two calls for the same partition
  /// must not overlap.
  ViewDelta ComputePartition(const PreparedDelta& prep, uint32_t p,
                             MaintenanceStats* stats = nullptr,
                             PhaseBreakdown* phases = nullptr,
                             const util::Cancellation* cancel = nullptr) const;

  /// Sums per-partition deltas (signed multiplicities) and normalizes —
  /// the merged delta is byte-identical to an unpartitioned evaluation.
  /// Adds the merged delta's insert/delete counts to `stats`.
  ViewDelta MergePartitions(std::vector<ViewDelta> slices,
                            MaintenanceStats* stats = nullptr) const;

  /// Overwrites the per-round gauges (`arena_bytes`, `arena_high_water`)
  /// with the current totals across all partition arenas.  Called once
  /// after a round's partitions finish, and
  /// after a deferred refresh, so the gauges mean the same after either;
  /// the per-partition `ComputePartition` calls leave gauges untouched so
  /// merging their stats never double-counts.
  void FinalizeRoundStats(MaintenanceStats* stats) const;

  /// Lower-level entry point used by deferred refresh: `parts[i]` describes
  /// base occurrence `i` (all fields may be null for untouched bases).
  /// No filtering is applied here — callers filter when logging.
  ViewDelta ComputeDeltaFromParts(const std::vector<BaseParts>& parts,
                                  MaintenanceStats* stats = nullptr) const;

  /// Re-evaluates the view from scratch against the database's current
  /// state (the paper's baseline comparator).
  CountedRelation FullEvaluate(PlanStats* stats = nullptr) const;

  /// One row-hash slice of `FullEvaluate`: base occurrence 0 is restricted
  /// to the tuples whose whole-tuple hash lands in `slice` (of `total`);
  /// the other bases stream in full.  Because the join is linear in each
  /// input, the `total` slices partition the full result exactly — the
  /// scrubber verifies a view one slice per call without ever holding a
  /// full re-evaluation's working set.
  CountedRelation FullEvaluateSlice(uint32_t slice, uint32_t total,
                                    PlanStats* stats = nullptr) const;

  /// True when the effect touches any base relation of this view.
  bool AffectedBy(const TransactionEffect& effect) const;

  const ViewDefinition& definition() const { return def_; }
  const IrrelevanceFilter& filter() const { return *filter_; }
  const Schema& output_schema() const { return output_; }
  const MaintenanceOptions& options() const { return options_; }

  /// The partition layout chosen for this view (count 1 = unpartitioned).
  const PartitionLayout& partition_layout() const { return layout_; }
  uint32_t partition_count() const { return layout_.count; }

 private:
  /// Evaluates one slice of a round.  `full` supplies the clean inputs
  /// (with their subtract relations) and the deltas at non-anchoring join
  /// positions; `anchor` supplies the delta at each truth-table row's
  /// *anchoring* position (the first non-clean choice).
  /// Each row is linear in its anchor, so slicing only the anchor input
  /// partitions the output exactly.  Keyed mode passes the same sliced
  /// parts as both (and `slice_clean` selects `PartitionSliceInput` for
  /// the clean side); unpartitioned rounds pass `parts` twice.
  ViewDelta EvaluateSlice(const std::vector<BaseParts>& full,
                          const std::vector<BaseParts>& anchor,
                          bool slice_clean, uint32_t slice, util::Arena* arena,
                          MaintenanceStats* stats,
                          const util::Cancellation* cancel = nullptr) const;
  void EnumerateRows(const std::vector<RelationInput*>& clean,
                     const std::vector<RelationInput*>& ins,
                     const std::vector<RelationInput*>& del,
                     const std::vector<RelationInput*>& anchor_ins,
                     const std::vector<RelationInput*>& anchor_del,
                     ViewDelta* delta, MaintenanceStats* stats,
                     PlannerCache* cache, const EvalContext* ctx) const;

  ViewDefinition def_;
  const Database* db_;
  MaintenanceOptions options_;
  Schema combined_;
  Schema output_;
  std::vector<Schema> aliased_;
  PartitionLayout layout_;
  std::unique_ptr<IrrelevanceFilter> filter_;
  // Per-partition scratch memory for the batch pipeline, reset at the
  // start of every slice evaluation; mutable because ComputeDelta is
  // logically const.  Arena `p` is touched only by partition `p`'s rounds
  // — the basis of the partition-parallel contract.
  mutable std::vector<std::unique_ptr<util::Arena>> arenas_;
};

/// Evaluates `def` from scratch over `db`'s current state — what
/// `DifferentialMaintainer::FullEvaluate` does, without building a
/// maintainer, so it creates no index.  Ad-hoc queries use it: they run
/// under a shared lock, where indexing a base would race with other
/// readers.
CountedRelation EvaluateDefinition(const ViewDefinition& def,
                                   const Database& db,
                                   PlanStats* stats = nullptr);

}  // namespace mview

#endif  // MVIEW_IVM_DIFFERENTIAL_H_
