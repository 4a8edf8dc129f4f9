#ifndef MVIEW_RA_JOIN_CACHE_H_
#define MVIEW_RA_JOIN_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "predicate/condition.h"
#include "ra/planner.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace mview {

/// Cumulative work counters of one `JoinStateCache`; the differential
/// maintainer diffs them per round into `MaintenanceStats`.
struct JoinCacheCounters {
  int64_t hits = 0;        // Lookup returned a live entry
  int64_t misses = 0;      // a cold build had to install an entry
  int64_t evictions = 0;   // entries dropped to meet the byte budget
  int64_t delta_rows = 0;  // rows incrementally added/removed in entries
};

/// A cross-transaction cache of the filtered, keyless materializations
/// (`PlannerCache::Table` without a key) that the SPJ planner streams at a
/// *cross-join* step: a clean base that no equality predicate connects to
/// the rows already bound, so no index probe applies and every delta row
/// meets every surviving base row.
///
/// Equi-joins never reach this cache: the maintainer indexes every
/// equi-join attribute, so their steps probe the base's `Relation` index
/// in O(|delta|).  A cross-join step costs O(|delta|·|base|) either way;
/// the cache saves the per-round filtered scan of the base and lets the
/// executor copy matched rows from a contiguous int mirror — a constant
/// factor, not an asymptotic one (bench E16).  Its entries are updated
/// *with the same normalized per-base deltas the round already has*: the
/// transaction's deletes are removed when a round opens, its inserts are
/// added (through the entry's stored local filters) when it closes.
///
/// Keying and validity.  Entries are keyed by `slot`, the base-occurrence
/// index within the owning view — a stable identity, unlike the per-round
/// `RelationInput*` the `PlannerCache` keys on.  Each entry carries the
/// owning relation's (`uid`, `version`) observed when it was last
/// synchronized.  Because normalized effects guarantee `inserts ∩ r = ∅`
/// and `deletes ⊆ r`, the post-round version is exactly
/// `pre + |deletes| + |inserts|`, so the entry's predicted version matches
/// the relation iff the commit really applied; aborted rounds, rejected
/// transactions, and out-of-band mutations all surface as a mismatch and
/// the entry is lazily dropped (cold rebuild) instead of serving stale
/// rows.
///
/// Round protocol (driven by `DifferentialMaintainer::ComputePartition`):
///   1. `BeginRound(slots)` — validate every entry against its relation's
///      current token, drop stale ones, then apply the round's *deletes* so
///      entries mirror the clean pre-state `r − d` the planner expects.
///   2. The planner calls `Lookup`/`Install`+`CompleteInstall` through the
///      `RelationInput` cache binding while evaluating the delta rows.
///   3. `EndRound()` — apply the round's *inserts* (filtered through each
///      entry's stored local filters), stamp the predicted post-version,
///      and evict LRU entries down to the byte budget.
/// A round that never reaches `EndRound` (a failed commit) leaves its
/// touched entries marked in-round; the next `BeginRound` discards them.
///
/// Thread-safety: none.  Each `DifferentialMaintainer` owns its shards —
/// one per maintenance partition — and the commit pipeline runs at most
/// one worker per (view, partition) per commit, so entries are never
/// shared between threads.
class JoinStateCache {
 public:
  /// The per-base-occurrence state handed to `BeginRound`.
  struct SlotUpdate {
    uint64_t uid = 0;      // Relation::uid() of the occurrence's base
    uint64_t version = 0;  // Relation::version() before the round
    const Relation* deletes = nullptr;  // normalized, unfiltered; may be null
    const Relation* inserts = nullptr;  // normalized, unfiltered; may be null
  };

  explicit JoinStateCache(size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  JoinStateCache(const JoinStateCache&) = delete;
  JoinStateCache& operator=(const JoinStateCache&) = delete;

  /// Opens a maintenance round: validates all entries, drops stale ones,
  /// and applies each touched slot's deletes.  An unfinished previous
  /// round is aborted first (its touched entries are discarded).
  void BeginRound(std::vector<SlotUpdate> slots);

  /// Closes the round: applies each touched slot's inserts, stamps
  /// predicted post-versions, and evicts down to the byte budget.
  void EndRound();

  /// Returns the live table for `slot` or nullptr.  Counts a hit and
  /// refreshes the entry's LRU position.  Only valid inside a round.
  PlannerCache::Table* Lookup(uint32_t slot);

  /// Starts installing a cold entry: returns an empty table for the caller
  /// to fill with the clean input's filtered rows, or nullptr when no
  /// round is active (caller falls back to its per-round cache).  `schema`
  /// and `filters` are the input's aliased scheme and the local filter
  /// atoms the caller applies while filling; the cache replays inserts
  /// through them on every future `EndRound`.  Counts a miss.
  PlannerCache::Table* Install(uint32_t slot, const Schema& schema,
                               const std::vector<Atom>& filters);

  /// Finalizes the entry begun by `Install` (row accounting, reverse map,
  /// eviction).  Until this is called the entry is invisible to `Lookup`
  /// and dropped by the next `BeginRound`.
  void CompleteInstall(uint32_t slot);

  /// Abandons an open round without applying inserts: the entries the
  /// round touched are discarded (their deletes were already applied, so
  /// they no longer mirror any consistent state).  Safe to call with no
  /// round open.  Exposed for the maintainer's exception path — a throw
  /// between `BeginRound` and `EndRound` must not leave the round open.
  void AbortRound();

  const JoinCacheCounters& counters() const { return counters_; }
  size_t bytes() const { return bytes_; }
  size_t entry_count() const { return entries_.size(); }
  size_t budget_bytes() const { return budget_bytes_; }
  bool round_active() const { return round_active_; }

 private:
  struct Entry {
    PlannerCache::Table table;
    Schema schema;              // aliased scheme of the cached input
    std::vector<Atom> filters;  // local filters applied at build time
    // Reverse map (full tuple → row index) for the swap-remove.
    std::unordered_map<Tuple, size_t> row_of;
    uint64_t uid = 0;
    uint64_t version = 0;  // matching Relation::version() when !inround
    bool inround = false;  // deletes applied, inserts pending
    bool complete = false;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };

  void AddRow(Entry* entry, const Tuple& tuple);
  void RemoveRow(Entry* entry, const Tuple& tuple);
  void EvictToBudget(const Entry* keep);
  static size_t ApproxRowBytes(const Tuple& tuple);

  size_t budget_bytes_;
  std::map<uint32_t, std::unique_ptr<Entry>> entries_;
  std::vector<SlotUpdate> slots_;
  bool round_active_ = false;
  size_t bytes_ = 0;
  uint64_t tick_ = 0;
  JoinCacheCounters counters_;
};

}  // namespace mview

#endif  // MVIEW_RA_JOIN_CACHE_H_
