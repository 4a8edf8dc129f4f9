#ifndef MVIEW_RA_PLANNER_H_
#define MVIEW_RA_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "predicate/condition.h"
#include "ra/input.h"
#include "relational/relation.h"

namespace mview {

namespace util {
class Arena;
class Cancellation;
}  // namespace util

/// A select–project–join query over a list of inputs:
/// `π_projection(σ_condition(inputs[0] × inputs[1] × … ))`.
///
/// The combined scheme is the concatenation of the input schemes (attribute
/// names must be unique across inputs, as in the paper's Definition 4.3);
/// the condition and projection refer to it by name.  A null condition means
/// `true`; an empty projection keeps all attributes.
struct SpjQuery {
  std::vector<const RelationInput*> inputs;
  const Condition* condition = nullptr;
  std::vector<std::string> projection;
};

/// Counters describing how much work a plan performed; the benchmark
/// harness aggregates these to report the paper's cost comparisons in
/// machine-independent units as well as wall-clock time.
struct PlanStats {
  int64_t rows_scanned = 0;         // tuples streamed from inputs
  int64_t probes = 0;               // index probes issued
  int64_t intermediate_tuples = 0;  // partial join results produced
  int64_t output_tuples = 0;        // tuples emitted (pre-aggregation)

  PlanStats& operator+=(const PlanStats& other);
};

/// A cache of materialized scans and join hash tables shared by several
/// plan executions over the *same* condition (the truth-table rows of
/// Section 5.3/5.4 all share the view condition and most inputs).  This is
/// the paper's "re-using partial subexpressions appearing in multiple rows",
/// and differential maintenance always shares one across a round's rows.
/// It holds only keyed tables: a cross-join step reads its input in place.
///
/// Entries are keyed by input identity, so a cache must never outlive the
/// inputs it indexes, and must not be shared across different conditions.
/// Debug builds assert this: each entry records its input's
/// `debug_serial()`, and `Find` trips when a freed input's address was
/// reused by a newer one.
class PlannerCache {
 public:
  /// A filtered, materialized input with its equi-join hash index.
  struct Table {
    std::vector<std::pair<Tuple, int64_t>> rows;
    // A table keeps exactly one index from its key to indices into rows.
    // An `int_keyed` table uses `int_index`, which the executor probes with
    // an int64 straight out of a column, skipping the key-tuple build and
    // the Tuple hash; any other table uses `index`, keyed by the tuple of
    // key_attrs' values.  `AddRow` is the only mutation of rows.
    std::unordered_map<Tuple, std::vector<size_t>> index;
    std::unordered_map<int64_t, std::vector<size_t>> int_index;
    // Flat row-major mirror of `rows`' values, populated only when
    // `all_int`: the executor copies matched rows into merged batches
    // straight from this array (row i at [i*arity, (i+1)*arity)),
    // skipping the per-value variant reads of `SetFromTuple`.
    std::vector<int64_t> int_rows;
    std::vector<size_t> key_attrs;
    bool int_keyed = false;  // key_attrs is one kInt64 attribute
    bool all_int = false;    // every input attribute is kInt64
    uint64_t debug_serial = 0;      // RelationInput::debug_serial() at Create

    /// Appends `t` with multiplicity `count` to rows, its mirror and the
    /// key index.
    void AddRow(const Tuple& t, int64_t count);
  };

  /// Returns the cached table for (input, key_attrs), or nullptr.
  Table* Find(const RelationInput* input, const std::vector<size_t>& key);

  /// Inserts and returns an empty table for (input, key_attrs).
  Table* Create(const RelationInput* input, const std::vector<size_t>& key);

  size_t size() const { return tables_.size(); }

 private:
  std::map<std::pair<const RelationInput*, std::vector<size_t>>,
           std::unique_ptr<Table>>
      tables_;
};

/// Work counters of the columnar executor (see `EvalContext`).
struct BatchEvalStats {
  int64_t batches = 0;  // ColumnBatch chunks allocated
  int64_t rows = 0;     // rows committed into batches across all stages

  BatchEvalStats& operator+=(const BatchEvalStats& other) {
    batches += other.batches;
    rows += other.rows;
    return *this;
  }
};

/// Execution context the differential maintainer threads into the planner.
/// Rows move through the join order in `ColumnBatch` chunks whose arrays
/// live in `arena`, selections produce selection vectors, and projection
/// is column shuffling.  A maintenance round passes its own arena, scoped
/// to the round; without a context, or with a null `arena`, the executor
/// uses an arena local to the call.
struct EvalContext {
  util::Arena* arena = nullptr;
  BatchEvalStats* batch_stats = nullptr;  // optional activity counters
  // Cooperative cancellation token (null = uncancellable).  The executor
  // polls it per join step and per allocated batch — never per tuple — so
  // an expired statement deadline unwinds the evaluation mid-round at a
  // bounded cost (see util/deadline.h for the poll-point contract).
  const util::Cancellation* cancel = nullptr;
};

/// Evaluates an SPJ query with counting semantics (Section 5.2: join
/// multiplies multiplicities, projection sums them) and adds the result to
/// `out` with counts scaled by `multiplier`.
///
/// The plan pushes single-input atoms below the joins, extracts equality
/// atoms common to every disjunct as hash/index join predicates, orders
/// joins greedily by input size (preferring index probes), and applies the
/// remaining condition as a residual filter.  `ctx` is optional (see
/// `EvalContext`).
void EvaluateSpjInto(const SpjQuery& query, CountedRelation* out,
                     int64_t multiplier = 1, PlanStats* stats = nullptr,
                     PlannerCache* cache = nullptr,
                     const EvalContext* ctx = nullptr);

/// Convenience wrapper returning a fresh `CountedRelation`.
CountedRelation EvaluateSpj(const SpjQuery& query, PlanStats* stats = nullptr,
                            PlannerCache* cache = nullptr);

/// Returns the concatenated (combined) scheme of the query's inputs.
Schema CombinedSchema(const SpjQuery& query);

}  // namespace mview

#endif  // MVIEW_RA_PLANNER_H_
