#ifndef MVIEW_RA_PLANNER_H_
#define MVIEW_RA_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
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

/// A cache of join hash tables shared by several plan executions over the
/// *same* condition (the truth-table rows of Section 5.3/5.4 all share the
/// view condition and most inputs).  This is the paper's "re-using partial
/// subexpressions appearing in multiple rows", and differential maintenance
/// always shares one across a round's rows.  It holds only keyed tables: a
/// cross-join step reads its input in place.
///
/// A table indexes its input's rows in place: it keeps a pointer to each
/// `const Tuple&` the input streamed, and every input streams the rows of
/// a row store (a base's, a delta's or a counted relation's), which stay
/// put while they are stored.  So a cache must never outlive its inputs,
/// no input's relation may change while a cache holds a table of it (no
/// base or delta changes within a maintenance round), and a cache must not
/// be shared across different conditions.  Entries are keyed by input
/// identity; debug builds assert the lifetime rule: each entry records its
/// input's `debug_serial()`, and `Find` trips when a freed input's address
/// was reused by a newer one.  Under AddressSanitizer a read of a row the
/// store has since freed is reported, as its slot is poisoned.
class PlannerCache {
 public:
  /// The rows of one input that pass its local filters, with a chained
  /// hash index on `key_attrs` in the shape of a relation's indexes: per
  /// distinct key the first row of its chain, per row the next row with
  /// the same key.  Keys hash as their values' `Value::Hash()` folded in
  /// `key_attrs` order.
  struct Table {
    std::vector<std::pair<const Tuple*, int64_t>> rows;  // borrowed, count
    IdTable heads;  // per distinct key: the first row of its chain
    IdArray next;   // per row: the next row with the same key
    std::vector<size_t> key_attrs;
    uint64_t debug_serial = 0;  // RelationInput::debug_serial() at Create
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
