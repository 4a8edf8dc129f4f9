#ifndef MVIEW_RA_BATCH_H_
#define MVIEW_RA_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "util/arena.h"

namespace mview {

/// A columnar chunk of counted rows, its capacity fixed at construction.
///
/// This is the unit of the batch differential pipeline: instead of flowing
/// through the evaluator one heap-allocated `Tuple` (an array of tagged
/// `Value`s) at a time, delta rows move in chunks laid out column-wise in
/// per-round arena memory.  The executor sizes a list of chunks to its
/// input: the first holds `kFirstCapacity` rows and each later one twice
/// the one before, up to `kDefaultCapacity`, so a three-row delta occupies
/// one 16-row chunk while a full evaluation still streams 1024-row ones —
///
///   - `kInt64` attributes are a flat `int64_t` array (the common case;
///     the paper's domains are integer-valued), so selection and join-key
///     computation run as tight loops over machine words;
///   - `kString` attributes are an array of *borrowed* `std::string_view`s
///     into the scanned relations' slot-stable rows (a row's values never
///     move while the row is stored), so strings are never copied
///     while a row is in flight — only a surviving output row materializes
///     its strings into the result `Tuple`;
///   - every row carries its multiplicity in a `counts` column
///     (Section 5.2's counter algebra: join multiplies, projection sums).
///
/// All arrays live in a `util::Arena` scoped to the maintenance round, so a
/// batch must not outlive its round — under ASan the arena's `Reset`
/// poisons the arrays and a late read aborts.  Batches are move-only
/// handles; they never own or free memory.
///
/// Rows between `size()` and `capacity()` are uninitialized.  Columns of a
/// wide (combined-scheme) batch that belong to not-yet-joined inputs are
/// likewise uninitialized until the join step that binds them fills them
/// in; `CopyRow` therefore copies explicit column ranges, not whole rows.
class ColumnBatch {
 public:
  static constexpr size_t kFirstCapacity = 16;
  static constexpr size_t kDefaultCapacity = 1024;

  ColumnBatch() = default;

  /// A batch shaped like `schema` with room for `capacity` rows, all
  /// arrays carved from `arena`.
  ColumnBatch(const Schema& schema, size_t capacity, util::Arena* arena);

  ColumnBatch(ColumnBatch&&) = default;
  ColumnBatch& operator=(ColumnBatch&&) = default;
  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  size_t num_columns() const { return num_cols_; }

  ValueType column_type(size_t col) const { return types_[col]; }

  /// Typed column accessors; the column must have the matching type.
  int64_t* ints(size_t col) { return static_cast<int64_t*>(data_[col]); }
  const int64_t* ints(size_t col) const {
    return static_cast<const int64_t*>(data_[col]);
  }
  std::string_view* strs(size_t col) {
    return static_cast<std::string_view*>(data_[col]);
  }
  const std::string_view* strs(size_t col) const {
    return static_cast<const std::string_view*>(data_[col]);
  }

  /// The multiplicity column.
  int64_t* counts() { return counts_; }
  const int64_t* counts() const { return counts_; }

  /// Opens a new row with multiplicity `count`, returning its index; the
  /// value columns are uninitialized until the caller fills them.  The
  /// batch must not be full.
  size_t AppendRow(int64_t count) {
    counts_[size_] = count;
    return size_++;
  }

  /// Rolls back to `n` rows (abandoning tentative rows a filter rejected)
  /// or truncates after compaction.  `n` must be ≤ `size()`.
  void Truncate(size_t n) { size_ = n; }

  void Clear() { size_ = 0; }

  /// Writes `tuple`'s values into row `row` at columns
  /// `[first_col, first_col + tuple.size())`.
  void SetFromTuple(size_t row, const Tuple& tuple, size_t first_col);

  /// Appends a whole row from `tuple` (columns starting at `first_col`;
  /// any others stay uninitialized).
  void AppendTuple(const Tuple& tuple, int64_t count, size_t first_col = 0) {
    SetFromTuple(AppendRow(count), tuple, first_col);
  }

  /// Copies columns `[first_col, first_col + n_cols)` of `src`'s row
  /// `src_row` into this batch's row `dst_row`.  The column types must
  /// match positionally.
  void CopyRow(const ColumnBatch& src, size_t src_row, size_t dst_row,
               size_t first_col, size_t n_cols);

  /// Materializes the value at (row, col) — copies the string for string
  /// columns, so the result owns its payload.
  Value ValueAt(size_t row, size_t col) const;

  /// Materializes row `row` restricted to `cols` (a projection) as an
  /// owning `Tuple`.
  Tuple MakeTuple(size_t row, const std::vector<size_t>& cols) const;

  /// Materializes the full row.
  Tuple MakeTuple(size_t row) const;

  /// Keeps exactly the rows listed (ascending) in `sel[0..n)`, moving them
  /// to the front — the compaction step after a selection kernel produced
  /// the selection vector.
  void Keep(const uint32_t* sel, size_t n);

  /// A shallow projection: a batch whose `cols.size()` columns alias this
  /// batch's `cols[i]` columns and counts ("projection is column
  /// shuffling" — no row data moves).  The view shares this batch's arena
  /// arrays and current size; it is invalidated by any mutation of the
  /// source.
  ColumnBatch ProjectView(const std::vector<size_t>& cols,
                          util::Arena* arena) const;

 private:
  ValueType* types_ = nullptr;  // [num_cols_]
  void** data_ = nullptr;       // [num_cols_], each [capacity_]
  int64_t* counts_ = nullptr;   // [capacity_]
  size_t num_cols_ = 0;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// The consumer side of the evaluator's streams.
///
/// The virtual interface `RelationInput` scans and the planner emits into:
/// a batch `EmitBatch` fast path for columnar producers, and a
/// tuple-at-a-time `Emit` that every consumer must implement — a sink that
/// only implements `Emit` still receives batched streams through the
/// default row-loop adapter.  Producers and consumers both allocate their
/// sinks on the stack; no `std::function` hop remains on the row path.
class DeltaSink {
 public:
  virtual ~DeltaSink() = default;

  /// Receives one tuple with its multiplicity.
  virtual void Emit(const Tuple& tuple, int64_t count) = 0;

  /// Receives a whole batch.  The default adapter materializes each row
  /// and forwards it to `Emit`; columnar consumers override this to
  /// consume the columns directly.
  virtual void EmitBatch(const ColumnBatch& batch);
};

/// Accumulates a counted stream into a `CountedRelation` with counts
/// scaled by `multiplier` — the terminal sink of differential evaluation.
class CountedRelationSink final : public DeltaSink {
 public:
  CountedRelationSink(CountedRelation* out, int64_t multiplier)
      : out_(out), multiplier_(multiplier) {}

  void Emit(const Tuple& tuple, int64_t count) override {
    out_->Add(tuple, count * multiplier_);
  }
  void EmitBatch(const ColumnBatch& batch) override;

 private:
  CountedRelation* out_;
  int64_t multiplier_;
};

}  // namespace mview

#endif  // MVIEW_RA_BATCH_H_
