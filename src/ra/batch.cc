#include "ra/batch.h"

#include <cstring>

#include "util/error.h"

namespace mview {

ColumnBatch::ColumnBatch(const Schema& schema, size_t capacity,
                         util::Arena* arena)
    : num_cols_(schema.size()), capacity_(capacity) {
  MVIEW_CHECK(arena != nullptr, "null arena");
  MVIEW_CHECK(capacity > 0, "zero-capacity batch");
  types_ = arena->AllocateArray<ValueType>(num_cols_);
  data_ = arena->AllocateArray<void*>(num_cols_);
  counts_ = arena->AllocateArray<int64_t>(capacity_);
  for (size_t c = 0; c < num_cols_; ++c) {
    types_[c] = schema.attribute(c).type;
    if (types_[c] == ValueType::kInt64) {
      data_[c] = arena->AllocateArray<int64_t>(capacity_);
    } else {
      data_[c] = arena->AllocateArray<std::string_view>(capacity_);
    }
  }
}

void ColumnBatch::SetFromTuple(size_t row, const Tuple& tuple,
                               size_t first_col) {
  for (size_t i = 0; i < tuple.size(); ++i) {
    const size_t c = first_col + i;
    if (types_[c] == ValueType::kInt64) {
      ints(c)[row] = tuple.at(i).AsInt64();
    } else {
      strs(c)[row] = tuple.at(i).AsString();
    }
  }
}

void ColumnBatch::CopyRow(const ColumnBatch& src, size_t src_row,
                          size_t dst_row, size_t first_col, size_t n_cols) {
  for (size_t c = first_col; c < first_col + n_cols; ++c) {
    if (types_[c] == ValueType::kInt64) {
      ints(c)[dst_row] = src.ints(c)[src_row];
    } else {
      strs(c)[dst_row] = src.strs(c)[src_row];
    }
  }
}

Value ColumnBatch::ValueAt(size_t row, size_t col) const {
  if (types_[col] == ValueType::kInt64) return Value(ints(col)[row]);
  return Value(strs(col)[row]);
}

Tuple ColumnBatch::MakeTuple(size_t row,
                             const std::vector<size_t>& cols) const {
  return Tuple::Build(cols.size(),
                      [&](size_t i) { return ValueAt(row, cols[i]); });
}

Tuple ColumnBatch::MakeTuple(size_t row) const {
  return Tuple::Build(num_cols_, [&](size_t c) { return ValueAt(row, c); });
}

void ColumnBatch::Keep(const uint32_t* sel, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const size_t row = sel[i];
    if (row == i) continue;  // prefix already in place
    for (size_t c = 0; c < num_cols_; ++c) {
      if (types_[c] == ValueType::kInt64) {
        ints(c)[i] = ints(c)[row];
      } else {
        strs(c)[i] = strs(c)[row];
      }
    }
    counts_[i] = counts_[row];
  }
  size_ = n;
}

ColumnBatch ColumnBatch::ProjectView(const std::vector<size_t>& cols,
                                     util::Arena* arena) const {
  ColumnBatch view;
  view.num_cols_ = cols.size();
  view.types_ = arena->AllocateArray<ValueType>(view.num_cols_);
  view.data_ = arena->AllocateArray<void*>(view.num_cols_);
  for (size_t i = 0; i < cols.size(); ++i) {
    view.types_[i] = types_[cols[i]];
    view.data_[i] = data_[cols[i]];
  }
  view.counts_ = counts_;
  view.size_ = size_;
  view.capacity_ = capacity_;
  return view;
}

void DeltaSink::EmitBatch(const ColumnBatch& batch) {
  for (size_t row = 0; row < batch.size(); ++row) {
    Emit(batch.MakeTuple(row), batch.counts()[row]);
  }
}

void CountedRelationSink::EmitBatch(const ColumnBatch& batch) {
  // Pre-size for the batch, then move each freshly built tuple into the
  // map — the batch arm pays one allocation per emitted row where the
  // tuple-at-a-time adapter pays a build plus a key copy.
  out_->Reserve(out_->size() + batch.size());
  const int64_t* counts = batch.counts();
  for (size_t row = 0; row < batch.size(); ++row) {
    out_->Add(batch.MakeTuple(row), counts[row] * multiplier_);
  }
}

}  // namespace mview
