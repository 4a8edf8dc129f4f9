#include "ra/input.h"

#include <atomic>

#include "relational/partition.h"
#include "util/error.h"

namespace mview {

RelationInput::RelationInput() {
  static std::atomic<uint64_t> serial{0};
  debug_serial_ = serial.fetch_add(1, std::memory_order_relaxed) + 1;
}

bool RelationInput::CanProbe(size_t) const { return false; }

void RelationInput::ProbeEqual(size_t, const Value&, DeltaSink&) const {
  internal::ThrowError("this input does not support index probes");
}

FullRelationInput::FullRelationInput(const Relation* relation, Schema schema)
    : relation_(relation), schema_(std::move(schema)) {
  MVIEW_CHECK(relation_ != nullptr, "null relation");
  MVIEW_CHECK(schema_.size() == relation_->schema().size(),
              "alias scheme arity mismatch");
}

void FullRelationInput::Scan(DeltaSink& sink) const {
  relation_->Scan([&](const Tuple& t) { sink.Emit(t, 1); });
}

bool FullRelationInput::CanProbe(size_t attr) const {
  return relation_->HasIndex(attr);
}

void FullRelationInput::ProbeEqual(size_t attr, const Value& key,
                                   DeltaSink& sink) const {
  for (const Tuple& t : relation_->Probe(attr, key)) sink.Emit(t, 1);
}

SubtractRelationInput::SubtractRelationInput(const Relation* relation,
                                             const Relation* minus,
                                             Schema schema)
    : relation_(relation), minus_(minus), schema_(std::move(schema)) {
  MVIEW_CHECK(relation_ != nullptr && minus_ != nullptr, "null relation");
  MVIEW_CHECK(schema_.size() == relation_->schema().size(),
              "alias scheme arity mismatch");
}

size_t SubtractRelationInput::SizeHint() const {
  size_t r = relation_->size();
  size_t m = minus_->size();
  return r > m ? r - m : 0;
}

void SubtractRelationInput::Scan(DeltaSink& sink) const {
  relation_->Scan([&](const Tuple& t) {
    if (!minus_->Contains(t)) sink.Emit(t, 1);
  });
}

bool SubtractRelationInput::CanProbe(size_t attr) const {
  return relation_->HasIndex(attr);
}

void SubtractRelationInput::ProbeEqual(size_t attr, const Value& key,
                                       DeltaSink& sink) const {
  for (const Tuple& t : relation_->Probe(attr, key)) {
    if (!minus_->Contains(t)) sink.Emit(t, 1);
  }
}

CountedRelationInput::CountedRelationInput(const CountedRelation* relation,
                                           Schema schema)
    : relation_(relation), schema_(std::move(schema)) {
  MVIEW_CHECK(relation_ != nullptr, "null relation");
  MVIEW_CHECK(schema_.size() == relation_->schema().size(),
              "alias scheme arity mismatch");
}

void CountedRelationInput::Scan(DeltaSink& sink) const {
  relation_->Scan([&](const Tuple& t, int64_t c) { sink.Emit(t, c); });
}

PartitionSliceInput::PartitionSliceInput(const Relation* relation,
                                         Schema schema, const Relation* minus,
                                         size_t key_attr, uint32_t slice,
                                         uint32_t total)
    : relation_(relation),
      minus_(minus),
      schema_(std::move(schema)),
      key_attr_(key_attr),
      slice_(slice),
      total_(total) {
  MVIEW_CHECK(relation_ != nullptr, "null relation");
  MVIEW_CHECK(schema_.size() == relation_->schema().size(),
              "alias scheme arity mismatch");
  MVIEW_CHECK(total_ >= 1 && slice_ < total_, "partition slice out of range");
  MVIEW_CHECK(key_attr_ == kRowHashKey || key_attr_ < schema_.size(),
              "partition key attribute out of range");
}

bool PartitionSliceInput::InSlice(const Tuple& t) const {
  return PartitionOf(t, key_attr_, total_) == slice_;
}

size_t PartitionSliceInput::SizeHint() const {
  size_t r = relation_->size();
  size_t m = minus_ != nullptr ? minus_->size() : 0;
  // An estimate (the heuristic consumer only ranks inputs): an even share
  // of the surviving rows, rounded up so a non-empty slice never claims 0.
  return (r > m ? r - m : 0) / total_ + 1;
}

void PartitionSliceInput::Scan(DeltaSink& sink) const {
  relation_->Scan([&](const Tuple& t) {
    if (!InSlice(t)) return;
    if (minus_ != nullptr && minus_->Contains(t)) return;
    sink.Emit(t, 1);
  });
}

bool PartitionSliceInput::CanProbe(size_t attr) const {
  return relation_->HasIndex(attr);
}

void PartitionSliceInput::ProbeEqual(size_t attr, const Value& key,
                                     DeltaSink& sink) const {
  for (const Tuple& t : relation_->Probe(attr, key)) {
    if (!InSlice(t)) continue;
    if (minus_ != nullptr && minus_->Contains(t)) continue;
    sink.Emit(t, 1);
  }
}

}  // namespace mview
