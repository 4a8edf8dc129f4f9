#ifndef MVIEW_RA_INPUT_H_
#define MVIEW_RA_INPUT_H_

#include <cstdint>
#include <vector>

#include "ra/batch.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace mview {

/// A read-only stream of counted tuples feeding the SPJ planner.
///
/// Differential re-evaluation joins *parts* of relations (Section 5.3): the
/// old tuples of `r`, the tuples being deleted (`d_r`), the tuples being
/// inserted (`i_r`), or an old state reconstructed from the current one.
/// `RelationInput` abstracts over these so one planner serves full
/// re-evaluation, per-transaction deltas, and deferred snapshot refresh.
///
/// Streams flow into `DeltaSink`s (ra/batch.h): `Scan` and `ProbeEqual`
/// take the sink interface, and callers implement small stack-allocated
/// sinks.
///
/// Inputs are immutable, and every `const Tuple&` they stream is a row in
/// a relation's row store, valid while that relation is not modified.  A
/// per-round join table (`PlannerCache`) keeps pointers to those rows
/// instead of copying them.  A delta is a plain `FullRelationInput`: a
/// step that joins it through an equality hashes it once per round.
///
/// Inputs may expose their scheme under *aliases* (view definitions rename
/// attributes to keep them unique across the view's base relations); the
/// aliased scheme is what `schema()` reports.
class RelationInput {
 public:
  RelationInput();
  virtual ~RelationInput() = default;

  /// The (possibly aliased) scheme of the streamed tuples.
  virtual const Schema& schema() const = 0;

  /// Approximate number of tuples, used by the greedy join-order heuristic.
  virtual size_t SizeHint() const = 0;

  /// Streams every tuple with its multiplicity into `sink`.
  virtual void Scan(DeltaSink& sink) const = 0;

  /// Returns true when `ProbeEqual` is supported on attribute `attr`.
  virtual bool CanProbe(size_t attr) const;

  /// Streams the tuples whose attribute `attr` equals `key` (index join).
  virtual void ProbeEqual(size_t attr, const Value& key,
                          DeltaSink& sink) const;

  /// A process-unique serial stamped at construction; `PlannerCache`
  /// records it so debug builds can assert an entry's input pointer was
  /// not freed and reused (pointer-keyed caches dangle silently otherwise).
  uint64_t debug_serial() const { return debug_serial_; }

 private:
  uint64_t debug_serial_ = 0;
};

/// The whole contents of a set-semantics `Relation` (multiplicity 1).
class FullRelationInput : public RelationInput {
 public:
  /// Streams `relation`, reporting `schema` (an aliased copy of the
  /// relation's scheme; pass `relation->schema()` when no renaming applies).
  FullRelationInput(const Relation* relation, Schema schema);

  const Schema& schema() const override { return schema_; }
  size_t SizeHint() const override { return relation_->size(); }
  void Scan(DeltaSink& sink) const override;
  bool CanProbe(size_t attr) const override;
  void ProbeEqual(size_t attr, const Value& key,
                  DeltaSink& sink) const override;

 private:
  const Relation* relation_;
  Schema schema_;
};

/// A set difference `relation − minus`, streamed without materializing.
///
/// This is the "clean old" part of a modified relation (`r − d_r`) and the
/// reconstructed pre-state used by snapshot refresh (`r_now − i_r`).  Index
/// probes delegate to `relation` and filter out `minus` tuples.
class SubtractRelationInput : public RelationInput {
 public:
  SubtractRelationInput(const Relation* relation, const Relation* minus,
                        Schema schema);

  const Schema& schema() const override { return schema_; }
  size_t SizeHint() const override;
  void Scan(DeltaSink& sink) const override;
  bool CanProbe(size_t attr) const override;
  void ProbeEqual(size_t attr, const Value& key,
                  DeltaSink& sink) const override;

 private:
  const Relation* relation_;
  const Relation* minus_;
  Schema schema_;
};

/// The contents of a `CountedRelation` (deltas, intermediates, view states).
class CountedRelationInput : public RelationInput {
 public:
  CountedRelationInput(const CountedRelation* relation, Schema schema);

  const Schema& schema() const override { return schema_; }
  size_t SizeHint() const override { return relation_->size(); }
  void Scan(DeltaSink& sink) const override;

 private:
  const CountedRelation* relation_;
  Schema schema_;
};

/// One hash partition of `(relation − minus)`: streams the tuples whose
/// partition (hash of the attribute at `key_attr`, or of the whole tuple
/// for `kRowHashKey`, modulo `total`) equals `slice`.
///
/// This is the clean input of keyed co-partitioned maintenance — each
/// partition's evaluation sees only its 1/P slice of the base — and the
/// scrubber's partition-at-a-time full evaluation (which slices base 0 by
/// row hash; any disjoint decomposition of one input partitions the join's
/// output, by linearity).  `minus` may be null.  Index probes delegate to
/// the underlying relation and filter by partition and `minus`.
class PartitionSliceInput : public RelationInput {
 public:
  PartitionSliceInput(const Relation* relation, Schema schema,
                      const Relation* minus, size_t key_attr, uint32_t slice,
                      uint32_t total);

  const Schema& schema() const override { return schema_; }
  size_t SizeHint() const override;
  void Scan(DeltaSink& sink) const override;
  bool CanProbe(size_t attr) const override;
  void ProbeEqual(size_t attr, const Value& key,
                  DeltaSink& sink) const override;

 private:
  bool InSlice(const Tuple& t) const;

  const Relation* relation_;
  const Relation* minus_;  // may be null
  Schema schema_;
  size_t key_attr_;
  uint32_t slice_;
  uint32_t total_;
};

}  // namespace mview

#endif  // MVIEW_RA_INPUT_H_
