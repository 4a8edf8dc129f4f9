#ifndef MVIEW_IVM_PARTITION_H_
#define MVIEW_IVM_PARTITION_H_

#include <cstdint>
#include <vector>

#include "predicate/condition.h"
#include "relational/partition.h"
#include "relational/schema.h"

namespace mview {

/// How one view's maintenance work is split into hash partitions.
///
/// Two modes, chosen by `ComputePartitionLayout`:
///
///  - **Keyed (co-partitioned)**: when an equality class of zero-offset
///    `=` atoms present in *every* disjunct of the condition covers at
///    least one attribute of every base occurrence, all inputs of a
///    partition's evaluation — clean parts and deltas alike — are sliced
///    by the hash of that base's class attribute.  Exact because two
///    tuples whose class attributes hash to different partitions can never
///    satisfy the condition together, so every output row is produced in
///    exactly one partition.
///
///  - **Row-hash (anchor-slice) fallback**: the general case (inequality
///    joins, offset joins, disjuncts with differing equalities,
///    single-base views).  Only the *anchoring* delta input of each
///    truth-table row is sliced, by whole-tuple hash; clean inputs and
///    non-anchor deltas stay full.  Exact because each row is linear in
///    its anchor, so slicing the anchor partitions the row's output
///    without losing cross combinations.
///
/// Both modes merge per-partition deltas by summing signed multiplicities;
/// `ViewDelta::Normalize` is a function of that signed measure, so the
/// merged delta is byte-identical to the unpartitioned one.
struct PartitionLayout {
  uint32_t count = 1;  // 1 = partitioning disabled
  bool keyed = false;  // co-partitioned by a join-equality class
  /// Per base occurrence: the partition-key attribute index in the base's
  /// own scheme (aliasing renames positionally, so the index is the same
  /// in the aliased scheme).  `kRowHashKey` everywhere when not keyed.
  std::vector<size_t> key_attr;
};

/// Chooses the partition layout for a view with the given condition and
/// per-base aliased schemes (see `ViewDefinition::AliasedSchema`).
/// Keyed mode requires `count >= 2`, at least two bases, and an equality
/// class common to every disjunct that touches every base; the choice
/// among qualifying classes is deterministic (first attribute of base 0,
/// in scheme order, whose class qualifies).
PartitionLayout ComputePartitionLayout(const Condition& condition,
                                       const std::vector<Schema>& aliased,
                                       uint32_t count);

}  // namespace mview

#endif  // MVIEW_IVM_PARTITION_H_
