#ifndef MVIEW_RELATIONAL_PARTITION_H_
#define MVIEW_RELATIONAL_PARTITION_H_

#include <cstddef>
#include <cstdint>

#include "relational/tuple.h"

namespace mview {

/// Sentinel partition key meaning "hash the whole tuple" — the row-hash
/// fallback used when no join/equality attribute co-partitions a view's
/// bases.
inline constexpr size_t kRowHashKey = static_cast<size_t>(-1);

/// The partition of `tuple` among `count` hash partitions: the stable hash
/// of the attribute at `key_attr` (or of the whole tuple for `kRowHashKey`)
/// modulo `count`.  Stable across processes — see `Value::StableHash`.
inline uint32_t PartitionOf(const Tuple& tuple, size_t key_attr,
                            uint32_t count) {
  if (count <= 1) return 0;
  const uint64_t h = key_attr == kRowHashKey ? tuple.StableHash()
                                             : tuple.at(key_attr).StableHash();
  return static_cast<uint32_t>(h % count);
}

}  // namespace mview

#endif  // MVIEW_RELATIONAL_PARTITION_H_
