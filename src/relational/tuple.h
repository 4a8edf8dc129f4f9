#ifndef MVIEW_RELATIONAL_TUPLE_H_
#define MVIEW_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "relational/value.h"

namespace mview {

/// A row: an ordered list of values matching some `Schema` positionally.
///
/// Tuples do not carry their schema; relations and operators pair them with
/// the right scheme.  The multiplicity counter of Section 5.2 is *not* stored
/// here — `CountedRelation` keeps counts beside tuples, matching the paper's
/// remark that the counter attribute "need not be explicitly stored" for base
/// relations (where it is always one).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t index) const;
  const std::vector<Value>& values() const { return values_; }

  /// Mutable access for scratch tuples reused across hash probes (the
  /// join hot loops overwrite one key tuple in place instead of
  /// materializing a fresh tuple — and its string values — per probe).
  std::vector<Value>& mutable_values() { return values_; }

  /// Returns the concatenation of this tuple with `other`.
  Tuple Concat(const Tuple& other) const;

  /// Returns the sub-tuple at the given source indices (projection).
  Tuple Project(const std::vector<size_t>& indices) const;

  bool operator==(const Tuple& other) const { return values_ == other.values_; }
  bool operator!=(const Tuple& other) const { return values_ != other.values_; }

  /// Lexicographic order (used only for deterministic printing/sorting).
  bool operator<(const Tuple& other) const;

  /// Returns a hash over all values.
  std::size_t Hash() const;

  /// A process-independent hash folding the values' `Value::StableHash`;
  /// the whole-row key of hash-partitioned maintenance and scrubbing
  /// (stable across restarts, unlike `Hash()`).
  uint64_t StableHash() const;

  /// Renders as "(1, 2, \"x\")".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace mview

namespace std {
template <>
struct hash<mview::Tuple> {
  std::size_t operator()(const mview::Tuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // MVIEW_RELATIONAL_TUPLE_H_
