#ifndef MVIEW_RELATIONAL_RELATION_H_
#define MVIEW_RELATIONAL_RELATION_H_

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "relational/row_store.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace mview {

/// The rows an index probe matched: a chain of row ids threaded through
/// the index's links.  Each row is a `const Tuple&` into the relation,
/// valid while the relation is not modified.
class RowChain {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    Iterator() = default;
    const Tuple& operator*() const { return rows_->Row(id_); }
    const Tuple* operator->() const { return &rows_->Row(id_); }
    Iterator& operator++() {
      id_ = (*next_)[id_];
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return id_ == other.id_; }

   private:
    friend class RowChain;
    Iterator(const RowStore* rows, const IdArray* next, uint32_t id)
        : rows_(rows), next_(next), id_(id) {}
    const RowStore* rows_ = nullptr;
    const IdArray* next_ = nullptr;
    uint32_t id_ = RowStore::kNone;
  };

  RowChain() = default;
  RowChain(const RowStore* rows, const IdArray* next, uint32_t head)
      : rows_(rows), next_(next), head_(head) {}

  Iterator begin() const { return Iterator(rows_, next_, head_); }
  Iterator end() const { return Iterator(rows_, next_, RowStore::kNone); }
  bool empty() const { return head_ == RowStore::kNone; }

 private:
  const RowStore* rows_ = nullptr;
  const IdArray* next_ = nullptr;
  uint32_t head_ = RowStore::kNone;
};

/// A base relation with set semantics.
///
/// The paper's model (Section 3) treats base relations as sets: a
/// transaction's net effect on `r` is a pair of disjoint sets `i_r`, `d_r`
/// with `τ(r) = r ∪ i_r − d_r`.  Single-attribute hash indexes can be
/// created to support the index joins used by differential re-evaluation
/// (the `t_r ⋈ s` joins of Section 5.3 probe `s` by join-attribute value).
///
/// Rows live in a `RowStore`.  An index is a table of chain heads, one per
/// distinct key, plus a link per row to the next row with the same key.
class Relation {
 public:
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), rows_(schema_.size(), 0) {}

  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.size() == 0; }

  /// Inserts a tuple; returns false when it was already present.
  /// Throws when the tuple arity does not match the scheme.
  bool Insert(const Tuple& tuple);

  /// Removes a tuple; returns false when it was not present.
  bool Erase(const Tuple& tuple);

  /// Returns true when the tuple is present.
  bool Contains(const Tuple& tuple) const {
    return rows_.Find(tuple) != RowStore::kNone;
  }

  /// Invokes `fn(tuple)` for every tuple (unspecified order).
  template <typename Fn>
  void Scan(Fn&& fn) const {
    rows_.ForEach([&](uint32_t id) { fn(rows_.Row(id)); });
  }

  /// Creates (or re-creates) a hash index on the named attribute.
  void CreateIndex(const std::string& attribute);

  /// Returns true when an index exists on the attribute at `attr_index`.
  bool HasIndex(size_t attr_index) const;

  /// Returns the attribute indices that currently have hash indexes.
  std::vector<size_t> IndexedAttributes() const;

  /// Probes the index on `attr_index` for tuples whose attribute equals
  /// `key` (an empty chain when none does).  Throws when no index exists
  /// on that attribute.
  RowChain Probe(size_t attr_index, const Value& key) const;

  /// Returns all tuples sorted lexicographically (for tests and printing).
  std::vector<Tuple> ToSortedVector() const;

  /// Renders the full contents, one tuple per line, sorted.
  std::string ToString() const;

  /// The bytes the rows, lookup table and indexes map, and the slot bytes
  /// of the rows.
  RowStoreBytes memory() const;

 private:
  struct Index {
    size_t attr = 0;
    IdTable heads;  // per distinct key: the first row of its chain
    IdArray next;   // per row: the next row with the same key
  };

  const Index* FindIndex(size_t attr) const;
  const Value& Key(uint32_t id, size_t attr) const {
    return rows_.Row(id).values()[attr];
  }
  uint32_t Head(const Index& index, const Value& key) const;
  void Link(Index* index, uint32_t id);
  void Unlink(Index* index, uint32_t id);

  Schema schema_;
  RowStore rows_;
  std::vector<Index> indexes_;  // sorted by attribute
};

/// A relation whose tuples carry a multiplicity counter (Section 5.2).
///
/// This is the representation of materialized views and of deltas.  The
/// paper redefines projection to sum counters and join to multiply them so
/// that projection distributes over difference; `CountedRelation` is the
/// carrier of that algebra.  Counts are strictly positive; `Add` with a
/// negative delta removes multiplicity and throws if a count would go below
/// zero (that would mean the view lost tuples it never had — a maintenance
/// bug).
///
/// Rows live in a `RowStore` whose per-row payload is the multiplicity.
class CountedRelation {
 public:
  CountedRelation() : rows_(0, sizeof(int64_t)) {}
  explicit CountedRelation(Schema schema)
      : schema_(std::move(schema)), rows_(schema_.size(), sizeof(int64_t)) {}

  const Schema& schema() const { return schema_; }

  /// Number of distinct tuples.
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.size() == 0; }

  /// Sum of all multiplicities.
  int64_t TotalCount() const { return total_; }

  /// Adds `count` (which may be negative) to the tuple's multiplicity.
  /// Removes the tuple when the multiplicity reaches zero; throws when it
  /// would become negative.
  void Add(const Tuple& tuple, int64_t count);

  /// As above, but consumes the tuple — a freshly built row's values are
  /// moved into the store instead of copied (the batch sink's per-row fast
  /// path).
  void Add(Tuple&& tuple, int64_t count);

  /// Pre-sizes the hash table for at least `n` distinct tuples, so a batch
  /// of additions does not rehash incrementally.
  void Reserve(size_t n) { rows_.Reserve(n); }

  /// Returns the multiplicity of `tuple` (zero when absent).
  int64_t Count(const Tuple& tuple) const;

  /// Cancels the multiplicity shared with `other`: for every tuple present
  /// in both, subtracts `min` of the two counts from each side (erasing
  /// tuples that reach zero).  Afterwards the two relations are disjoint —
  /// the normalization step of a delta's (inserts, deletes) pair.  Iterates
  /// the smaller side's rows directly, so no per-row callback dispatch.
  void CancelWith(CountedRelation* other);

  bool Contains(const Tuple& tuple) const { return Count(tuple) > 0; }

  /// Invokes `fn(tuple, count)` for every distinct tuple.
  template <typename Fn>
  void Scan(Fn&& fn) const {
    rows_.ForEach([&](uint32_t id) { fn(rows_.Row(id), CountOf(id)); });
  }

  /// Removes all tuples.
  void Clear();

  /// Returns (tuple, count) pairs sorted by tuple (tests and printing).
  std::vector<std::pair<Tuple, int64_t>> ToSortedVector() const;

  /// Structural equality: same scheme arity, same tuples, same counts.
  bool SameContents(const CountedRelation& other) const;

  /// Renders the contents, one "tuple xcount" per line, sorted.
  std::string ToString() const;

  /// The bytes the rows and lookup table map, and the slot bytes of the
  /// rows.
  RowStoreBytes memory() const { return rows_.bytes(); }

 private:
  template <typename T>
  void AddRow(T&& tuple, int64_t count);
  int64_t CountOf(uint32_t id) const {
    int64_t c;
    std::memcpy(&c, rows_.Extra(id), sizeof(c));
    return c;
  }
  void SetCount(uint32_t id, int64_t c) {
    std::memcpy(rows_.Extra(id), &c, sizeof(c));
  }

  Schema schema_;
  RowStore rows_;
  int64_t total_ = 0;
};

}  // namespace mview

#endif  // MVIEW_RELATIONAL_RELATION_H_
