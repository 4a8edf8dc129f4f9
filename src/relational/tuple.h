#ifndef MVIEW_RELATIONAL_TUPLE_H_
#define MVIEW_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <utility>
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
///
/// A tuple is a pointer and a 32-bit size over one heap array of exactly
/// `size()` values — no capacity slack.  Moving a tuple moves the pointer,
/// so values (and the bytes of their inline strings) stay where they are
/// while the tuple is alive.  A stored row is the same 16-byte header
/// borrowing the values that follow it in a row store's slot
/// (`relational/row_store.h`); copying it yields an owning tuple.
class Tuple {
 public:
  Tuple() = default;
  /// Moves `values` into a new exact-size array.
  explicit Tuple(std::vector<Value> values);
  /// Copies `values` into a new array.
  explicit Tuple(std::span<const Value> values);
  Tuple(std::initializer_list<Value> values)
      : Tuple(std::span<const Value>(values.begin(), values.size())) {}

  /// Builds a tuple of `n` values straight into its final array, the i-th
  /// constructed from `make(i)` (called in order, i = 0, 1, ...).
  template <typename Make>
  static Tuple Build(size_t n, Make&& make) {
    Tuple t;
    t.Allocate(n);
    for (size_t i = 0; i < n; ++i) t.Push(make(i));
    return t;
  }

  /// A tuple of `n` integer zeros, to be overwritten through
  /// `mutable_values()` (the join hot loops' scratch probe keys).
  static Tuple OfSize(size_t n) {
    return Build(n, [](size_t) { return Value(); });
  }

  Tuple(const Tuple& other) : Tuple(other.values()) {}
  Tuple(Tuple&& other) noexcept : data_(other.data_), size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) *this = Tuple(other);
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release();
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~Tuple() { Release(); }

  size_t size() const { return size_; }
  const Value& at(size_t index) const;
  std::span<const Value> values() const { return {data_, size_}; }

  /// Mutable access for scratch tuples reused across hash probes (the
  /// join hot loops overwrite one key tuple in place instead of
  /// materializing a fresh tuple — and its string values — per probe).
  std::span<Value> mutable_values() { return {data_, size_}; }

  /// Returns the concatenation of this tuple with `other`.
  Tuple Concat(const Tuple& other) const;

  /// Returns the sub-tuple at the given source indices (projection).
  Tuple Project(const std::vector<size_t>& indices) const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }

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
  friend class RowStore;

  // A header over `size` values at `data` that it does not own: the head
  // of a row store's slot.  The store never runs its destructor; it
  // destroys the values itself when it erases the row.
  struct Borrowed {};
  Tuple(Value* data, uint32_t size, Borrowed) : data_(data), size_(size) {}

  // Allocates room for `n` values and leaves `size_` at 0; `Push` then
  // constructs them in order.  `size_` counts the constructed values, so a
  // throw midway destroys exactly those.
  void Allocate(size_t n);
  template <typename V>
  void Push(V&& v) {
    new (data_ + size_) Value(std::forward<V>(v));
    ++size_;
  }
  void Release();

  Value* data_ = nullptr;
  uint32_t size_ = 0;
};

static_assert(sizeof(Tuple) == 16, "a Tuple is a pointer and a size");

}  // namespace mview

namespace std {
template <>
struct hash<mview::Tuple> {
  std::size_t operator()(const mview::Tuple& t) const { return t.Hash(); }
};
}  // namespace std

#endif  // MVIEW_RELATIONAL_TUPLE_H_
