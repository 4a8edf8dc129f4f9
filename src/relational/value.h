#ifndef MVIEW_RELATIONAL_VALUE_H_
#define MVIEW_RELATIONAL_VALUE_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>

namespace mview {

/// The attribute types supported by the engine.
///
/// The paper assumes all attributes range over discrete, finite domains that
/// can be mapped to integers ("we use integer values in all examples"); the
/// Rosenkrantz–Hunt satisfiability machinery of Section 4 is only defined for
/// such domains.  We additionally support strings for realistic workloads;
/// conditions over string attributes are evaluated exactly by the
/// differential machinery, while the irrelevance filter treats atoms it
/// cannot reason about conservatively (see `predicate/substitution.h`).
enum class ValueType : uint8_t {
  kInt64,
  kString,
};

/// Returns a printable name for a value type ("int64" / "string").
const char* ValueTypeName(ValueType type);

/// A single attribute value: a 64-bit integer or a string.
///
/// Values are ordered and hashable.  Comparisons between values of different
/// types throw `Error` — schemas are statically typed and the condition
/// validator rejects mixed-type atoms, so such a comparison indicates a bug.
///
/// A value is 16 bytes, because every stored row of every base relation,
/// view and epoch spare is an array of them.  Byte 15 is a tag:
///
///   - `0..15`: a string of that many bytes, stored inline in bytes 0..14;
///   - `kIntTag`: an `int64_t` in bytes 0..7;
///   - `kHeapTag`: a string longer than 15 bytes, in a heap block the value
///     owns alone (bytes 0..7 point at it, bytes 8..11 hold its length).
///
/// A string is inline exactly when it fits, and bytes a representation does
/// not use are zero, so equal values have equal tags and — except for heap
/// strings — equal bytes.  A heap block is never shared (there is no
/// reference count), so copies handed to epoch readers share nothing
/// mutable.
class Value {
 public:
  /// Constructs the integer value 0.
  Value() noexcept { SetInt(0); }
  /// Constructs an integer value.
  Value(int64_t v) noexcept { SetInt(v); }  // NOLINT: implicit by design
  /// Constructs an integer value from a plain int literal.
  Value(int v) noexcept { SetInt(v); }  // NOLINT
  /// Constructs a string value.
  Value(const std::string& v) { SetString(v); }  // NOLINT
  /// Constructs a string value from a C literal.
  Value(const char* v) { SetString(v); }  // NOLINT
  /// Constructs a string value (copying the viewed bytes).
  explicit Value(std::string_view v) { SetString(v); }

  Value(const Value& other) {
    if (other.tag() == kHeapTag) {
      SetString(other.StringPayload());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.SetInt(0);
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      other.SetInt(0);
    }
    return *this;
  }
  ~Value() { Release(); }

  /// Returns the runtime type of this value.
  ValueType type() const {
    return tag() == kIntTag ? ValueType::kInt64 : ValueType::kString;
  }

  /// Returns the integer payload; throws if this is not an integer.
  int64_t AsInt64() const;

  /// Returns the string payload; throws if this is not a string.  The view
  /// borrows this value's bytes: it is valid while the value is neither
  /// destroyed, moved from nor assigned to.
  std::string_view AsString() const;

  /// Three-way comparison; throws on mixed-type comparison.
  int Compare(const Value& other) const;

  /// Equality; values of different types are unequal (no throw).
  bool operator==(const Value& other) const {
    if (tag() != other.tag()) return false;
    if (tag() == kHeapTag) return StringPayload() == other.StringPayload();
    return std::memcmp(bytes_, other.bytes_, sizeof(bytes_)) == 0;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Returns a hash suitable for unordered containers.
  std::size_t Hash() const {
    return tag() == kIntTag ? HashInt(IntPayload())
                            : HashString(StringPayload());
  }

  /// `Hash()` of the integer value `v`, without building the value.
  static std::size_t HashInt(int64_t v) {
    // Mix so that small integers spread across buckets.
    uint64_t x = static_cast<uint64_t>(v);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  /// `Hash()` of the string value with bytes `s`, without building the
  /// value (which may copy `s` into a heap block).
  static std::size_t HashString(std::string_view s);

  /// A process-independent hash (FNV-1a over a type tag and the payload
  /// bytes).  Unlike `Hash()` — which may vary with the standard library —
  /// this is stable across runs and platforms, so hash-partition
  /// assignments derived from it survive checkpoint/recovery round-trips.
  uint64_t StableHash() const;

  /// Renders the value for diagnostics ("42" or "\"abc\"").
  std::string ToString() const;

 private:
  static constexpr size_t kInlineCapacity = 15;
  static constexpr uint8_t kIntTag = 0x40;
  static constexpr uint8_t kHeapTag = 0x41;

  uint8_t tag() const { return static_cast<uint8_t>(bytes_[15]); }
  int64_t IntPayload() const {
    int64_t v;
    std::memcpy(&v, bytes_, sizeof(v));
    return v;
  }
  char* HeapData() const {
    char* p;
    std::memcpy(&p, bytes_, sizeof(p));
    return p;
  }
  uint32_t HeapSize() const {
    uint32_t n;
    std::memcpy(&n, bytes_ + 8, sizeof(n));
    return n;
  }
  // The string payload of a value known to be a string.
  std::string_view StringPayload() const {
    return tag() == kHeapTag ? std::string_view(HeapData(), HeapSize())
                             : std::string_view(bytes_, tag());
  }

  void SetInt(int64_t v) {
    std::memset(bytes_, 0, sizeof(bytes_));
    std::memcpy(bytes_, &v, sizeof(v));
    bytes_[15] = static_cast<char>(kIntTag);
  }
  void SetString(std::string_view s);  // on raw (unowned) bytes
  void Release() {
    if (tag() == kHeapTag) delete[] HeapData();
  }

  alignas(8) char bytes_[16];
};

static_assert(sizeof(Value) == 16, "a Value is 16 bytes");

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace mview

namespace std {
template <>
struct hash<mview::Value> {
  std::size_t operator()(const mview::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // MVIEW_RELATIONAL_VALUE_H_
