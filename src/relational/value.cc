#include "relational/value.h"

#include <functional>
#include <limits>
#include <ostream>

#include "util/error.h"

namespace mview {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return "int64";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

void Value::SetString(std::string_view s) {
  std::memset(bytes_, 0, sizeof(bytes_));
  if (s.size() <= kInlineCapacity) {
    std::memcpy(bytes_, s.data(), s.size());
    bytes_[15] = static_cast<char>(s.size());
    return;
  }
  MVIEW_CHECK(s.size() <= std::numeric_limits<uint32_t>::max(),
              "string value too long: ", s.size(), " bytes");
  char* block = new char[s.size()];
  std::memcpy(block, s.data(), s.size());
  const auto size = static_cast<uint32_t>(s.size());
  std::memcpy(bytes_, &block, sizeof(block));
  std::memcpy(bytes_ + 8, &size, sizeof(size));
  bytes_[15] = static_cast<char>(kHeapTag);
}

int64_t Value::AsInt64() const {
  MVIEW_CHECK(type() == ValueType::kInt64, "value is not an int64: ",
              ToString());
  return IntPayload();
}

std::string_view Value::AsString() const {
  MVIEW_CHECK(type() == ValueType::kString, "value is not a string: ",
              ToString());
  return StringPayload();
}

int Value::Compare(const Value& other) const {
  MVIEW_CHECK(type() == other.type(), "mixed-type comparison: ", ToString(),
              " vs ", other.ToString());
  if (type() == ValueType::kInt64) {
    int64_t a = IntPayload();
    int64_t b = other.IntPayload();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  int c = StringPayload().compare(other.StringPayload());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::size_t Value::HashString(std::string_view s) {
  // std::hash<std::string_view> hashes the same bytes the same way
  // std::hash<std::string> does, so hashes match the variant-based value
  // this layout replaced.
  return std::hash<std::string_view>{}(s) ^ 0x9e3779b97f4a7c15ULL;
}

uint64_t Value::StableHash() const {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;  // FNV prime
  };
  if (type() == ValueType::kInt64) {
    mix(0);  // type tag: int64 and string payloads never collide trivially
    uint64_t x = static_cast<uint64_t>(IntPayload());
    for (int i = 0; i < 8; ++i) mix(static_cast<uint8_t>(x >> (8 * i)));
  } else {
    mix(1);
    for (char c : StringPayload()) mix(static_cast<uint8_t>(c));
  }
  return h;
}

std::string Value::ToString() const {
  if (type() == ValueType::kInt64) {
    return std::to_string(IntPayload());
  }
  std::string out = "\"";
  out.append(StringPayload());
  out += '"';
  return out;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace mview
