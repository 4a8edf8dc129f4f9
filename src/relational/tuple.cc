#include "relational/tuple.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>

#include "util/error.h"
#include "util/hash.h"

namespace mview {

Tuple::Tuple(std::vector<Value> values) {
  Allocate(values.size());
  for (Value& v : values) Push(std::move(v));
}

Tuple::Tuple(std::span<const Value> values) {
  Allocate(values.size());
  for (const Value& v : values) Push(v);
}

void Tuple::Allocate(size_t n) {
  MVIEW_CHECK(n <= std::numeric_limits<uint32_t>::max(), "tuple too wide");
  if (n > 0) data_ = static_cast<Value*>(::operator new(n * sizeof(Value)));
}

void Tuple::Release() {
  if (data_ == nullptr) return;
  std::destroy_n(data_, size_);
  ::operator delete(data_);
}

const Value& Tuple::at(size_t index) const {
  MVIEW_CHECK(index < size_, "tuple index out of range");
  return data_[index];
}

Tuple Tuple::Concat(const Tuple& other) const {
  Tuple out;
  out.Allocate(size_ + other.size_);
  for (const Value& v : values()) out.Push(v);
  for (const Value& v : other.values()) out.Push(v);
  return out;
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  return Build(indices.size(), [&](size_t i) -> const Value& {
    return at(indices[i]);
  });
}

bool Tuple::operator==(const Tuple& other) const {
  return size_ == other.size_ && std::equal(data_, data_ + size_, other.data_);
}

bool Tuple::operator<(const Tuple& other) const {
  size_t n = std::min(size_, other.size_);
  for (size_t i = 0; i < n; ++i) {
    int c = data_[i].Compare(other.data_[i]);
    if (c != 0) return c < 0;
  }
  return size_ < other.size_;
}

std::size_t Tuple::Hash() const {
  std::size_t seed = 0x51ed270b;
  for (const Value& v : values()) seed = HashCombine(seed, v.Hash());
  return seed;
}

uint64_t Tuple::StableHash() const {
  uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  for (const Value& v : values()) {
    h ^= v.StableHash();
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

std::string Tuple::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < size_; ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  os << ")";
  return os.str();
}

}  // namespace mview
