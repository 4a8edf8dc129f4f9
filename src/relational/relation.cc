#include "relational/relation.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace mview {

bool Relation::Insert(const Tuple& tuple) {
  MVIEW_CHECK(tuple.size() == schema_.size(), "tuple arity ", tuple.size(),
              " does not match scheme ", schema_.ToString());
  // Make room in every index first, so linking the new row cannot fail.
  for (Index& index : indexes_) {
    index.next.Cover(size_t{rows_.id_bound()} + 1);
    index.heads.Reserve(index.heads.size() + 1, [&](uint32_t id) {
      return Key(id, index.attr).Hash();
    });
  }
  const auto [id, inserted] = rows_.Insert(tuple);
  if (inserted) {
    for (Index& index : indexes_) Link(&index, id);
  }
  return inserted;
}

bool Relation::Erase(const Tuple& tuple) {
  const uint32_t id = rows_.Find(tuple);
  if (id == RowStore::kNone) return false;
  for (Index& index : indexes_) Unlink(&index, id);
  rows_.Erase(id);
  return true;
}

void Relation::CreateIndex(const std::string& attribute) {
  Index index;
  index.attr = schema_.MustIndexOf(attribute);
  index.next.Cover(rows_.id_bound());
  rows_.ForEach([&](uint32_t id) { Link(&index, id); });
  auto it = std::lower_bound(
      indexes_.begin(), indexes_.end(), index.attr,
      [](const Index& i, size_t attr) { return i.attr < attr; });
  if (it != indexes_.end() && it->attr == index.attr) {
    *it = std::move(index);
  } else {
    indexes_.insert(it, std::move(index));
  }
}

bool Relation::HasIndex(size_t attr_index) const {
  return FindIndex(attr_index) != nullptr;
}

std::vector<size_t> Relation::IndexedAttributes() const {
  std::vector<size_t> attrs;
  attrs.reserve(indexes_.size());
  for (const Index& index : indexes_) attrs.push_back(index.attr);
  return attrs;
}

RowChain Relation::Probe(size_t attr_index, const Value& key) const {
  const Index* index = FindIndex(attr_index);
  MVIEW_CHECK(index != nullptr, "no index on attribute #", attr_index);
  return RowChain(&rows_, &index->next, Head(*index, key));
}

std::vector<Tuple> Relation::ToSortedVector() const {
  std::vector<Tuple> out;
  out.reserve(size());
  Scan([&](const Tuple& t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

std::string Relation::ToString() const {
  std::ostringstream os;
  for (const auto& t : ToSortedVector()) os << t.ToString() << "\n";
  return os.str();
}

RowStoreBytes Relation::memory() const {
  RowStoreBytes bytes = rows_.bytes();
  for (const Index& index : indexes_) {
    bytes.mapped += index.heads.mapped_bytes() + index.next.mapped_bytes();
  }
  return bytes;
}

const Relation::Index* Relation::FindIndex(size_t attr) const {
  for (const Index& index : indexes_) {
    if (index.attr == attr) return &index;
  }
  return nullptr;
}

uint32_t Relation::Head(const Index& index, const Value& key) const {
  return index.heads.Find(key.Hash(), [&](uint32_t id) {
    return Key(id, index.attr) == key;
  });
}

void Relation::Link(Index* index, uint32_t id) {
  const Value& key = Key(id, index->attr);
  const uint32_t head = Head(*index, key);
  if (head == RowStore::kNone) {
    index->next[id] = RowStore::kNone;
    index->heads.Insert(key.Hash(), id, [&](uint32_t i) {
      return Key(i, index->attr).Hash();
    });
  } else {
    // After the head, so the head entry stays as it is.
    index->next[id] = index->next[head];
    index->next[head] = id;
  }
}

void Relation::Unlink(Index* index, uint32_t id) {
  const Value& key = Key(id, index->attr);
  const uint32_t head = Head(*index, key);
  IdArray& next = index->next;
  if (head == id) {
    if (next[id] == RowStore::kNone) {
      index->heads.Erase(key.Hash(), id);
    } else {
      index->heads.Replace(key.Hash(), id, next[id]);
    }
    return;
  }
  uint32_t prev = head;
  while (next[prev] != id) prev = next[prev];
  next[prev] = next[id];
}

template <typename T>
void CountedRelation::AddRow(T&& tuple, int64_t count) {
  MVIEW_CHECK(tuple.size() == schema_.size(), "tuple arity ", tuple.size(),
              " does not match scheme ", schema_.ToString());
  if (count == 0) return;
  const auto [id, inserted] = rows_.Insert(std::forward<T>(tuple));
  const int64_t c = (inserted ? 0 : CountOf(id)) + count;
  if (c < 0) {
    const std::string row = rows_.Row(id).ToString();
    if (inserted) rows_.Erase(id);
    MVIEW_CHECK(c >= 0, "multiplicity of ", row, " went negative");
  }
  total_ += count;
  if (c == 0) {
    rows_.Erase(id);
  } else {
    SetCount(id, c);
  }
}

void CountedRelation::Add(const Tuple& tuple, int64_t count) {
  AddRow(tuple, count);
}

void CountedRelation::Add(Tuple&& tuple, int64_t count) {
  AddRow(std::move(tuple), count);
}

int64_t CountedRelation::Count(const Tuple& tuple) const {
  const uint32_t id = rows_.Find(tuple);
  return id == RowStore::kNone ? 0 : CountOf(id);
}

void CountedRelation::CancelWith(CountedRelation* other) {
  MVIEW_CHECK(other != nullptr, "null relation");
  if (empty() || other->empty()) return;
  // Probe with the smaller side; erasing the visited row is allowed.
  CountedRelation& small = size() <= other->size() ? *this : *other;
  CountedRelation& large = &small == this ? *other : *this;
  small.rows_.ForEach([&](uint32_t id) {
    const uint32_t hit = large.rows_.Find(small.rows_.Row(id));
    if (hit == RowStore::kNone) return;
    const int64_t mine = small.CountOf(id);
    const int64_t theirs = large.CountOf(hit);
    const int64_t c = std::min(mine, theirs);
    small.total_ -= c;
    large.total_ -= c;
    if (theirs == c) {
      large.rows_.Erase(hit);
    } else {
      large.SetCount(hit, theirs - c);
    }
    if (mine == c) {
      small.rows_.Erase(id);
    } else {
      small.SetCount(id, mine - c);
    }
  });
}

void CountedRelation::Clear() {
  rows_.Clear();
  total_ = 0;
}

std::vector<std::pair<Tuple, int64_t>> CountedRelation::ToSortedVector()
    const {
  std::vector<std::pair<Tuple, int64_t>> out;
  out.reserve(size());
  Scan([&](const Tuple& t, int64_t c) { out.emplace_back(t, c); });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool CountedRelation::SameContents(const CountedRelation& other) const {
  if (size() != other.size()) return false;
  bool same = true;
  rows_.ForEach([&](uint32_t id) {
    if (same && other.Count(rows_.Row(id)) != CountOf(id)) same = false;
  });
  return same;
}

std::string CountedRelation::ToString() const {
  std::ostringstream os;
  for (const auto& [t, c] : ToSortedVector()) {
    os << t.ToString() << " x" << c << "\n";
  }
  return os.str();
}

}  // namespace mview
