#include "relational/row_store.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <new>

#include "util/error.h"

namespace mview {
namespace row_memory {
namespace {

std::atomic<int64_t> mapped_bytes{0};

size_t PageRound(size_t bytes) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

bool IsMapped(size_t bytes) { return bytes >= kMapBytes; }

}  // namespace

void* Allocate(size_t bytes) {
  if (!IsMapped(bytes)) return ::operator new(bytes);
  const size_t size = PageRound(bytes);
  void* block = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  mapped_bytes.fetch_add(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
  return block;
}

void Free(void* block, size_t bytes) noexcept {
  // Slots are poisoned while free; the memory's next owner starts clean.
  ASAN_UNPOISON_MEMORY_REGION(block, bytes);
  if (!IsMapped(bytes)) {
    ::operator delete(block);
    return;
  }
  const size_t size = PageRound(bytes);
  munmap(block, size);
  mapped_bytes.fetch_sub(static_cast<int64_t>(size),
                         std::memory_order_relaxed);
}

int64_t MappedSize(size_t bytes) {
  return IsMapped(bytes) ? static_cast<int64_t>(PageRound(bytes)) : 0;
}

int64_t MappedBytes() { return mapped_bytes.load(std::memory_order_relaxed); }

}  // namespace row_memory

// ---- IdTable ----------------------------------------------------------------

IdTable::IdTable(const IdTable& other) {
  if (other.capacity_ == 0) return;
  Allocate(other.capacity_);
  std::memcpy(ids_, other.ids_, capacity_ * sizeof(uint32_t));
  std::memcpy(ctrl_, other.ctrl_, capacity_);
  size_ = other.size_;
  used_ = other.used_;
}

size_t IdTable::CapacityFor(size_t n) {
  size_t capacity = 16;
  while (capacity < 2 * n) capacity <<= 1;
  return capacity;
}

void IdTable::Allocate(size_t capacity) {
  MVIEW_CHECK(capacity <= (size_t{1} << 32), "row table too large");
  capacity_ = capacity;
  ids_ = static_cast<uint32_t*>(row_memory::Allocate(Bytes()));
  ctrl_ = reinterpret_cast<uint8_t*>(ids_ + capacity);
  std::memset(ctrl_, kEmpty, capacity);
  size_ = used_ = 0;
}

void IdTable::Release() noexcept {
  if (ids_ == nullptr) return;
  row_memory::Free(ids_, Bytes());
  ids_ = nullptr;
  ctrl_ = nullptr;
}

void IdTable::Place(uint64_t mixed, uint32_t id) {
  size_t i = Home(mixed);
  while ((ctrl_[i] & 0x80) == 0) i = (i + 1) & (capacity_ - 1);
  if (ctrl_[i] == kEmpty) ++used_;
  ctrl_[i] = Tag(mixed);
  ids_[i] = id;
}

size_t IdTable::Locate(uint64_t hash, uint32_t id) const {
  const uint64_t mixed = Mix(hash);
  const uint8_t tag = Tag(mixed);
  for (size_t i = Home(mixed);; i = (i + 1) & (capacity_ - 1)) {
    MVIEW_CHECK(ctrl_[i] != kEmpty, "row id ", id, " is not in its table");
    if (ctrl_[i] == tag && ids_[i] == id) return i;
  }
}

void IdTable::Erase(uint64_t hash, uint32_t id) {
  const size_t i = Locate(hash, id);
  // An entry right before an empty one ends every probe sequence through
  // it, so it can become empty instead of a tombstone.
  if (ctrl_[(i + 1) & (capacity_ - 1)] == kEmpty) {
    ctrl_[i] = kEmpty;
    --used_;
  } else {
    ctrl_[i] = kDeleted;
  }
  --size_;
}

// ---- IdArray ----------------------------------------------------------------

IdArray::IdArray(const IdArray& other) {
  if (other.size_ == 0) return;
  Grow(other.size_);
  std::memcpy(data_, other.data_, size_ * sizeof(uint32_t));
}

void IdArray::Grow(size_t n) {
  size_t size = size_ < 16 ? 16 : size_;
  while (size < n) size *= 2;
  auto* data =
      static_cast<uint32_t*>(row_memory::Allocate(size * sizeof(uint32_t)));
  if (size_ > 0) std::memcpy(data, data_, size_ * sizeof(uint32_t));
  Release();
  data_ = data;
  size_ = size;
}

void IdArray::Release() noexcept {
  if (data_ == nullptr) return;
  row_memory::Free(data_, size_ * sizeof(uint32_t));
  data_ = nullptr;
}

// ---- RowStore ---------------------------------------------------------------

namespace {

// Slots a chunk holds once the ramp tops out: the largest power of two
// whose slots fit 512 KiB, and at least 16.
uint32_t ChunkShift(size_t slot_bytes) {
  uint32_t shift = 4;
  while (shift < 24 && (slot_bytes << (shift + 1)) <= (size_t{512} << 10)) {
    ++shift;
  }
  return shift;
}

}  // namespace

RowStore::RowStore(size_t arity, size_t extra_bytes)
    : arity_(arity),
      extra_bytes_(extra_bytes),
      slot_bytes_(sizeof(Tuple) + extra_bytes + arity * sizeof(Value)),
      chunk_shift_(ChunkShift(slot_bytes_)),
      ramp_top_(chunk_shift_ - 3) {
  MVIEW_CHECK(extra_bytes % alignof(Value) == 0,
              "row payload must keep values aligned");
}

RowStore::RowStore(const RowStore& other)
    : RowStore(other.arity_, other.extra_bytes_) {
  // Same chunks and same ids, so the lookup table copies verbatim.
  while (capacity_ < other.capacity_) AddChunk();
  fresh_ = other.fresh_;
  other.ForEach([&](uint32_t id) {
    ASAN_UNPOISON_MEMORY_REGION(Slot(id), slot_bytes_);
    std::uninitialized_copy_n(other.Values(id), arity_, Values(id));
    std::memcpy(Extra(id), other.Extra(id), extra_bytes_);
    Publish(id);
  });
  for (uint32_t id = fresh_; id-- > 0;) {
    if (!IsLive(id)) FreeSlot(id);
  }
  table_ = other.table_;
}

RowStore::RowStore(RowStore&& other) noexcept
    : RowStore(other.arity_, other.extra_bytes_) {
  Swap(other);
}

RowStore& RowStore::operator=(const RowStore& other) {
  if (this != &other) {
    RowStore copy(other);
    Swap(copy);
  }
  return *this;
}

RowStore& RowStore::operator=(RowStore&& other) noexcept {
  if (this != &other) {
    RowStore taken(std::move(other));
    Swap(taken);
  }
  return *this;
}

void RowStore::Swap(RowStore& other) noexcept {
  std::swap(arity_, other.arity_);
  std::swap(extra_bytes_, other.extra_bytes_);
  std::swap(slot_bytes_, other.slot_bytes_);
  std::swap(chunk_shift_, other.chunk_shift_);
  std::swap(ramp_top_, other.ramp_top_);
  std::swap(chunks_, other.chunks_);
  std::swap(capacity_, other.capacity_);
  std::swap(fresh_, other.fresh_);
  std::swap(free_, other.free_);
  std::swap(table_, other.table_);
}

std::pair<uint32_t, bool> RowStore::Insert(const Tuple& tuple) {
  const uint64_t hash = tuple.Hash();
  uint32_t id =
      table_.Find(hash, [&](uint32_t i) { return Row(i) == tuple; });
  if (id != kNone) return {id, false};
  id = AllocateSlot();
  try {
    std::uninitialized_copy_n(tuple.values().data(), arity_, Values(id));
  } catch (...) {
    FreeSlot(id);
    throw;
  }
  Publish(id);
  Index(hash, id);
  return {id, true};
}

std::pair<uint32_t, bool> RowStore::Insert(Tuple&& tuple) {
  const uint64_t hash = tuple.Hash();
  uint32_t id =
      table_.Find(hash, [&](uint32_t i) { return Row(i) == tuple; });
  if (id != kNone) return {id, false};
  id = AllocateSlot();
  std::span<Value> values = tuple.mutable_values();
  std::uninitialized_move_n(values.data(), arity_, Values(id));
  Publish(id);
  Index(hash, id);
  return {id, true};
}

void RowStore::Index(uint64_t hash, uint32_t id) {
  try {
    table_.Insert(hash, id, [this](uint32_t i) { return Row(i).Hash(); });
  } catch (...) {
    SetLive(id, false);
    std::destroy_n(Values(id), arity_);
    FreeSlot(id);
    throw;
  }
}

void RowStore::Erase(uint32_t id) {
  table_.Erase(Row(id).Hash(), id);
  SetLive(id, false);
  std::destroy_n(Values(id), arity_);
  FreeSlot(id);
}

void RowStore::Clear() {
  RowStore empty(arity_, extra_bytes_);
  Swap(empty);
}

void RowStore::Reserve(size_t n) {
  table_.Reserve(n, [this](uint32_t i) { return Row(i).Hash(); });
}

bool RowStore::IsLive(uint32_t id) const {
  const auto [k, off] = Locate(id);
  return (chunks_[k].bits[off / 64] >> (off % 64)) & 1;
}

void RowStore::SetLive(uint32_t id, bool live) {
  const auto [k, off] = Locate(id);
  const uint64_t bit = uint64_t{1} << (off % 64);
  uint64_t& word = chunks_[k].bits[off / 64];
  word = live ? word | bit : word & ~bit;
}

uint32_t RowStore::AllocateSlot() {
  if (free_ != kNone) {
    const uint32_t id = free_;
    char* slot = Slot(id);
    ASAN_UNPOISON_MEMORY_REGION(slot, slot_bytes_);
    std::memcpy(&free_, slot, sizeof(free_));
    return id;
  }
  MVIEW_CHECK(fresh_ < kNone, "row store full");
  if (fresh_ == capacity_) AddChunk();
  const uint32_t id = fresh_++;
  ASAN_UNPOISON_MEMORY_REGION(Slot(id), slot_bytes_);
  return id;
}

void RowStore::FreeSlot(uint32_t id) {
  char* slot = Slot(id);
  ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(free_));
  std::memcpy(slot, &free_, sizeof(free_));
  free_ = id;
  ASAN_POISON_MEMORY_REGION(slot, slot_bytes_);
}

void RowStore::Publish(uint32_t id) {
  new (Slot(id)) Tuple(Values(id), static_cast<uint32_t>(arity_),
                       Tuple::Borrowed{});
  SetLive(id, true);
}

void RowStore::AddChunk() {
  const uint32_t k = static_cast<uint32_t>(chunks_.size());
  const uint32_t capacity = ChunkCapacity(k);
  const size_t bytes = ChunkBytes(k);
  const size_t bitmap = (capacity + 63) / 64 * sizeof(uint64_t);
  Chunk& chunk = chunks_.emplace_back();
  try {
    chunk.bits = static_cast<uint64_t*>(row_memory::Allocate(bytes));
  } catch (...) {
    chunks_.pop_back();
    throw;
  }
  chunk.slots = reinterpret_cast<char*>(chunk.bits) + bitmap;
  std::memset(chunk.bits, 0, bitmap);
  ASAN_POISON_MEMORY_REGION(chunk.slots, bytes - bitmap);
  capacity_ += capacity;
}

void RowStore::Release() noexcept {
  ForEach([&](uint32_t id) { std::destroy_n(Values(id), arity_); });
  for (uint32_t k = 0; k < chunks_.size(); ++k) {
    row_memory::Free(chunks_[k].bits, ChunkBytes(k));
  }
  chunks_.clear();
  capacity_ = 0;
  fresh_ = 0;
  free_ = kNone;
}

RowStoreBytes RowStore::bytes() const {
  RowStoreBytes b;
  for (uint32_t k = 0; k < chunks_.size(); ++k) {
    b.mapped += row_memory::MappedSize(ChunkBytes(k));
  }
  b.mapped += table_.mapped_bytes();
  b.live = static_cast<int64_t>(size() * slot_bytes_);
  return b;
}

}  // namespace mview
