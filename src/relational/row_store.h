#ifndef MVIEW_RELATIONAL_ROW_STORE_H_
#define MVIEW_RELATIONAL_ROW_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "relational/tuple.h"

namespace mview {

/// Bytes held by one or more row stores (a relation's rows, lookup table
/// and indexes): `mapped` is what the stores mapped themselves, and `live`
/// the slot bytes of the rows stored.
struct RowStoreBytes {
  int64_t mapped = 0;
  int64_t live = 0;

  RowStoreBytes& operator+=(const RowStoreBytes& other) {
    mapped += other.mapped;
    live += other.live;
    return *this;
  }
};

/// Store memory: the blocks row stores keep rows and tables in.  A block
/// smaller than `kMapBytes` comes from `operator new`; a larger one is
/// mapped and unmapped by the store itself, so it goes back to the system
/// the moment it is freed, whichever thread allocated it.  (Going through
/// `operator new` is not enough: glibc raises its mmap threshold to the
/// size of any mapped block it frees, and later large blocks then land in
/// the allocating thread's arena, which keeps them resident.)
namespace row_memory {

inline constexpr size_t kMapBytes = size_t{16} << 10;

/// A block of at least `bytes` bytes, 16-byte aligned.
void* Allocate(size_t bytes);

/// Frees a block `Allocate` returned for the same `bytes`.
void Free(void* block, size_t bytes) noexcept;

/// The bytes mapped for a block of `bytes` bytes: whole pages, or 0 for a
/// block taken from `operator new`.
int64_t MappedSize(size_t bytes);

/// Bytes currently mapped by every row store in the process.
int64_t MappedBytes();

}  // namespace row_memory

/// An open-addressing hash table of 32-bit slot ids.  It stores no keys:
/// a lookup passes the key's hash and a predicate that compares the row
/// an id names, and the table compares a 7-bit tag of the hash first, so
/// a probe almost never touches a row that does not match.  Erase leaves
/// a tombstone; the table rehashes (growing, or shrinking when most
/// entries are tombstones) once live and dead entries fill 7/8 of it.
/// Rehashing asks `hash_of(id)` for each live entry's hash.
class IdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  IdTable() = default;
  IdTable(const IdTable& other);
  IdTable(IdTable&& other) noexcept { Swap(other); }
  IdTable& operator=(IdTable other) noexcept {
    Swap(other);
    return *this;
  }
  ~IdTable() { Release(); }

  size_t size() const { return size_; }

  /// The id whose entry matches `hash` and satisfies `match(id)`, or
  /// `kNone`.
  template <typename Match>
  uint32_t Find(uint64_t hash, Match&& match) const {
    if (capacity_ == 0) return kNone;
    const uint64_t mixed = Mix(hash);
    const uint8_t tag = Tag(mixed);
    for (size_t i = Home(mixed);; i = (i + 1) & (capacity_ - 1)) {
      const uint8_t c = ctrl_[i];
      if (c == kEmpty) return kNone;
      if (c == tag && match(ids_[i])) return ids_[i];
    }
  }

  /// Adds `id`, which must not be present, under `hash`.
  template <typename HashOf>
  void Insert(uint64_t hash, uint32_t id, HashOf&& hash_of) {
    if ((used_ + 1) * 8 > capacity_ * 7) {
      Rehash(CapacityFor(size_ + 1), hash_of);
    }
    Place(Mix(hash), id);
    ++size_;
  }

  /// Removes the entry of `id`, which must be present under `hash`.
  void Erase(uint64_t hash, uint32_t id);

  /// Points the entry of `old_id` (present under `hash`) at `new_id`.
  void Replace(uint64_t hash, uint32_t old_id, uint32_t new_id) {
    ids_[Locate(hash, old_id)] = new_id;
  }

  /// Sizes the table so it holds `n` entries without a rehash.
  template <typename HashOf>
  void Reserve(size_t n, HashOf&& hash_of) {
    if ((used_ - size_ + n) * 8 > capacity_ * 7) {
      Rehash(CapacityFor(n), hash_of);
    }
  }

  /// Bytes mapped for the table's block (0 when it is not mapped).
  int64_t mapped_bytes() const { return row_memory::MappedSize(Bytes()); }

 private:
  static constexpr uint8_t kEmpty = 0x80;
  static constexpr uint8_t kDeleted = 0xfe;

  static uint64_t Mix(uint64_t h) {
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 32);
  }
  // The tag comes from the top bits and the home entry from the bottom
  // ones, so rows that share a home entry rarely share a tag.
  static uint8_t Tag(uint64_t mixed) { return mixed >> 57; }
  size_t Home(uint64_t mixed) const { return mixed & (capacity_ - 1); }
  // The smallest power-of-two capacity (at least 16) that holds `n`
  // entries at most half full.
  static size_t CapacityFor(size_t n);
  size_t Bytes() const { return capacity_ * (sizeof(uint32_t) + 1); }

  // Writes `id` into the first free entry of its probe sequence.
  void Place(uint64_t mixed, uint32_t id);
  // The index of `id`'s entry, which must be present under `hash`.
  size_t Locate(uint64_t hash, uint32_t id) const;

  template <typename HashOf>
  void Rehash(size_t capacity, HashOf& hash_of) {
    IdTable next;
    next.Allocate(capacity);
    for (size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] & 0x80) continue;  // empty or deleted
      next.Place(Mix(hash_of(ids_[i])), ids_[i]);
    }
    next.size_ = size_;
    Swap(next);
  }

  void Allocate(size_t capacity);
  void Release() noexcept;
  void Swap(IdTable& other) noexcept {
    std::swap(ids_, other.ids_);
    std::swap(ctrl_, other.ctrl_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
    std::swap(used_, other.used_);
  }

  // One block: `capacity_` ids, then `capacity_` control bytes (empty,
  // deleted, or the 7-bit tag of a live entry).
  uint32_t* ids_ = nullptr;
  uint8_t* ctrl_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;  // live entries
  size_t used_ = 0;  // live entries plus tombstones
};

/// A growable array of 32-bit ids, one per row slot (an index's chain
/// links), in store memory.
class IdArray {
 public:
  IdArray() = default;
  IdArray(const IdArray& other);
  IdArray(IdArray&& other) noexcept { Swap(other); }
  IdArray& operator=(IdArray other) noexcept {
    Swap(other);
    return *this;
  }
  ~IdArray() { Release(); }

  uint32_t& operator[](uint32_t i) { return data_[i]; }
  uint32_t operator[](uint32_t i) const { return data_[i]; }

  /// Makes `operator[]` valid for every index below `n`.
  void Cover(size_t n) {
    if (n > size_) Grow(n);
  }

  /// Bytes mapped for the array's block (0 when it is not mapped).
  int64_t mapped_bytes() const {
    return row_memory::MappedSize(size_ * sizeof(uint32_t));
  }

 private:
  void Grow(size_t n);
  void Release() noexcept;
  void Swap(IdArray& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

/// The rows of one relation, each stored once, in slots of store memory.
///
/// A slot is a borrowed `Tuple` header, `extra_bytes` of per-row payload
/// (a counted relation's multiplicity), then the row's values:
///
///     [ Tuple header: data, size ][ extra ][ value 0 ] ... [ value n-1 ]
///
/// The header points at the slot's own values, so the `const Tuple&` a
/// store hands out — and every view into its values — stays valid exactly
/// as long as the row is stored.  Copying that tuple yields an owning one.
///
/// Slots live in chunks whose slot counts ramp up 16, 16, 32, 64, ... to
/// a cap of about 512 KiB a chunk; each chunk starts with a bitmap of its
/// live slots, which `ForEach` walks.  An erased slot goes on a free list
/// and is reused by the next insert.  A hash table of slot ids (`IdTable`)
/// finds a row by value.  Chunks and table are store memory, so a store
/// of up to 64 rows maps nothing, and a large one gives back every mapped
/// byte when it is cleared or destroyed.
///
/// Under AddressSanitizer a free or never-used slot is poisoned, so a
/// read through a reference to an erased row is reported.
class RowStore {
 public:
  static constexpr uint32_t kNone = IdTable::kNone;

  RowStore(size_t arity, size_t extra_bytes);
  RowStore(const RowStore& other);
  RowStore(RowStore&& other) noexcept;
  RowStore& operator=(const RowStore& other);
  RowStore& operator=(RowStore&& other) noexcept;
  ~RowStore() { Release(); }

  size_t size() const { return table_.size(); }

  /// Ids are below this bound (the slots handed out so far).
  uint32_t id_bound() const { return fresh_; }

  /// The id of the stored row equal to `tuple`, or `kNone`.
  uint32_t Find(const Tuple& tuple) const {
    return table_.Find(tuple.Hash(),
                       [&](uint32_t id) { return Row(id) == tuple; });
  }

  /// Stores `tuple` unless an equal row is stored; returns the row's id
  /// and whether it was inserted.  The rvalue form moves the values in.
  std::pair<uint32_t, bool> Insert(const Tuple& tuple);
  std::pair<uint32_t, bool> Insert(Tuple&& tuple);

  /// Removes the row `id` and recycles its slot.
  void Erase(uint32_t id);

  /// Removes every row and frees every block.
  void Clear();

  /// Sizes the lookup table for `n` rows.
  void Reserve(size_t n);

  const Tuple& Row(uint32_t id) const {
    return *reinterpret_cast<const Tuple*>(Slot(id));
  }
  char* Extra(uint32_t id) { return Slot(id) + sizeof(Tuple); }
  const char* Extra(uint32_t id) const { return Slot(id) + sizeof(Tuple); }

  /// Calls `fn(id)` for every stored row, in slot order.  `fn` may erase
  /// the row it is given (and no other).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t k = 0; k < chunks_.size(); ++k) {
      const uint32_t first = ChunkFirst(k);
      const uint64_t* bits = chunks_[k].bits;
      const uint32_t words = (ChunkCapacity(k) + 63) / 64;
      for (uint32_t w = 0; w < words; ++w) {
        for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
          fn(first + w * 64 + static_cast<uint32_t>(__builtin_ctzll(word)));
        }
      }
    }
  }

  /// The bytes this store maps and the slot bytes of its rows.
  RowStoreBytes bytes() const;

 private:
  struct Chunk {
    uint64_t* bits = nullptr;  // the live-slot bitmap, then the slots
    char* slots = nullptr;
  };

  // The ramp: chunk 0 and 1 hold 16 slots, each later chunk twice the
  // one before, up to `1 << chunk_shift_` slots from chunk `ramp_top_` on.
  uint32_t ChunkCapacity(uint32_t k) const {
    return k == 0 ? 16 : k >= ramp_top_ ? 1u << chunk_shift_ : 16u << (k - 1);
  }
  uint32_t ChunkFirst(uint32_t k) const {
    return k == 0 ? 0
           : k < ramp_top_ ? 16u << (k - 1)
                           : (k - ramp_top_ + 1) << chunk_shift_;
  }
  size_t ChunkBytes(uint32_t k) const {
    const uint32_t capacity = ChunkCapacity(k);
    return (capacity + 63) / 64 * sizeof(uint64_t) + capacity * slot_bytes_;
  }
  // The chunk holding `id`, and the id's offset in it.
  std::pair<uint32_t, uint32_t> Locate(uint32_t id) const {
    if (id < 16) return {0, id};
    if ((id >> chunk_shift_) == 0) {
      const int width = 32 - __builtin_clz(id);  // 5 for ids 16..31
      return {width - 4, id - (1u << (width - 1))};
    }
    return {ramp_top_ + (id >> chunk_shift_) - 1,
            id & ((1u << chunk_shift_) - 1)};
  }
  char* Slot(uint32_t id) const {
    const auto [k, off] = Locate(id);
    return chunks_[k].slots + size_t{off} * slot_bytes_;
  }
  Value* Values(uint32_t id) const {
    return reinterpret_cast<Value*>(Slot(id) + sizeof(Tuple) + extra_bytes_);
  }
  bool IsLive(uint32_t id) const;
  void SetLive(uint32_t id, bool live);

  // Takes a slot (recycled, else fresh) for a new row.
  uint32_t AllocateSlot();
  // Puts a slot whose values are destroyed on the free list.
  void FreeSlot(uint32_t id);
  // Marks a slot whose values are constructed live and places its header.
  void Publish(uint32_t id);
  // Indexes a published row; on failure unpublishes it and rethrows.
  void Index(uint64_t hash, uint32_t id);
  void AddChunk();
  void Release() noexcept;
  void Swap(RowStore& other) noexcept;

  size_t arity_;
  size_t extra_bytes_;
  size_t slot_bytes_;
  uint32_t chunk_shift_;  // log2 of the slots in a chunk past the ramp
  uint32_t ramp_top_;     // the first chunk of `1 << chunk_shift_` slots
  std::vector<Chunk> chunks_;
  uint32_t capacity_ = 0;  // slots in `chunks_`
  uint32_t fresh_ = 0;     // next never-used id
  uint32_t free_ = kNone;  // head of the free-slot list
  IdTable table_;
};

}  // namespace mview

#endif  // MVIEW_RELATIONAL_ROW_STORE_H_
