#include "ra/join_cache.h"

#include <algorithm>

#include "relational/partition.h"
#include "util/error.h"
#include "util/fault.h"

namespace mview {

bool JoinStateCache::InPartition(uint32_t slot, const Tuple& tuple) const {
  if (spec_.total <= 1) return true;
  if (slot >= spec_.slot_key_attr.size()) return true;
  return PartitionOf(tuple, spec_.slot_key_attr[slot], spec_.total) ==
         spec_.slice;
}

size_t JoinStateCache::ApproxRowBytes(const Tuple& tuple) {
  // One copy in Table::rows plus (roughly) one key copy in the hash index
  // or the keyless reverse map, each a `Tuple` handle and the heap bytes
  // it owns (its value array and out-of-line strings), plus container node
  // overhead.  The budget is a coarse knob, not an allocator audit.
  return 2 * (sizeof(Tuple) + tuple.HeapBytes()) + 64;
}

void JoinStateCache::BeginRound(std::vector<SlotUpdate> slots) {
  if (round_active_) AbortRound();
  slots_ = std::move(slots);
  round_active_ = true;
  // Fires with the round open: a failure here models a crash mid-repair
  // (entries partially synchronized) and exercises the maintainer's
  // round guard, which must abort the round so the next one rebuilds cold.
  MVIEW_FAULT_POINT("joincache.repair");

  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = *it->second;
    const uint32_t slot = it->first.first;
    const SlotUpdate* current =
        slot < slots_.size() ? &slots_[slot] : nullptr;
    const bool stale = entry.inround || !entry.complete ||
                       current == nullptr || entry.uid != current->uid ||
                       entry.version != current->version;
    if (stale) {
      bytes_ -= entry.bytes;
      it = entries_.erase(it);
      continue;
    }
    // Apply the round's deletes so the entry mirrors the clean pre-state
    // `r − d` the planner's clean inputs stream.
    if (current->deletes != nullptr && !current->deletes->empty()) {
      entry.inround = true;
      // The partition filter here is an optimization only: RemoveRow
      // tolerates absent rows, and an out-of-partition tuple was never
      // added.  The EndRound insert filter is load-bearing.
      current->deletes->Scan([&](const Tuple& t) {
        if (InPartition(slot, t)) RemoveRow(&entry, t);
      });
    } else if (current->inserts != nullptr && !current->inserts->empty()) {
      entry.inround = true;  // inserts pending at EndRound
    }
    ++it;
  }
}

void JoinStateCache::EndRound() {
  if (!round_active_) return;
  for (auto& [key, entry_ptr] : entries_) {
    Entry& entry = *entry_ptr;
    if (!entry.inround) continue;
    const SlotUpdate& slot = slots_[key.first];
    if (slot.inserts != nullptr) {
      // A partitioned shard must not absorb another shard's rows: AddRow
      // only sees the entry's local filters, so the partition membership
      // check here is required for correctness.
      slot.inserts->Scan([&](const Tuple& t) {
        if (InPartition(key.first, t)) AddRow(&entry, t);
      });
    }
    // Normalized effects satisfy deletes ⊆ r and inserts ∩ r = ∅, so every
    // applied tuple bumps the relation's version exactly once.
    entry.version = slot.version +
                    (slot.deletes != nullptr ? slot.deletes->size() : 0) +
                    (slot.inserts != nullptr ? slot.inserts->size() : 0);
    entry.inround = false;
  }
  round_active_ = false;
  slots_.clear();
  EvictToBudget(nullptr);
}

void JoinStateCache::AbortRound() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& entry = *it->second;
    if (entry.inround || !entry.complete) {
      bytes_ -= entry.bytes;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  round_active_ = false;
  slots_.clear();
}

bool JoinStateCache::Peek(uint32_t slot,
                          const std::vector<size_t>& key_attrs) const {
  if (!round_active_) return false;
  auto it = entries_.find(Key{slot, key_attrs});
  return it != entries_.end() && it->second->complete;
}

PlannerCache::Table* JoinStateCache::Lookup(
    uint32_t slot, const std::vector<size_t>& key_attrs) {
  if (!round_active_) return nullptr;
  auto it = entries_.find(Key{slot, key_attrs});
  if (it == entries_.end() || !it->second->complete) return nullptr;
  ++counters_.hits;
  it->second->last_used = ++tick_;
  return &it->second->table;
}

PlannerCache::Table* JoinStateCache::Install(
    uint32_t slot, const std::vector<size_t>& key_attrs, const Schema& schema,
    const std::vector<Atom>& filters) {
  if (!round_active_ || slot >= slots_.size()) return nullptr;
  ++counters_.misses;
  auto& entry_ptr = entries_[Key{slot, key_attrs}];
  if (entry_ptr != nullptr) bytes_ -= entry_ptr->bytes;
  entry_ptr = std::make_unique<Entry>();
  Entry& entry = *entry_ptr;
  entry.table.key_attrs = key_attrs;
  entry.schema = schema;
  entry.filters = filters;
  const SlotUpdate& current = slots_[slot];
  entry.uid = current.uid;
  entry.version = current.version;
  // A table built during the round holds the clean state `r − d`; it still
  // needs the round's inserts (and the post-version stamp) at EndRound
  // whenever the slot was touched.
  entry.inround =
      (current.deletes != nullptr && !current.deletes->empty()) ||
      (current.inserts != nullptr && !current.inserts->empty());
  entry.last_used = ++tick_;
  return &entry.table;
}

void JoinStateCache::CompleteInstall(uint32_t slot,
                                     const std::vector<size_t>& key_attrs) {
  auto it = entries_.find(Key{slot, key_attrs});
  MVIEW_CHECK(it != entries_.end(), "CompleteInstall without Install");
  Entry& entry = *it->second;
  entry.bytes = 256;  // fixed per-entry overhead
  for (size_t i = 0; i < entry.table.rows.size(); ++i) {
    entry.bytes += ApproxRowBytes(entry.table.rows[i].first);
    if (key_attrs.empty()) entry.row_of[entry.table.rows[i].first] = i;
  }
  entry.complete = true;
  bytes_ += entry.bytes;
  EvictToBudget(&entry);
}

void JoinStateCache::AddRow(Entry* entry, const Tuple& tuple) {
  for (const Atom& atom : entry->filters) {
    if (!atom.Evaluate(entry->schema, tuple)) return;
  }
  const size_t row = entry->table.AddRow(tuple, 1);
  if (entry->table.key_attrs.empty()) entry->row_of[tuple] = row;
  const size_t row_bytes = ApproxRowBytes(tuple);
  entry->bytes += row_bytes;
  bytes_ += row_bytes;
  ++counters_.delta_rows;
}

void JoinStateCache::RemoveRow(Entry* entry, const Tuple& tuple) {
  PlannerCache::Table& table = entry->table;
  auto& rows = table.rows;
  const bool keyed = !table.key_attrs.empty();
  size_t row = rows.size();
  if (keyed) {
    table.WithKeyIndex(tuple, [&](auto& index, const auto& key) {
      auto hit = index.find(key);
      if (hit == index.end()) return;  // filtered out at build
      auto& bucket = hit->second;
      auto pos = std::find_if(bucket.begin(), bucket.end(), [&](size_t i) {
        return rows[i].first == tuple;
      });
      if (pos == bucket.end()) return;  // filtered out at build
      row = *pos;
      bucket.erase(pos);
      if (bucket.empty()) index.erase(hit);
    });
  } else if (auto hit = entry->row_of.find(tuple); hit != entry->row_of.end()) {
    row = hit->second;
    entry->row_of.erase(hit);
  }
  if (row == rows.size()) return;  // filtered out at build

  // Swap-remove; redirect references to the moved last row.
  const size_t last = rows.size() - 1;
  if (row != last) {
    const Tuple& moved = rows[last].first;
    if (keyed) {
      table.WithKeyIndex(moved, [&](auto& index, const auto& key) {
        auto& bucket = index[key];
        std::replace(bucket.begin(), bucket.end(), last, row);
      });
    } else {
      entry->row_of[moved] = row;
    }
    rows[row] = std::move(rows[last]);
  }
  rows.pop_back();
  if (table.all_int) {
    auto& ir = table.int_rows;
    const size_t stride = entry->schema.size();
    if (row != last) {
      std::copy(ir.begin() + static_cast<ptrdiff_t>(last * stride),
                ir.begin() + static_cast<ptrdiff_t>((last + 1) * stride),
                ir.begin() + static_cast<ptrdiff_t>(row * stride));
    }
    ir.resize(last * stride);
  }
  const size_t row_bytes = ApproxRowBytes(tuple);
  entry->bytes -= std::min(entry->bytes, row_bytes);
  bytes_ -= std::min(bytes_, row_bytes);
  ++counters_.delta_rows;
}

void JoinStateCache::EvictToBudget(const Entry* keep) {
  while (bytes_ > budget_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& entry = *it->second;
      // In-round entries may still be served to the current round (and the
      // just-installed table's pointer is live in the planner), so only
      // settled entries are evictable.
      if (entry.inround || !entry.complete || it->second.get() == keep) {
        continue;
      }
      if (victim == entries_.end() ||
          entry.last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    bytes_ -= victim->second->bytes;
    ++counters_.evictions;
    entries_.erase(victim);
  }
}

}  // namespace mview
