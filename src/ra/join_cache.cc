#include "ra/join_cache.h"

#include <algorithm>

#include "util/error.h"
#include "util/fault.h"

namespace mview {

size_t JoinStateCache::ApproxRowBytes(const Tuple& tuple) {
  // One copy in Table::rows plus one key copy in the reverse map, each a
  // `Tuple` handle and the heap bytes it owns (its value array and
  // out-of-line strings), plus container node overhead.  The budget is a
  // coarse bound, not an allocator audit.
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
    const uint32_t slot = it->first;
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
      current->deletes->Scan([&](const Tuple& t) { RemoveRow(&entry, t); });
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
    const SlotUpdate& slot = slots_[key];
    if (slot.inserts != nullptr) {
      slot.inserts->Scan([&](const Tuple& t) { AddRow(&entry, t); });
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

PlannerCache::Table* JoinStateCache::Lookup(uint32_t slot) {
  if (!round_active_) return nullptr;
  auto it = entries_.find(slot);
  if (it == entries_.end() || !it->second->complete) return nullptr;
  ++counters_.hits;
  it->second->last_used = ++tick_;
  return &it->second->table;
}

PlannerCache::Table* JoinStateCache::Install(uint32_t slot,
                                             const Schema& schema,
                                             const std::vector<Atom>& filters) {
  if (!round_active_ || slot >= slots_.size()) return nullptr;
  ++counters_.misses;
  auto& entry_ptr = entries_[slot];
  if (entry_ptr != nullptr) bytes_ -= entry_ptr->bytes;
  entry_ptr = std::make_unique<Entry>();
  Entry& entry = *entry_ptr;
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

void JoinStateCache::CompleteInstall(uint32_t slot) {
  auto it = entries_.find(slot);
  MVIEW_CHECK(it != entries_.end(), "CompleteInstall without Install");
  Entry& entry = *it->second;
  entry.bytes = 256;  // fixed per-entry overhead
  for (size_t i = 0; i < entry.table.rows.size(); ++i) {
    entry.bytes += ApproxRowBytes(entry.table.rows[i].first);
    entry.row_of[entry.table.rows[i].first] = i;
  }
  entry.complete = true;
  bytes_ += entry.bytes;
  EvictToBudget(&entry);
}

void JoinStateCache::AddRow(Entry* entry, const Tuple& tuple) {
  for (const Atom& atom : entry->filters) {
    if (!atom.Evaluate(entry->schema, tuple)) return;
  }
  entry->row_of[tuple] = entry->table.AddRow(tuple, 1);
  const size_t row_bytes = ApproxRowBytes(tuple);
  entry->bytes += row_bytes;
  bytes_ += row_bytes;
  ++counters_.delta_rows;
}

void JoinStateCache::RemoveRow(Entry* entry, const Tuple& tuple) {
  auto hit = entry->row_of.find(tuple);
  if (hit == entry->row_of.end()) return;  // filtered out at build
  const size_t row = hit->second;
  entry->row_of.erase(hit);

  // Swap-remove; redirect the moved last row's reverse-map slot.
  PlannerCache::Table& table = entry->table;
  auto& rows = table.rows;
  const size_t last = rows.size() - 1;
  if (row != last) {
    entry->row_of[rows[last].first] = row;
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
