#include "ra/planner.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "ra/eval.h"
#include "util/arena.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/hash.h"

namespace mview {

PlanStats& PlanStats::operator+=(const PlanStats& other) {
  rows_scanned += other.rows_scanned;
  probes += other.probes;
  intermediate_tuples += other.intermediate_tuples;
  output_tuples += other.output_tuples;
  return *this;
}

PlannerCache::Table* PlannerCache::Find(const RelationInput* input,
                                        const std::vector<size_t>& key) {
  auto it = tables_.find({input, key});
  if (it == tables_.end()) return nullptr;
  // A serial mismatch means the input this entry was built from was
  // destroyed and another now occupies its address — the cache outlived
  // its inputs, which release builds would answer with freed data.
  assert(it->second->debug_serial == input->debug_serial() &&
         "PlannerCache outlived the RelationInput it indexes");
  return it->second.get();
}

PlannerCache::Table* PlannerCache::Create(const RelationInput* input,
                                          const std::vector<size_t>& key) {
  auto table = std::make_unique<Table>();
  table->key_attrs = key;
  table->debug_serial = input->debug_serial();
  Table* raw = table.get();
  tables_[{input, key}] = std::move(table);
  return raw;
}

Schema CombinedSchema(const SpjQuery& query) {
  Schema combined;
  for (const auto* input : query.inputs) {
    combined = combined.Concat(input->schema());
  }
  return combined;
}

namespace {

// The hash of a `PlannerCache::Table` key: the values' hashes folded in
// key order.  The probe side folds the same hashes from batch columns.
size_t RowKeyHash(const Tuple& t, const std::vector<size_t>& key_attrs) {
  size_t hash = 0;
  for (size_t a : key_attrs) hash = HashCombine(hash, t.at(a).Hash());
  return hash;
}

// A `DeltaSink` that hands each row to `fn(tuple, count)`, so the
// executor's scans and probes stream into lambdas on the stack.
template <typename Fn>
class FnSink final : public DeltaSink {
 public:
  explicit FnSink(Fn fn) : fn_(std::move(fn)) {}
  void Emit(const Tuple& t, int64_t count) override { fn_(t, count); }

 private:
  Fn fn_;
};

// An equality join predicate `a.attr_a = b.attr_b + offset` between two
// inputs, extracted from the condition's conjunctive core.
struct JoinPred {
  size_t input_a = 0;
  size_t attr_a = 0;  // local attribute index within input_a
  size_t input_b = 0;
  size_t attr_b = 0;
  int64_t offset = 0;
};

// A cross-input core atom enforced once all its inputs are bound.
struct StepFilter {
  Atom atom;
  size_t last_input = 0;  // the step at which the atom becomes ground
};

// A step filter of a cross-join step, split by side: one variable is an
// attribute of the step's input, read once per input row, the other a
// column of the rows in flight.  The atom reads `local op src + offset`
// when `local_is_lhs`, else `src op local + offset`.
struct CrossFilter {
  size_t src_col = 0;
  size_t local_attr = 0;
  bool local_is_lhs = false;
  CompareOp op = CompareOp::kEq;
  int64_t offset = 0;
};

// Refines `sel[0..n)`, row ids of `src`, to the rows that pass every filter
// when merged with input row `t`; returns how many remain.  Integers
// compare `x − offset` against `y`, exactly as `Atom::Evaluate` does.
size_t SelectCrossRows(const ColumnBatch& src, const Tuple& t,
                       const std::vector<CrossFilter>& filters, uint32_t* sel,
                       size_t n) {
  for (const CrossFilter& f : filters) {
    size_t kept = 0;
    if (src.column_type(f.src_col) == ValueType::kInt64) {
      const int64_t local = t.at(f.local_attr).AsInt64();
      const int64_t* col = src.ints(f.src_col);
      for (size_t i = 0; i < n; ++i) {
        const int cmp = f.local_is_lhs
                            ? CompareShifted(local, f.offset, col[sel[i]])
                            : CompareShifted(col[sel[i]], f.offset, local);
        if (EvalCompare(cmp, f.op)) sel[kept++] = sel[i];
      }
    } else {
      const std::string_view local = t.at(f.local_attr).AsString();
      const std::string_view* col = src.strs(f.src_col);
      for (size_t i = 0; i < n; ++i) {
        const int cmp = f.local_is_lhs ? local.compare(col[sel[i]])
                                       : col[sel[i]].compare(local);
        if (EvalCompare(cmp, f.op)) sel[kept++] = sel[i];
      }
    }
    n = kept;
  }
  return n;
}

// A connecting equi-join predicate at one join step: bound side expressed
// as a combined-tuple index plus the offset to apply, local side as an
// attribute of the step's input.
struct Link {
  size_t bound_combined = 0;  // index of the bound value in the partial row
  size_t local_attr = 0;
  int64_t key_offset = 0;  // probe key = bound value + key_offset
};

class SpjExecutor {
 public:
  SpjExecutor(const SpjQuery& query, CountedRelation* out, int64_t multiplier,
              PlanStats* stats, PlannerCache* cache, const EvalContext* ctx)
      : query_(query),
        out_(out),
        multiplier_(multiplier),
        stats_(stats),
        cache_(cache),
        ctx_(ctx) {}

  void Run();

 private:
  struct InputInfo {
    const RelationInput* input = nullptr;
    size_t offset = 0;  // position of this input's attributes in the
                        // combined tuple
    size_t arity = 0;
    std::vector<Atom> local_filters;  // single-input core atoms
  };

  void Analyze();
  void ChooseOrder();
  bool PassesLocalFilters(const InputInfo& info, const Tuple& t) const;
  std::vector<Link> CollectLinks(size_t input_id) const;

  // Columnar execution: rows flow through the join order in ColumnBatch
  // chunks carved from `arena_`.
  size_t ScanFirst(std::vector<ColumnBatch>* out);
  size_t JoinStep(size_t input_id, size_t total,
                  std::vector<ColumnBatch>* batches);
  void EmitBatches(std::vector<ColumnBatch>* batches);
  // The chunk of `list` the next row goes into: the last one, unless it
  // is full or `sealed`, in which case a new chunk opens on the ramp.
  ColumnBatch& DestBatch(std::vector<ColumnBatch>* list, bool sealed = false);
  void FilterBatch(ColumnBatch* batch, const std::vector<BoundAtom>& filters);

  // Cooperative cancellation poll: free when no token rides the context,
  // one clock read per join step / batch when one does (the poll-point
  // contract in util/deadline.h).
  void PollCancel() const {
    if (ctx_ != nullptr && ctx_->cancel != nullptr) ctx_->cancel->Check();
  }

  // Returns the input owning `var` and its local attribute index.
  std::pair<size_t, size_t> Resolve(const std::string& var) const;

  PlannerCache::Table* MaterializeTable(size_t input_id,
                                        const std::vector<size_t>& key_attrs);
  void FillTable(const InputInfo& info, PlannerCache::Table* table);

  const SpjQuery& query_;
  CountedRelation* out_;
  int64_t multiplier_;
  PlanStats* stats_;
  PlannerCache* cache_;
  const EvalContext* ctx_;
  util::Arena* arena_ = nullptr;  // the context's arena or a call-local one
  // Owns tables when no external cache was supplied.
  PlannerCache local_cache_;

  Schema combined_;
  std::vector<InputInfo> inputs_;
  std::vector<JoinPred> join_preds_;
  std::vector<StepFilter> step_filters_;
  std::vector<size_t> order_;
  std::vector<bool> bound_;
  bool need_residual_ = false;
  std::vector<size_t> projection_indices_;
  PlanStats local_stats_;
  BatchEvalStats batch_stats_;
};

std::pair<size_t, size_t> SpjExecutor::Resolve(const std::string& var) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (auto idx = inputs_[i].input->schema().IndexOf(var)) return {i, *idx};
  }
  internal::ThrowError("condition variable not found in any input: ", var);
}

void SpjExecutor::Analyze() {
  MVIEW_CHECK(!query_.inputs.empty(), "SPJ query needs at least one input");
  inputs_.resize(query_.inputs.size());
  size_t offset = 0;
  for (size_t i = 0; i < query_.inputs.size(); ++i) {
    inputs_[i].input = query_.inputs[i];
    inputs_[i].offset = offset;
    inputs_[i].arity = query_.inputs[i]->schema().size();
    offset += inputs_[i].arity;
  }
  combined_ = CombinedSchema(query_);
  if (query_.condition != nullptr) query_.condition->Validate(combined_);

  if (query_.projection.empty()) {
    projection_indices_.resize(combined_.size());
    for (size_t i = 0; i < combined_.size(); ++i) projection_indices_[i] = i;
  } else {
    combined_.Project(query_.projection, &projection_indices_);
  }

  const Condition* cond = query_.condition;
  if (cond == nullptr || cond->IsTriviallyFalse() ||
      cond->disjuncts().empty()) {
    need_residual_ = cond != nullptr && cond->IsTriviallyFalse();
    return;
  }
  // The conjunctive core is enforced during the joins; the full condition
  // is re-checked as a residual only when disjunction makes the core
  // incomplete.
  const std::vector<Atom> core = cond->ConjunctiveCore();
  need_residual_ = cond->disjuncts().size() > 1;

  for (const auto& atom : core) {
    auto [li, la] = Resolve(atom.lhs);
    if (!atom.rhs_var.has_value()) {
      Atom local = atom;  // names are shared with the input's scheme
      inputs_[li].local_filters.push_back(std::move(local));
      continue;
    }
    auto [ri, ra] = Resolve(*atom.rhs_var);
    if (li == ri) {
      inputs_[li].local_filters.push_back(atom);
      continue;
    }
    if (atom.op == CompareOp::kEq) {
      join_preds_.push_back({li, la, ri, ra, atom.offset});
    } else {
      step_filters_.push_back({atom, 0});  // step assigned after ordering
    }
  }
}

void SpjExecutor::ChooseOrder() {
  size_t n = inputs_.size();
  bound_.assign(n, false);
  order_.clear();
  order_.reserve(n);

  auto connected = [&](size_t candidate) {
    for (const auto& p : join_preds_) {
      if ((p.input_a == candidate && bound_[p.input_b]) ||
          (p.input_b == candidate && bound_[p.input_a])) {
        return true;
      }
    }
    return false;
  };

  // First input: the smallest.  Differential rows contain at least one tiny
  // delta input, so the pipeline starts from the delta (Section 5.3: "one
  // only needs to compute the contribution of the new tuples to the join").
  size_t first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (inputs_[i].input->SizeHint() < inputs_[first].input->SizeHint()) {
      first = i;
    }
  }
  order_.push_back(first);
  bound_[first] = true;

  while (order_.size() < n) {
    std::optional<size_t> best;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (bound_[i]) continue;
      bool conn = connected(i);
      if (!best.has_value() || (conn && !best_connected) ||
          (conn == best_connected && inputs_[i].input->SizeHint() <
                                         inputs_[*best].input->SizeHint())) {
        best = i;
        best_connected = conn;
      }
    }
    order_.push_back(*best);
    bound_[*best] = true;
  }

  // Assign each step filter to the step where it becomes ground.
  std::vector<size_t> step_of(n, 0);
  for (size_t s = 0; s < order_.size(); ++s) step_of[order_[s]] = s;
  for (auto& f : step_filters_) {
    auto [li, la] = Resolve(f.atom.lhs);
    auto [ri, ra] = Resolve(*f.atom.rhs_var);
    (void)la;
    (void)ra;
    f.last_input = order_[std::max(step_of[li], step_of[ri])];
  }
}

bool SpjExecutor::PassesLocalFilters(const InputInfo& info,
                                     const Tuple& t) const {
  for (const auto& atom : info.local_filters) {
    if (!atom.Evaluate(info.input->schema(), t)) return false;
  }
  return true;
}

PlannerCache::Table* SpjExecutor::MaterializeTable(
    size_t input_id, const std::vector<size_t>& key_attrs) {
  const InputInfo& info = inputs_[input_id];
  PlannerCache* cache = cache_ != nullptr ? cache_ : &local_cache_;
  if (PlannerCache::Table* hit = cache->Find(info.input, key_attrs)) {
    return hit;
  }
  PlannerCache::Table* table = cache->Create(info.input, key_attrs);
  FillTable(info, table);
  return table;
}

void SpjExecutor::FillTable(const InputInfo& info,
                            PlannerCache::Table* table) {
  const std::vector<size_t>& key = table->key_attrs;
  auto hash_of = [&](uint32_t id) {
    return RowKeyHash(*table->rows[id].first, key);
  };
  // Without local filters the input size is the exact row count; with
  // filters a full-size reserve could vastly overshoot the survivors.
  if (info.local_filters.empty()) {
    const size_t hint = info.input->SizeHint();
    table->rows.reserve(hint);
    table->heads.Reserve(hint, hash_of);
    table->next.Cover(hint);
  }
  // Each surviving row is linked into its key's chain right after the
  // head, as `Relation` links its index chains.
  auto add_row = [&](const Tuple& t, int64_t count) {
    ++local_stats_.rows_scanned;
    if (!PassesLocalFilters(info, t)) return;
    const auto id = static_cast<uint32_t>(table->rows.size());
    table->rows.emplace_back(&t, count);
    table->next.Cover(size_t{id} + 1);
    const size_t hash = RowKeyHash(t, key);
    const uint32_t head = table->heads.Find(hash, [&](uint32_t other) {
      const Tuple& o = *table->rows[other].first;
      for (size_t a : key) {
        if (o.at(a) != t.at(a)) return false;
      }
      return true;
    });
    if (head == IdTable::kNone) {
      table->next[id] = IdTable::kNone;
      table->heads.Insert(hash, id, hash_of);
    } else {
      table->next[id] = table->next[head];
      table->next[head] = id;
    }
  };
  FnSink sink(add_row);
  info.input->Scan(sink);
}

std::vector<Link> SpjExecutor::CollectLinks(size_t input_id) const {
  std::vector<Link> links;
  for (const auto& p : join_preds_) {
    if (p.input_a == input_id && bound_[p.input_b]) {
      // this.attr_a = bound.attr_b + offset → key = bound + offset
      links.push_back(
          {inputs_[p.input_b].offset + p.attr_b, p.attr_a, p.offset});
    } else if (p.input_b == input_id && bound_[p.input_a]) {
      // bound.attr_a = this.attr_b + offset → key = bound − offset
      links.push_back(
          {inputs_[p.input_a].offset + p.attr_a, p.attr_b, -p.offset});
    }
  }
  return links;
}

// ---------------------------------------------------------------------------
// Execution.  Intermediate rows live in combined-scheme `ColumnBatch` chunks
// carved from the arena, selections run as kernels producing selection
// vectors, and the final projection is a column shuffle.  Each join step
// picks a strategy (index probe, per-round hash table, in-place cross join)
// and multiplies counts (Section 5.2).

ColumnBatch& SpjExecutor::DestBatch(std::vector<ColumnBatch>* list,
                                    bool sealed) {
  if (sealed || list->empty() || list->back().full()) {
    PollCancel();  // one relaxed check per allocated batch, never per row
    // Chunks ramp 16, 32, … up to the 1024-row cap, so a round's scratch
    // grows with the rows in flight instead of starting at the cap.
    const size_t capacity =
        list->empty() ? ColumnBatch::kFirstCapacity
                      : std::min(2 * list->back().capacity(),
                                 ColumnBatch::kDefaultCapacity);
    list->emplace_back(combined_, capacity, arena_);
    ++batch_stats_.batches;
  }
  return list->back();
}

void SpjExecutor::FilterBatch(ColumnBatch* batch,
                              const std::vector<BoundAtom>& filters) {
  if (filters.empty() || batch->empty()) return;
  uint32_t* sel = arena_->AllocateArray<uint32_t>(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) sel[i] = static_cast<uint32_t>(i);
  const size_t n = SelectConjunction(*batch, filters, sel, batch->size());
  batch->Keep(sel, n);
}

size_t SpjExecutor::ScanFirst(std::vector<ColumnBatch>* out) {
  PollCancel();
  const size_t input_id = order_[0];
  const InputInfo& info = inputs_[input_id];
  // Local filters bound to this input's columns inside the combined batch.
  std::vector<BoundAtom> filters;
  filters.reserve(info.local_filters.size());
  for (const Atom& atom : info.local_filters) {
    filters.push_back(BindAtom(atom, info.input->schema(), info.offset));
  }

  // Appends every scanned row, running the selection kernel over each chunk
  // as it fills (and once more over the final partial chunk).  A filtered
  // chunk below the cap is sealed, so the ramp follows the rows scanned,
  // not the survivors: a selective filter would otherwise refill one
  // 16-row chunk, and rerun its kernel, every 16 rows.
  bool sealed = false;
  FnSink sink([&](const Tuple& t, int64_t count) {
    ++local_stats_.rows_scanned;
    ColumnBatch& batch = DestBatch(out, sealed);
    batch.AppendTuple(t, count, info.offset);
    sealed = false;
    if (batch.full()) {
      FilterBatch(&batch, filters);
      sealed = batch.capacity() < ColumnBatch::kDefaultCapacity;
    }
  });
  info.input->Scan(sink);
  if (!out->empty()) FilterBatch(&out->back(), filters);

  size_t total = 0;
  for (const ColumnBatch& b : *out) total += b.size();
  local_stats_.intermediate_tuples += static_cast<int64_t>(total);
  batch_stats_.rows += static_cast<int64_t>(total);
  return total;
}

size_t SpjExecutor::JoinStep(size_t input_id, size_t total,
                             std::vector<ColumnBatch>* batches) {
  PollCancel();
  const InputInfo& info = inputs_[input_id];
  std::vector<Link> links = CollectLinks(input_id);
  // Step filters that become ground at this step, bound to the combined
  // scheme.
  std::vector<BoundAtom> filters;
  for (const auto& f : step_filters_) {
    if (f.last_input == input_id) filters.push_back(BindAtom(f.atom, combined_));
  }
  // Column ranges of the inputs already bound — the only columns of a
  // source row that hold live data and must be carried into merged rows.
  std::vector<std::pair<size_t, size_t>> bound_ranges;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (bound_[i]) bound_ranges.emplace_back(inputs_[i].offset, inputs_[i].arity);
  }

  std::vector<ColumnBatch> next;
  size_t next_total = 0;

  // Appends the merge of a source row with a matched tuple and returns its
  // batch and row.  When the matched tuple is all-int, `int_row` may point
  // at its values as raw words (the cross join's per-row copy), which are
  // copied instead of read as variants.
  auto merge = [&](const ColumnBatch& src, size_t src_row, const Tuple& t,
                   int64_t count, const int64_t* int_row) {
    ColumnBatch& dst = DestBatch(&next);
    const size_t row = dst.AppendRow(src.counts()[src_row] * count);
    for (const auto& [off, arity] : bound_ranges) {
      dst.CopyRow(src, src_row, row, off, arity);
    }
    if (int_row != nullptr) {
      for (size_t i = 0; i < info.arity; ++i) {
        dst.ints(info.offset + i)[row] = int_row[i];
      }
    } else {
      dst.SetFromTuple(row, t, info.offset);
    }
    return std::pair<ColumnBatch*, size_t>(&dst, row);
  };

  // Merges, then applies the step filters to the merged row, abandoning it
  // on failure.
  auto emit_merged = [&](const ColumnBatch& src, size_t src_row,
                         const Tuple& t, int64_t count) {
    const auto [dst, row] = merge(src, src_row, t, count, nullptr);
    for (const BoundAtom& atom : filters) {
      if (!EvalBoundAtom(*dst, row, atom)) {
        dst->Truncate(row);
        return;
      }
    }
    ++next_total;
  };

  // The probe key of `link` for a source row, with the link's offset
  // applied (offsets only arise on integer attributes); none when the
  // shifted key leaves int64, as then no row can match it.
  auto key_value = [&](const ColumnBatch& src, size_t row,
                       const Link& link) -> std::optional<Value> {
    if (src.column_type(link.bound_combined) == ValueType::kInt64) {
      int64_t key = 0;
      if (__builtin_add_overflow(src.ints(link.bound_combined)[row],
                                 link.key_offset, &key)) {
        return std::nullopt;
      }
      return Value(key);
    }
    return Value(src.strs(link.bound_combined)[row]);
  };

  auto check_links = [&](const ColumnBatch& src, size_t row, const Tuple& t,
                         size_t skip_link) {
    for (size_t li = 0; li < links.size(); ++li) {
      if (li == skip_link) continue;
      const Link& l = links[li];
      const Value& tv = t.at(l.local_attr);
      if (src.column_type(l.bound_combined) == ValueType::kInt64) {
        if (CompareShifted(tv.AsInt64(), l.key_offset,
                           src.ints(l.bound_combined)[row]) != 0) {
          return false;
        }
      } else if (tv.AsString() != src.strs(l.bound_combined)[row]) {
        return false;
      }
    }
    return true;
  };

  // Strategy selection: probe the input's index from each bound row while
  // the input outgrows the rows in flight; otherwise hash it once.
  std::optional<size_t> probe_link;
  for (size_t li = 0; li < links.size(); ++li) {
    if (info.input->CanProbe(links[li].local_attr)) {
      probe_link = li;
      break;
    }
  }
  const bool use_index =
      probe_link.has_value() && info.input->SizeHint() > total;

  if (!links.empty() && !use_index) {
    std::vector<size_t> key_attrs;
    key_attrs.reserve(links.size());
    for (const auto& l : links) key_attrs.push_back(l.local_attr);
    const PlannerCache::Table* table = MaterializeTable(input_id, key_attrs);
    for (const ColumnBatch& src : *batches) {
      for (size_t r = 0; r < src.size(); ++r) {
        // The key's hash, folded straight from the columns with each
        // link's offset applied (offsets only arise on integer
        // attributes).  A key whose shifted value leaves int64 matches no
        // row.
        size_t hash = 0;
        bool in_range = true;
        for (const Link& l : links) {
          if (src.column_type(l.bound_combined) == ValueType::kInt64) {
            int64_t key = 0;
            in_range = !__builtin_add_overflow(src.ints(l.bound_combined)[r],
                                               l.key_offset, &key);
            if (!in_range) break;
            hash = HashCombine(hash, Value::HashInt(key));
          } else {
            hash = HashCombine(
                hash, Value::HashString(src.strs(l.bound_combined)[r]));
          }
        }
        if (!in_range) continue;
        uint32_t id = table->heads.Find(hash, [&](uint32_t head) {
          return check_links(src, r, *table->rows[head].first, links.size());
        });
        for (; id != IdTable::kNone; id = table->next[id]) {
          const auto& [t, count] = table->rows[id];
          emit_merged(src, r, *t, count);
        }
      }
    }
  } else if (use_index) {
    const Link& link = links[*probe_link];
    // The source row being probed for; the sink sees it by reference.
    const ColumnBatch* src = nullptr;
    size_t row = 0;
    FnSink sink([&](const Tuple& t, int64_t count) {
      if (PassesLocalFilters(info, t) &&
          check_links(*src, row, t, *probe_link)) {
        emit_merged(*src, row, t, count);
      }
    });
    for (const ColumnBatch& batch : *batches) {
      src = &batch;
      for (row = 0; row < batch.size(); ++row) {
        ++local_stats_.probes;
        const std::optional<Value> key = key_value(batch, row, link);
        if (key.has_value()) {
          info.input->ProbeEqual(link.local_attr, *key, sink);
        }
      }
    }
  } else {
    // Cross join, in place: one scan of the input.  Each row that passes
    // the local filters meets every source row in flight: the step filters,
    // each with one side in this row, select the source rows it joins in a
    // tight loop, and only those are merged.  An all-int row's words are
    // read once and copied raw into each merged row.
    std::vector<CrossFilter> cross;
    for (const BoundAtom& f : filters) {
      const bool lhs_local =
          f.lhs_col >= info.offset && f.lhs_col < info.offset + info.arity;
      cross.push_back({lhs_local ? f.rhs_col : f.lhs_col,
                       (lhs_local ? f.lhs_col : f.rhs_col) - info.offset,
                       lhs_local, f.op, f.offset});
    }
    const Schema& schema = info.input->schema();
    bool all_int = true;
    for (size_t i = 0; i < schema.size(); ++i) {
      all_int = all_int && schema.attribute(i).type == ValueType::kInt64;
    }
    int64_t* words =  // null unless every attribute is kInt64
        all_int ? arena_->AllocateArray<int64_t>(info.arity) : nullptr;
    uint32_t* sel =  // source row ids, one batch at a time
        arena_->AllocateArray<uint32_t>(ColumnBatch::kDefaultCapacity);
    auto join_row = [&](const Tuple& t, int64_t count) {
      ++local_stats_.rows_scanned;
      if (!PassesLocalFilters(info, t)) return;
      if (words != nullptr) {
        for (size_t i = 0; i < info.arity; ++i) words[i] = t.at(i).AsInt64();
      }
      for (const ColumnBatch& src : *batches) {
        for (size_t i = 0; i < src.size(); ++i) {
          sel[i] = static_cast<uint32_t>(i);
        }
        const size_t n = SelectCrossRows(src, t, cross, sel, src.size());
        for (size_t i = 0; i < n; ++i) {
          merge(src, sel[i], t, count, words);
          ++next_total;
        }
      }
    };
    FnSink sink(join_row);
    info.input->Scan(sink);
  }

  local_stats_.intermediate_tuples += static_cast<int64_t>(next_total);
  batch_stats_.rows += static_cast<int64_t>(next_total);
  batches->swap(next);
  return next_total;
}

void SpjExecutor::EmitBatches(std::vector<ColumnBatch>* batches) {
  BoundDnf residual;
  if (need_residual_ && query_.condition != nullptr) {
    residual = BindCondition(*query_.condition, combined_);
  }
  CountedRelationSink sink(out_, multiplier_);
  for (ColumnBatch& batch : *batches) {
    if (batch.empty()) continue;
    if (need_residual_) {
      uint32_t* sel = arena_->AllocateArray<uint32_t>(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        sel[i] = static_cast<uint32_t>(i);
      }
      batch.Keep(sel, SelectDnf(batch, residual, sel, batch.size()));
      if (batch.empty()) continue;
    }
    local_stats_.output_tuples += static_cast<int64_t>(batch.size());
    // Projection is a column shuffle: the emitted view aliases the batch's
    // arrays — no row data moves until the sink materializes tuples.
    sink.EmitBatch(batch.ProjectView(projection_indices_, arena_));
  }
}

void SpjExecutor::Run() {
  Analyze();
  if (query_.condition != nullptr && query_.condition->IsTriviallyFalse()) {
    return;  // σ_false(...) is empty
  }
  ChooseOrder();

  // Callers without a round arena (full evaluation, ad-hoc queries) get
  // one scoped to this call; its blocks are freed when the result is out.
  util::Arena local_arena;
  arena_ = ctx_ != nullptr && ctx_->arena != nullptr ? ctx_->arena
                                                     : &local_arena;
  // Re-run the binding order, marking inputs bound step by step so that
  // each join step sees the correct bound set.
  bound_.assign(inputs_.size(), false);
  std::vector<ColumnBatch> batches;
  size_t total = ScanFirst(&batches);
  bound_[order_[0]] = true;
  for (size_t s = 1; s < order_.size() && total > 0; ++s) {
    total = JoinStep(order_[s], total, &batches);
    bound_[order_[s]] = true;
  }
  EmitBatches(&batches);
  if (ctx_ != nullptr && ctx_->batch_stats != nullptr) {
    *ctx_->batch_stats += batch_stats_;
  }
  if (stats_ != nullptr) *stats_ += local_stats_;
}

}  // namespace

void EvaluateSpjInto(const SpjQuery& query, CountedRelation* out,
                     int64_t multiplier, PlanStats* stats, PlannerCache* cache,
                     const EvalContext* ctx) {
  MVIEW_CHECK(out != nullptr, "null output relation");
  SpjExecutor executor(query, out, multiplier, stats, cache, ctx);
  executor.Run();
}

CountedRelation EvaluateSpj(const SpjQuery& query, PlanStats* stats,
                            PlannerCache* cache) {
  Schema combined = CombinedSchema(query);
  Schema out_schema = query.projection.empty()
                          ? combined
                          : combined.Project(query.projection);
  CountedRelation out(std::move(out_schema));
  EvaluateSpjInto(query, &out, 1, stats, cache);
  return out;
}

}  // namespace mview
