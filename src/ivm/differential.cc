#include "ivm/differential.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace mview {

PhaseBreakdown& PhaseBreakdown::operator+=(const PhaseBreakdown& o) {
  normalize_nanos += o.normalize_nanos;
  filter_nanos += o.filter_nanos;
  differential_nanos += o.differential_nanos;
  apply_nanos += o.apply_nanos;
  return *this;
}

MaintenanceStats& MaintenanceStats::operator+=(const MaintenanceStats& o) {
  transactions += o.transactions;
  skipped_irrelevant += o.skipped_irrelevant;
  updates_seen += o.updates_seen;
  updates_filtered += o.updates_filtered;
  rows_enumerated += o.rows_enumerated;
  rows_evaluated += o.rows_evaluated;
  delta_inserts += o.delta_inserts;
  delta_deletes += o.delta_deletes;
  full_reevaluations += o.full_reevaluations;
  refreshes += o.refreshes;
  quarantines += o.quarantines;
  repairs += o.repairs;
  maintenance_nanos += o.maintenance_nanos;
  batch_batches += o.batch_batches;
  batch_rows += o.batch_rows;
  arena_bytes += o.arena_bytes;
  arena_high_water += o.arena_high_water;
  partition_jobs += o.partition_jobs;
  partitions_pruned += o.partitions_pruned;
  partition_rows_total += o.partition_rows_total;
  partition_rows_max = std::max(partition_rows_max, o.partition_rows_max);
  plan += o.plan;
  return *this;
}

DifferentialMaintainer::DifferentialMaintainer(ViewDefinition def,
                                               Database* db,
                                               MaintenanceOptions options)
    : def_(std::move(def)), db_(db), options_(options) {
  MVIEW_CHECK(db != nullptr, "null database");
  def_.Validate(*db);
  // Index the equi-join attributes so differential rows probe the big
  // relations from the small deltas (Section 5.3's t_r ⋈ s), and so full
  // evaluation probes them instead of hashing whole relations.
  const auto join_attrs = def_.JoinAttributes(*db);
  for (size_t i = 0; i < def_.bases().size(); ++i) {
    Relation& rel = db->Get(def_.bases()[i].relation);
    for (const auto& attr : join_attrs[i]) rel.CreateIndex(attr);
  }
  combined_ = def_.CombinedSchema(*db_);
  output_ = def_.OutputSchema(*db_);
  aliased_.reserve(def_.bases().size());
  for (size_t i = 0; i < def_.bases().size(); ++i) {
    aliased_.push_back(def_.AliasedSchema(*db_, i));
  }
  filter_ = std::make_unique<IrrelevanceFilter>(def_, *db_);
  layout_ =
      ComputePartitionLayout(def_.condition(), aliased_, options_.partition_count);
  arenas_.reserve(layout_.count);
  for (uint32_t p = 0; p < layout_.count; ++p) {
    arenas_.push_back(std::make_unique<util::Arena>());
  }
}

bool DifferentialMaintainer::AffectedBy(const TransactionEffect& effect) const {
  for (const auto& base : def_.bases()) {
    if (effect.Find(base.relation) != nullptr) return true;
  }
  return false;
}

DifferentialMaintainer::PreparedDelta DifferentialMaintainer::Prepare(
    const TransactionEffect& effect, MaintenanceStats* stats,
    PhaseBreakdown* phases) const {
  static const uint32_t kScreenName =
      obs::Tracer::Global().InternName("irrelevance_screen");
  static const uint32_t kFilteredArg =
      obs::Tracer::Global().InternName("updates_filtered");
  // Screened per-base deltas (Algorithm 4.1).  The clean part subtracts
  // the *unscreened* deletes — the surviving state is defined by what the
  // transaction actually removed; tuples the screen drops are provably
  // invisible to the view either way.
  obs::TraceSpan screen_span(kScreenName);
  const int64_t filtered_before = stats != nullptr ? stats->updates_filtered : 0;
  Stopwatch filter_timer;
  const size_t n = def_.bases().size();
  PreparedDelta prep;
  prep.parts.resize(n);
  const std::vector<IrrelevanceFilter::Survivors> survivors =
      filter_->Screen(effect, stats);
  // The part the round reads: `in` itself when the screen kept all of it,
  // else a copy of the survivors.
  auto screened = [&](const Relation& in, const std::vector<const Tuple*>& kept)
      -> const Relation* {
    if (kept.size() == in.size()) return &in;
    prep.owned.push_back(std::make_unique<Relation>(in.schema()));
    for (const Tuple* t : kept) prep.owned.back()->Insert(*t);
    return prep.owned.back().get();
  };
  for (size_t i = 0; i < n; ++i) {
    const RelationEffect* re = effect.Find(def_.bases()[i].relation);
    if (re == nullptr) continue;
    prep.parts[i].subtract = &re->deletes;
    prep.parts[i].inserts = screened(re->inserts, survivors[i].inserts);
    prep.parts[i].deletes = screened(re->deletes, survivors[i].deletes);
  }

  // Slice the screened deltas by partition.  Keyed mode slices by each
  // base's join-key attribute (layout_.key_attr[i]); row-hash mode by
  // whole-tuple hash — ComputePartitionLayout encodes both as key_attr.
  const uint32_t count = layout_.count;
  prep.active.assign(count, false);
  auto finish = [&]() {
    if (phases != nullptr) phases->filter_nanos += filter_timer.ElapsedNanos();
    if (stats != nullptr) {
      screen_span.SetArg(kFilteredArg,
                         stats->updates_filtered - filtered_before);
    }
    screen_span.End();
  };
  if (count <= 1) {
    prep.active[0] = true;
    finish();
    return prep;
  }
  prep.sliced.assign(count, std::vector<BaseParts>(n));
  std::vector<int64_t> slice_rows(count, 0);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t p = 0; p < count; ++p) {
      prep.sliced[p][i].subtract = prep.parts[i].subtract;
    }
    const size_t key_attr = layout_.key_attr[i];
    auto slice_side = [&](const Relation* src,
                          const Relation* BaseParts::* side) {
      if (src == nullptr || src->empty()) return;
      std::vector<Relation*> out(count);
      for (uint32_t p = 0; p < count; ++p) {
        prep.owned.push_back(std::make_unique<Relation>(src->schema()));
        out[p] = prep.owned.back().get();
      }
      src->Scan([&](const Tuple& t) {
        const uint32_t p = PartitionOf(t, key_attr, count);
        out[p]->Insert(t);
        ++slice_rows[p];
      });
      for (uint32_t p = 0; p < count; ++p) {
        if (out[p]->empty()) continue;
        prep.sliced[p][i].*side = out[p];
        prep.active[p] = true;
      }
    };
    slice_side(prep.parts[i].inserts, &BaseParts::inserts);
    slice_side(prep.parts[i].deletes, &BaseParts::deletes);
  }
  if (std::none_of(prep.active.begin(), prep.active.end(),
                   [](bool a) { return a; })) {
    prep.active[0] = true;
  }
  if (stats != nullptr) {
    stats->partition_rows_total = 0;
    stats->partition_rows_max = 0;
    for (int64_t rows : slice_rows) {
      stats->partition_rows_total += rows;
      stats->partition_rows_max = std::max(stats->partition_rows_max, rows);
    }
  }
  finish();
  return prep;
}

ViewDelta DifferentialMaintainer::ComputePartition(
    const PreparedDelta& prep, uint32_t p, MaintenanceStats* stats,
    PhaseBreakdown* phases, const util::Cancellation* cancel) const {
  static const uint32_t kDifferentialName =
      obs::Tracer::Global().InternName("differential");
  MVIEW_CHECK(p < layout_.count, "partition index out of range");
  obs::TraceSpan differential_span(kDifferentialName);
  Stopwatch differential_timer;
  ViewDelta delta(output_);
  if (prep.active[p]) {
    const bool keyed = layout_.keyed && layout_.count > 1;
    const std::vector<BaseParts>& full = keyed ? prep.sliced[p] : prep.parts;
    const std::vector<BaseParts>& anchor =
        layout_.count > 1 ? prep.sliced[p] : prep.parts;
    delta = EvaluateSlice(full, anchor, keyed, p, arenas_[p].get(), stats,
                          cancel);
    if (stats != nullptr) ++stats->partition_jobs;
  } else if (stats != nullptr) {
    ++stats->partitions_pruned;
  }
  if (phases != nullptr) {
    phases->differential_nanos += differential_timer.ElapsedNanos();
  }
  return delta;
}

ViewDelta DifferentialMaintainer::MergePartitions(std::vector<ViewDelta> slices,
                                                  MaintenanceStats* stats) const {
  ViewDelta merged(output_);
  if (slices.size() == 1) {
    merged = std::move(slices.front());
  } else if (!slices.empty()) {
    // Sum the signed per-partition measures, then normalize: Normalize is
    // a function of (inserts − deletes), so the merged delta is
    // byte-identical to an unpartitioned evaluation of the same round.
    for (ViewDelta& slice : slices) {
      slice.inserts.Scan(
          [&](const Tuple& t, int64_t c) { merged.inserts.Add(t, c); });
      slice.deletes.Scan(
          [&](const Tuple& t, int64_t c) { merged.deletes.Add(t, c); });
    }
    merged.Normalize();
  }
  if (stats != nullptr) {
    stats->delta_inserts += merged.inserts.TotalCount();
    stats->delta_deletes += merged.deletes.TotalCount();
  }
  return merged;
}

void DifferentialMaintainer::FinalizeRoundStats(MaintenanceStats* stats) const {
  if (stats == nullptr) return;
  int64_t reserved = 0;
  int64_t high_water = 0;
  for (const auto& arena : arenas_) {
    reserved += static_cast<int64_t>(arena->stats().bytes_reserved);
    high_water = std::max(high_water,
                          static_cast<int64_t>(arena->stats().high_water));
  }
  stats->arena_bytes = reserved;
  stats->arena_high_water = high_water;
}

ViewDelta DifferentialMaintainer::ComputeDelta(
    const TransactionEffect& effect, MaintenanceStats* stats,
    PhaseBreakdown* phases, const util::Cancellation* cancel) const {
  PreparedDelta prep = Prepare(effect, stats, phases);
  std::vector<ViewDelta> slices;
  slices.reserve(layout_.count);
  for (uint32_t p = 0; p < layout_.count; ++p) {
    ViewDelta slice = ComputePartition(prep, p, stats, phases, cancel);
    if (!slice.Empty() || layout_.count == 1) {
      slices.push_back(std::move(slice));
    }
  }
  ViewDelta merged = MergePartitions(std::move(slices), stats);
  FinalizeRoundStats(stats);
  return merged;
}

ViewDelta DifferentialMaintainer::ComputeDeltaFromParts(
    const std::vector<BaseParts>& parts, MaintenanceStats* stats) const {
  // Deferred refresh always runs unpartitioned: the backlog is replayed in
  // one slice.
  ViewDelta delta = EvaluateSlice(parts, parts, /*slice_clean=*/false,
                                  /*slice=*/0, arenas_.front().get(), stats);
  if (stats != nullptr) {
    stats->delta_inserts += delta.inserts.TotalCount();
    stats->delta_deletes += delta.deletes.TotalCount();
  }
  FinalizeRoundStats(stats);
  return delta;
}

ViewDelta DifferentialMaintainer::EvaluateSlice(
    const std::vector<BaseParts>& full, const std::vector<BaseParts>& anchor,
    bool slice_clean, uint32_t slice, util::Arena* arena,
    MaintenanceStats* stats,
    const util::Cancellation* cancel) const {
  // Covers the delta paths — commit-time rows (every partition) and
  // deferred refresh funnel through here.  `FullEvaluate` has no point of
  // its own, but it allocates from an arena like every evaluation, so an
  // armed `ra.batch.alloc` fails it too: view creation, REPAIR and scrub
  // then fail with the fault rather than return a partial result.
  MVIEW_FAULT_POINT("differential.eval");
  MVIEW_CHECK(full.size() == def_.bases().size(),
              "expected one BaseParts per base occurrence");
  const size_t n = def_.bases().size();
  // When the anchor parts are the very same vector (unpartitioned rounds,
  // keyed mode), the anchor inputs alias the full ones, so the cache
  // hashes each delta at most once.
  const bool separate_anchor = &full != &anchor;
  std::vector<std::unique_ptr<RelationInput>> owned;
  owned.reserve(n * 5);
  std::vector<RelationInput*> clean(n, nullptr), ins(n, nullptr),
      del(n, nullptr), a_ins(n, nullptr), a_del(n, nullptr);
  auto keep = [&](std::unique_ptr<RelationInput> input) {
    owned.push_back(std::move(input));
    return owned.back().get();
  };
  // A delta joined through an equality is hashed by the slice's
  // `PlannerCache`, once for all the rows it appears in.
  auto make_delta = [&](size_t i, const Relation* part) -> RelationInput* {
    if (part == nullptr || part->empty()) return nullptr;
    return keep(std::make_unique<FullRelationInput>(part, aliased_[i]));
  };
  for (size_t i = 0; i < n; ++i) {
    const Relation& rel = db_->Get(def_.bases()[i].relation);
    const Relation* subtract =
        (full[i].subtract != nullptr && !full[i].subtract->empty())
            ? full[i].subtract
            : nullptr;
    if (slice_clean) {
      // Keyed co-partitioning: the clean part, too, is one hash slice —
      // the condition's common equality class guarantees cross-slice
      // combinations can never join.
      clean[i] = keep(std::make_unique<PartitionSliceInput>(
          &rel, aliased_[i], subtract, layout_.key_attr[i], slice,
          layout_.count));
    } else if (subtract != nullptr) {
      clean[i] = keep(std::make_unique<SubtractRelationInput>(&rel, subtract,
                                                              aliased_[i]));
    } else {
      clean[i] = keep(std::make_unique<FullRelationInput>(&rel, aliased_[i]));
    }
    ins[i] = make_delta(i, full[i].inserts);
    del[i] = make_delta(i, full[i].deletes);
    if (separate_anchor) {
      a_ins[i] = make_delta(i, anchor[i].inserts);
      a_del[i] = make_delta(i, anchor[i].deletes);
    } else {
      a_ins[i] = ins[i];
      a_del[i] = del[i];
    }
  }

  ViewDelta delta(output_);
  // Shared by every row of this slice: scans and join hash tables of
  // parts that recur across rows are built once (Section 5.4).
  PlannerCache cache;
  // The slice's batch scratch: resetting recycles (and, under ASan,
  // poisons) the previous round's blocks, so every ColumnBatch allocated
  // below dies when this partition's *next* round begins.
  arena->Reset();
  BatchEvalStats batch_stats;
  EvalContext ctx;
  ctx.arena = arena;
  ctx.batch_stats = &batch_stats;
  ctx.cancel = cancel;
  if (cancel != nullptr) cancel->Check();
  EnumerateRows(clean, ins, del, a_ins, a_del, &delta, stats, &cache, &ctx);
  delta.Normalize();
  if (stats != nullptr) {
    stats->batch_batches += batch_stats.batches;
    stats->batch_rows += batch_stats.rows;
  }
  return delta;
}

void DifferentialMaintainer::EnumerateRows(
    const std::vector<RelationInput*>& clean,
    const std::vector<RelationInput*>& ins,
    const std::vector<RelationInput*>& del,
    const std::vector<RelationInput*>& anchor_ins,
    const std::vector<RelationInput*>& anchor_del, ViewDelta* delta,
    MaintenanceStats* stats, PlannerCache* cache,
    const EvalContext* ctx) const {
  size_t n = def_.bases().size();
  const Condition& condition = def_.condition();
  bool trivially_true = condition.IsTriviallyTrue();

  // Recursive expansion of Π(clean_i + ins_i) − Π(clean_i + del_i)
  // (Section 5.3's truth table, mixed transactions handled by the tag rule
  // `insert ⋈ delete → ignore`): rows choosing at least one `ins` and no
  // `del` are insert-tagged; at least one `del` and no `ins`, delete-tagged;
  // the all-clean row is the unchanged view and is skipped.
  std::vector<const RelationInput*> row(n, nullptr);
  auto evaluate_row = [&](bool is_delete) {
    if (stats != nullptr) ++stats->rows_enumerated;
    for (const auto* input : row) {
      if (input->SizeHint() == 0) return;  // empty part: the join vanishes
    }
    if (stats != nullptr) ++stats->rows_evaluated;
    SpjQuery query;
    query.inputs.assign(row.begin(), row.end());
    query.condition = trivially_true ? nullptr : &condition;
    query.projection = def_.projection();
    EvaluateSpjInto(query, is_delete ? &delta->deletes : &delta->inserts, 1,
                    stats != nullptr ? &stats->plan : nullptr, cache, ctx);
  };

  // has_delta: whether a non-clean part has been chosen so far;
  // is_delete: the row's tag (fixed by the first non-clean choice).  The
  // first non-clean choice is the row's *anchor*: each row is linear in
  // it, so a partitioned round substitutes the sliced anchor input there
  // while later (non-anchor) delta positions keep the full delta — the
  // per-partition rows then sum to exactly the unpartitioned row.
  auto recurse = [&](auto&& self, size_t i, bool has_delta,
                     bool is_delete) -> void {
    if (i == n) {
      if (has_delta) evaluate_row(is_delete);
      return;
    }
    row[i] = clean[i];
    self(self, i + 1, has_delta, is_delete);
    // Insert part: allowed unless the row already carries a delete part.
    const RelationInput* ins_part = has_delta ? ins[i] : anchor_ins[i];
    if (ins_part != nullptr && (!has_delta || !is_delete)) {
      row[i] = ins_part;
      self(self, i + 1, true, false);
    }
    // Delete part: allowed unless the row already carries an insert part.
    const RelationInput* del_part = has_delta ? del[i] : anchor_del[i];
    if (del_part != nullptr && (!has_delta || is_delete)) {
      row[i] = del_part;
      self(self, i + 1, true, true);
    }
  };
  recurse(recurse, 0, false, false);
}

CountedRelation DifferentialMaintainer::FullEvaluate(PlanStats* stats) const {
  return EvaluateDefinition(def_, *db_, stats);
}

CountedRelation DifferentialMaintainer::FullEvaluateSlice(
    uint32_t slice, uint32_t total, PlanStats* stats) const {
  MVIEW_CHECK(total >= 1 && slice < total, "evaluation slice out of range");
  size_t n = def_.bases().size();
  std::vector<std::unique_ptr<RelationInput>> inputs(n);
  SpjQuery query;
  for (size_t i = 0; i < n; ++i) {
    const Relation& rel = db_->Get(def_.bases()[i].relation);
    if (i == 0) {
      // Restricting one input partitions the whole join's output (the
      // join is linear in each input), so the `total` slices sum to
      // exactly `FullEvaluate` — no condition analysis needed, hence the
      // whole-tuple hash regardless of the view's partition layout.
      inputs[i] = std::make_unique<PartitionSliceInput>(
          &rel, aliased_[i], /*minus=*/nullptr, kRowHashKey, slice, total);
    } else {
      inputs[i] = std::make_unique<FullRelationInput>(&rel, aliased_[i]);
    }
    query.inputs.push_back(inputs[i].get());
  }
  const Condition& condition = def_.condition();
  query.condition = condition.IsTriviallyTrue() ? nullptr : &condition;
  query.projection = def_.projection();
  CountedRelation out(output_);
  EvaluateSpjInto(query, &out, 1, stats, nullptr);
  return out;
}

CountedRelation EvaluateDefinition(const ViewDefinition& def,
                                   const Database& db, PlanStats* stats) {
  const size_t n = def.bases().size();
  std::vector<std::unique_ptr<RelationInput>> inputs(n);
  SpjQuery query;
  for (size_t i = 0; i < n; ++i) {
    inputs[i] = std::make_unique<FullRelationInput>(
        &db.Get(def.bases()[i].relation), def.AliasedSchema(db, i));
    query.inputs.push_back(inputs[i].get());
  }
  const Condition& condition = def.condition();
  query.condition = condition.IsTriviallyTrue() ? nullptr : &condition;
  query.projection = def.projection();
  CountedRelation out(def.OutputSchema(db));
  EvaluateSpjInto(query, &out, 1, stats, nullptr);
  return out;
}

}  // namespace mview
