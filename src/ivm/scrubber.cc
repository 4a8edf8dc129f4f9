#include "ivm/scrubber.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "ivm/delta.h"
#include "ivm/differential.h"
#include "util/error.h"

namespace mview {

Scrubber::Scrubber(ViewManager* views, ScrubMetrics* metrics)
    : views_(views), metrics_(metrics) {
  MVIEW_CHECK(views_ != nullptr, "null view manager");
}

ViewScrubResult Scrubber::ScrubView(const std::string& name,
                                    const ScrubOptions& options) {
  ViewScrubResult result;
  result.view = name;
  ViewInfo info = views_->Describe(name);  // throws on unknown names
  if (info.quarantined) {
    // Already known-untrusted; nothing meaningful to diff.  Repair heals
    // it directly when asked.
    result.quarantined = true;
    if (options.auto_repair) {
      try {
        views_->Repair(name);
        result.repaired = true;
        if (metrics_ != nullptr) ++metrics_->repairs;
      } catch (const std::exception& e) {
        result.repair_error = e.what();
      }
    }
    return result;
  }

  // The definitional truth: full re-evaluation against the current base
  // state.  `std::map` keeps samples deterministic and lets intermediate
  // counts go negative (a stale-expectation subtraction below zero is
  // itself drift, not an exception).
  std::map<Tuple, int64_t> diff;  // expected − actual, nonzero = drift
  const DifferentialMaintainer& maintainer = views_->Maintainer(name);
  CountedRelation truth = maintainer.FullEvaluate();
  truth.Scan([&](const Tuple& t, int64_t c) { diff[t] += c; });
  return Finish(std::move(result), std::move(diff), options);
}

ViewScrubResult Scrubber::ScrubViewPartition(const std::string& name,
                                             const ScrubOptions& options) {
  ViewInfo info = views_->Describe(name);  // throws on unknown names
  if (info.quarantined) {
    // No partial work is worth keeping — the whole-view path renders the
    // quarantined verdict (and repairs when asked) immediately.
    cursors_.erase(name);
    return ScrubView(name, options);
  }
  const DifferentialMaintainer& maintainer = views_->Maintainer(name);
  const uint32_t slices = std::max<uint32_t>(1, maintainer.partition_count());
  const uint64_t epoch = views_->Snapshot()->epoch();
  PartitionCursor& cursor = cursors_[name];
  if (cursor.slices != slices || cursor.epoch != epoch) {
    // First call, a commit between calls, or a re-registered view with a
    // different layout: the accumulated truth no longer matches the state
    // it will be diffed against.  Start over.
    cursor = PartitionCursor{};
    cursor.slices = slices;
    cursor.epoch = epoch;
  }

  CountedRelation truth = maintainer.FullEvaluateSlice(cursor.next, slices);
  truth.Scan([&](const Tuple& t, int64_t c) { cursor.diff[t] += c; });
  ++cursor.next;

  ViewScrubResult result;
  result.view = name;
  result.slice = cursor.next;
  result.slices = slices;
  if (cursor.next < slices) {
    result.complete = false;
    return result;
  }
  std::map<Tuple, int64_t> diff = std::move(cursor.diff);
  cursors_.erase(name);
  return Finish(std::move(result), std::move(diff), options);
}

ViewScrubResult Scrubber::Finish(ViewScrubResult result,
                                 std::map<Tuple, int64_t> diff,
                                 const ScrubOptions& options) {
  const std::string& name = result.view;
  ViewInfo info = views_->Describe(name);

  // A stale deferred view is *expected* to lag: subtract the delta its
  // backlog would apply on refresh (fresh − pending-delta = the stale
  // contents the materialization should hold).
  if (info.mode == MaintenanceMode::kDeferred && info.stale) {
    ViewDelta delta = views_->PendingDelta(name);
    delta.inserts.Scan([&](const Tuple& t, int64_t c) { diff[t] -= c; });
    delta.deletes.Scan([&](const Tuple& t, int64_t c) { diff[t] += c; });
  }

  views_->Materialization(name).Scan(
      [&](const Tuple& t, int64_t c) { diff[t] -= c; });

  for (const auto& [tuple, delta] : diff) {
    if (delta == 0) continue;
    result.clean = false;
    if (delta > 0) {
      result.missing += delta;
    } else {
      result.extra += -delta;
    }
    if (result.samples.size() < options.max_samples) {
      ScrubDrift drift;
      drift.tuple = tuple;
      int64_t actual = views_->Materialization(name).Count(tuple);
      drift.actual = actual;
      drift.expected = actual + delta;
      result.samples.push_back(std::move(drift));
    }
  }

  if (metrics_ != nullptr) {
    ++metrics_->views_scrubbed;
    if (result.clean) {
      ++metrics_->views_clean;
    } else {
      ++metrics_->views_drifted;
      metrics_->drift_tuples += result.missing + result.extra;
    }
  }

  if (!result.clean && options.auto_repair) {
    std::ostringstream reason;
    reason << "consistency scrub found drift: " << result.missing
           << " missing, " << result.extra << " extra (multiplicity)";
    // Sticky: drift is a correctness failure, not a transient hiccup —
    // no point re-trying the same differential path that produced it.
    views_->Quarantine(name, reason.str(), /*sticky=*/true);
    try {
      views_->Repair(name);
      result.repaired = true;
      if (metrics_ != nullptr) ++metrics_->repairs;
    } catch (const std::exception& e) {
      result.repair_error = e.what();  // left quarantined
    }
  }
  return result;
}

ScrubReport Scrubber::ScrubAll(const ScrubOptions& options) {
  ScrubReport report;
  for (const auto& name : views_->ViewNames()) {
    report.views.push_back(ScrubView(name, options));
  }
  return report;
}

}  // namespace mview
