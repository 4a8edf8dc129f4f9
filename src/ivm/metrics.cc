#include "ivm/metrics.h"

#include <algorithm>
#include <sstream>

namespace mview {
namespace {

// Minimal JSON string escaping (view names are SQL identifiers, but the
// C++ API places no restriction on them).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void SizeHistogram::Record(int64_t size) {
  if (size < 0) size = 0;
  size_t b = 0;
  while (b + 1 < kBuckets && (int64_t{1} << b) <= size) ++b;
  // counts_[0] holds size 0, counts_[b] holds [2^(b-1), 2^b) for b ≥ 1.
  ++counts_[b];
  ++total_samples_;
  max_sample_ = std::max(max_sample_, size);
}

std::string SizeHistogram::BucketLabel(size_t b) {
  if (b == 0) return "0";
  if (b == 1) return "1";
  int64_t lo = int64_t{1} << (b - 1);
  if (b + 1 == kBuckets) return std::to_string(lo) + "+";
  int64_t hi = (int64_t{1} << b) - 1;
  return std::to_string(lo) + "-" + std::to_string(hi);
}

std::string SizeHistogram::ToJson() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << BucketLabel(b) << "\": " << counts_[b];
  }
  os << "}";
  return os.str();
}

SizeHistogram& SizeHistogram::operator+=(const SizeHistogram& other) {
  for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_samples_ += other.total_samples_;
  max_sample_ = std::max(max_sample_, other.max_sample_);
  return *this;
}

ViewMetrics& ViewMetrics::operator+=(const ViewMetrics& other) {
  stats += other.stats;
  phases += other.phases;
  delta_sizes += other.delta_sizes;
  filter_latency += other.filter_latency;
  differential_latency += other.differential_latency;
  apply_latency += other.apply_latency;
  return *this;
}

std::string ViewMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"transactions\": " << stats.transactions
     << ", \"skipped_irrelevant\": " << stats.skipped_irrelevant
     << ", \"updates_seen\": " << stats.updates_seen
     << ", \"updates_filtered\": " << stats.updates_filtered
     << ", \"rows_enumerated\": " << stats.rows_enumerated
     << ", \"rows_evaluated\": " << stats.rows_evaluated
     << ", \"delta_inserts\": " << stats.delta_inserts
     << ", \"delta_deletes\": " << stats.delta_deletes
     << ", \"full_reevaluations\": " << stats.full_reevaluations
     << ", \"refreshes\": " << stats.refreshes
     << ", \"quarantines\": " << stats.quarantines
     << ", \"repairs\": " << stats.repairs
     << ", \"maintenance_nanos\": " << stats.maintenance_nanos
     << ", \"batch_batches\": " << stats.batch_batches
     << ", \"batch_rows\": " << stats.batch_rows
     << ", \"arena_bytes\": " << stats.arena_bytes
     << ", \"arena_high_water\": " << stats.arena_high_water
     << ", \"partition_jobs\": " << stats.partition_jobs
     << ", \"partitions_pruned\": " << stats.partitions_pruned
     << ", \"partition_rows_total\": " << stats.partition_rows_total
     << ", \"partition_rows_max\": " << stats.partition_rows_max
     << ", \"filter_nanos\": " << phases.filter_nanos
     << ", \"differential_nanos\": " << phases.differential_nanos
     << ", \"apply_nanos\": " << phases.apply_nanos
     << ", \"delta_size_histogram\": " << delta_sizes.ToJson()
     << ", \"filter_latency\": " << filter_latency.ToJson()
     << ", \"differential_latency\": " << differential_latency.ToJson()
     << ", \"apply_latency\": " << apply_latency.ToJson() << "}";
  return os.str();
}

std::string PoolMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"workers\": " << workers << ", \"queue_depth\": " << queue_depth
     << ", \"active_workers\": " << active_workers << "}";
  return os.str();
}

std::string SessionMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"opened\": " << opened << ", \"closed\": " << closed
     << ", \"active\": " << active << ", \"totals\": " << totals.ToJson()
     << "}";
  return os.str();
}

std::string AdmissionMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"read_slots\": " << read_slots
     << ", \"write_slots\": " << write_slots
     << ", \"read_admitted\": " << read_admitted
     << ", \"read_shed\": " << read_shed
     << ", \"read_inflight\": " << read_inflight
     << ", \"write_admitted\": " << write_admitted
     << ", \"write_shed\": " << write_shed
     << ", \"write_inflight\": " << write_inflight
     << ", \"retry_after_ms\": " << retry_after_ms
     << ", \"deadline_exceeded\": " << deadline_exceeded << "}";
  return os.str();
}

std::string ScrubMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"views_scrubbed\": " << views_scrubbed
     << ", \"views_clean\": " << views_clean
     << ", \"views_drifted\": " << views_drifted
     << ", \"drift_tuples\": " << drift_tuples
     << ", \"repairs\": " << repairs << "}";
  return os.str();
}

std::string RowStoreMetrics::ToJson() const {
  std::ostringstream os;
  os << "{";
  const char* sep = "";
  for (const auto& [name, bytes] :
       {std::pair<const char*, const RowStoreBytes*>("bases", &bases),
        {"views", &views},
        {"spares", &spares}}) {
    os << sep << "\"" << name << "\": {\"mapped_bytes\": " << bytes->mapped
       << ", \"live_bytes\": " << bytes->live << "}";
    sep = ", ";
  }
  os << "}";
  return os.str();
}

std::string StorageMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"wal_appends\": " << wal_appends
     << ", \"wal_fsyncs\": " << wal_fsyncs
     << ", \"wal_bytes\": " << wal_bytes
     << ", \"fsync_nanos\": " << fsync_nanos
     << ", \"checkpoints\": " << checkpoints
     << ", \"checkpoint_nanos\": " << checkpoint_nanos
     << ", \"checkpoint_bytes\": " << checkpoint_bytes
     << ", \"checkpoint_base_bytes\": " << checkpoint_base_bytes
     << ", \"checkpoint_delta_bytes\": " << checkpoint_delta_bytes
     << ", \"segments_written\": " << segments_written
     << ", \"partitions_skipped\": " << partitions_skipped
     << ", \"replayed_records\": " << replayed_records
     << ", \"restore_nanos\": " << restore_nanos
     << ", \"derive_nanos\": " << derive_nanos
     << ", \"replay_nanos\": " << replay_nanos
     << ", \"batch_commits_histogram\": " << batch_commits.ToJson()
     << ", \"fsync_latency\": " << fsync_latency.ToJson() << "}";
  return os.str();
}

ViewMetrics& MetricsRegistry::ForView(const std::string& view) {
  auto& slot = views_[view];
  if (slot == nullptr) slot = std::make_unique<ViewMetrics>();
  return *slot;
}

const ViewMetrics* MetricsRegistry::Find(const std::string& view) const {
  auto it = views_.find(view);
  return it == views_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::Remove(const std::string& view) {
  auto it = views_.find(view);
  if (it == views_.end()) return;
  retired_ += *it->second;
  views_.erase(it);
}

std::vector<std::string> MetricsRegistry::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, metrics] : views_) names.push_back(name);
  return names;
}

ViewMetrics MetricsRegistry::Aggregate() const {
  ViewMetrics total;
  for (const auto& [name, metrics] : views_) total += *metrics;
  return total;
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  os << "{\"commits\": " << commit_.commits
     << ", \"normalize_nanos\": " << commit_.normalize_nanos
     << ", \"base_apply_nanos\": " << commit_.base_apply_nanos
     << ", \"epochs_published\": " << commit_.epochs_published
     << ", \"snapshot_reuses\": " << commit_.snapshot_reuses
     << ", \"snapshot_copies\": " << commit_.snapshot_copies
     << ", \"commit_latency\": " << commit_.commit_latency.ToJson()
     << ", \"storage\": " << storage_.ToJson()
     << ", \"pool\": " << pool_.ToJson()
     << ", \"scrub\": " << scrub_.ToJson()
     << ", \"sessions\": " << sessions_.ToJson()
     << ", \"admission\": " << admission_.ToJson()
     << ", \"row_store\": " << row_store_.ToJson()
     << ", \"global\": " << Aggregate().ToJson()
     << ", \"retired\": " << retired_.ToJson() << ", \"views\": {";
  bool first = true;
  for (const auto& [name, metrics] : views_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << JsonEscape(name) << "\": " << metrics->ToJson();
  }
  os << "}}";
  return os.str();
}

}  // namespace mview
