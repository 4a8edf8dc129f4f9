#include "obs/prometheus.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ivm/metrics.h"

namespace mview::obs {
namespace {

std::string LabelEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string Seconds(double nanos) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", nanos * 1e-9);
  return buf;
}

// Emits `# HELP` / `# TYPE` once, then one sample line per labelled value.
class Family {
 public:
  Family(std::ostringstream& os, std::string name, const char* type,
         const char* help)
      : os_(os), name_(std::move(name)) {
    os_ << "# HELP " << name_ << " " << help << "\n";
    os_ << "# TYPE " << name_ << " " << type << "\n";
  }

  void Sample(const std::string& labels, int64_t value) {
    os_ << name_ << labels << " " << value << "\n";
  }

  void Sample(const std::string& labels, const std::string& value) {
    os_ << name_ << labels << " " << value << "\n";
  }

 private:
  std::ostringstream& os_;
  std::string name_;
};

std::string ViewLabel(const std::string& view) {
  return "{view=\"" + LabelEscape(view) + "\"}";
}

// One Prometheus histogram family from a LatencyHistogram, `le` in seconds.
// Buckets are cumulative; empty trailing buckets collapse into `+Inf`.
void EmitLatencyFamily(
    std::ostringstream& os, const std::string& name, const char* help,
    const std::vector<std::pair<std::string, const LatencyHistogram*>>&
        series) {
  os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " histogram\n";
  for (const auto& [labels, hist] : series) {
    std::string inner = labels.empty()
                            ? std::string()
                            : labels.substr(1, labels.size() - 2) + ",";
    size_t last = 0;
    for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      if (hist->bucket(b) != 0) last = b;
    }
    int64_t cumulative = 0;
    for (size_t b = 0; b <= last; ++b) {
      cumulative += hist->bucket(b);
      os << name << "_bucket{" << inner << "le=\""
         << Seconds(static_cast<double>(LatencyHistogram::BucketUpperBound(b)))
         << "\"} " << cumulative << "\n";
    }
    os << name << "_bucket{" << inner << "le=\"+Inf\"} " << hist->count()
       << "\n";
    os << name << "_sum" << labels << " "
       << Seconds(static_cast<double>(hist->sum_nanos())) << "\n";
    os << name << "_count" << labels << " " << hist->count() << "\n";
  }
}

}  // namespace

std::string ExportPrometheus(const MetricsRegistry& registry) {
  std::ostringstream os;
  const CommitMetrics& commit = registry.commit();
  const StorageMetrics& storage = registry.storage();
  const PoolMetrics& pool = registry.pool();

  Family(os, "mview_commits_total", "counter",
         "Non-empty transaction effects applied")
      .Sample("", commit.commits);
  Family(os, "mview_normalize_seconds_total", "counter",
         "Time spent normalizing transactions")
      .Sample("", Seconds(static_cast<double>(commit.normalize_nanos)));
  Family(os, "mview_base_apply_seconds_total", "counter",
         "Time spent applying effects to base relations")
      .Sample("", Seconds(static_cast<double>(commit.base_apply_nanos)));
  EmitLatencyFamily(os, "mview_commit_latency_seconds",
                    "End-to-end maintained-commit latency",
                    {{"", &commit.commit_latency}});
  Family(os, "mview_epochs_published_total", "counter",
         "Immutable view-epoch snapshots published for lock-free readers")
      .Sample("", commit.epochs_published);
  Family(os, "mview_snapshot_reuses_total", "counter",
         "Commits that recycled the retired view buffer via lag-delta replay")
      .Sample("", commit.snapshot_reuses);
  Family(os, "mview_snapshot_copies_total", "counter",
         "Commits that cloned the published view buffer (reader pinned it)")
      .Sample("", commit.snapshot_copies);

  Family pool_workers(os, "mview_pool_workers", "gauge",
                      "Maintenance thread-pool size");
  pool_workers.Sample("", pool.workers);
  Family pool_queue(os, "mview_pool_queue_depth", "gauge",
                    "Maintenance tasks queued, not yet running");
  pool_queue.Sample("", pool.queue_depth);
  Family pool_active(os, "mview_pool_active_workers", "gauge",
                     "Maintenance tasks currently executing");
  pool_active.Sample("", pool.active_workers);

  Family(os, "mview_wal_appends_total", "counter",
         "WAL records made durable")
      .Sample("", storage.wal_appends);
  Family(os, "mview_wal_fsyncs_total", "counter",
         "fsync calls issued by the log")
      .Sample("", storage.wal_fsyncs);
  Family(os, "mview_wal_bytes_total", "counter",
         "WAL record bytes written")
      .Sample("", storage.wal_bytes);
  Family(os, "mview_checkpoints_total", "counter",
         "Checkpoints written")
      .Sample("", storage.checkpoints);
  Family(os, "mview_checkpoint_seconds_total", "counter",
         "Time spent writing checkpoints")
      .Sample("", Seconds(static_cast<double>(storage.checkpoint_nanos)));
  Family(os, "mview_checkpoint_bytes_total", "counter",
         "Bytes written by checkpoints (every segment and manifest)")
      .Sample("", storage.checkpoint_bytes);
  Family(os, "mview_checkpoint_base_bytes_total", "counter",
         "Bytes of base segments written by checkpoints (fresh and compacted)")
      .Sample("", storage.checkpoint_base_bytes);
  Family(os, "mview_checkpoint_delta_bytes_total", "counter",
         "Bytes of delta segments written by checkpoints")
      .Sample("", storage.checkpoint_delta_bytes);
  Family(os, "mview_checkpoint_segments_total", "counter",
         "Segment files (bases and deltas) written by checkpoints")
      .Sample("", storage.segments_written);
  Family(os, "mview_checkpoint_partitions_skipped_total", "counter",
         "Table chains carried forward unchanged by checkpoints")
      .Sample("", storage.partitions_skipped);
  Family(os, "mview_wal_replayed_records_total", "counter",
         "WAL records replayed at recovery")
      .Sample("", storage.replayed_records);
  Family open(os, "mview_open_seconds", "gauge",
              "Time the last open spent per step: table images decoded "
              "(restore), views derived (derive), WAL tail replayed (replay)");
  open.Sample("{step=\"restore\"}",
              Seconds(static_cast<double>(storage.restore_nanos)));
  open.Sample("{step=\"derive\"}",
              Seconds(static_cast<double>(storage.derive_nanos)));
  open.Sample("{step=\"replay\"}",
              Seconds(static_cast<double>(storage.replay_nanos)));
  EmitLatencyFamily(os, "mview_fsync_latency_seconds",
                    "Group-commit write+fsync batch latency",
                    {{"", &storage.fsync_latency}});

  const std::vector<std::string> views = registry.ViewNames();
  struct ViewCounter {
    const char* name;
    const char* help;
    int64_t (*get)(const ViewMetrics&);
  };
  const ViewCounter counters[] = {
      {"mview_view_transactions_total", "Maintained transactions per view",
       [](const ViewMetrics& m) { return m.stats.transactions; }},
      {"mview_view_skipped_irrelevant_total",
       "Transactions skipped entirely by the irrelevance screen",
       [](const ViewMetrics& m) { return m.stats.skipped_irrelevant; }},
      {"mview_view_updates_seen_total", "Update tuples examined",
       [](const ViewMetrics& m) { return m.stats.updates_seen; }},
      {"mview_view_updates_filtered_total",
       "Update tuples proven irrelevant (Theorem 4.1)",
       [](const ViewMetrics& m) { return m.stats.updates_filtered; }},
      {"mview_view_delta_inserts_total", "View delta insert multiplicity",
       [](const ViewMetrics& m) { return m.stats.delta_inserts; }},
      {"mview_view_delta_deletes_total", "View delta delete multiplicity",
       [](const ViewMetrics& m) { return m.stats.delta_deletes; }},
      {"mview_view_full_reevaluations_total",
       "Deltas answered by full re-evaluation",
       [](const ViewMetrics& m) { return m.stats.full_reevaluations; }},
      {"mview_view_batch_batches_total",
       "Column batches produced by the batch evaluation pipeline",
       [](const ViewMetrics& m) { return m.stats.batch_batches; }},
      {"mview_view_batch_rows_total",
       "Rows carried through the batch evaluation pipeline",
       [](const ViewMetrics& m) { return m.stats.batch_rows; }},
      {"mview_view_partition_jobs_total",
       "Maintenance partitions evaluated",
       [](const ViewMetrics& m) { return m.stats.partition_jobs; }},
      {"mview_view_partitions_pruned_total",
       "Maintenance partitions skipped for an empty delta slice",
       [](const ViewMetrics& m) { return m.stats.partitions_pruned; }},
      {"mview_view_quarantines_total",
       "Maintenance failures that quarantined the view",
       [](const ViewMetrics& m) { return m.stats.quarantines; }},
      {"mview_view_repairs_total",
       "Successful repairs (full recompute, verified) of the view",
       [](const ViewMetrics& m) { return m.stats.repairs; }},
  };
  for (const ViewCounter& c : counters) {
    Family family(os, c.name, "counter", c.help);
    for (const std::string& view : views) {
      family.Sample(ViewLabel(view), c.get(*registry.Find(view)));
    }
  }
  Family arena_bytes(os, "mview_view_arena_bytes", "gauge",
                     "Batch-pipeline arena reserved bytes");
  for (const std::string& view : views) {
    arena_bytes.Sample(ViewLabel(view), registry.Find(view)->stats.arena_bytes);
  }
  Family arena_hw(os, "mview_view_arena_high_water_bytes", "gauge",
                  "Largest live batch-arena footprint any round reached");
  for (const std::string& view : views) {
    arena_hw.Sample(ViewLabel(view),
                    registry.Find(view)->stats.arena_high_water);
  }
  Family part_rows(os, "mview_view_partition_delta_rows", "gauge",
                   "Delta rows sliced across partitions in the last round");
  for (const std::string& view : views) {
    part_rows.Sample(ViewLabel(view),
                     registry.Find(view)->stats.partition_rows_total);
  }
  Family part_max(os, "mview_view_partition_delta_rows_max", "gauge",
                  "Largest single partition's delta-row share, last round");
  for (const std::string& view : views) {
    part_max.Sample(ViewLabel(view),
                    registry.Find(view)->stats.partition_rows_max);
  }

  std::vector<std::pair<std::string, const LatencyHistogram*>> filter_series,
      diff_series, apply_series;
  for (const std::string& view : views) {
    const ViewMetrics* m = registry.Find(view);
    filter_series.emplace_back(ViewLabel(view), &m->filter_latency);
    diff_series.emplace_back(ViewLabel(view), &m->differential_latency);
    apply_series.emplace_back(ViewLabel(view), &m->apply_latency);
  }
  EmitLatencyFamily(os, "mview_view_filter_latency_seconds",
                    "Irrelevance-screen latency per maintained commit",
                    filter_series);
  EmitLatencyFamily(os, "mview_view_differential_latency_seconds",
                    "Differential-evaluation latency per maintained commit",
                    diff_series);
  EmitLatencyFamily(os, "mview_view_apply_latency_seconds",
                    "Serial delta-apply latency per maintained commit",
                    apply_series);

  const ScrubMetrics& scrub = registry.scrub();
  Family(os, "mview_scrub_views_total", "counter",
         "Views examined by the consistency scrubber")
      .Sample("", scrub.views_scrubbed);
  Family(os, "mview_scrub_clean_total", "counter",
         "Scrubbed views whose materialization matched recompute")
      .Sample("", scrub.views_clean);
  Family(os, "mview_scrub_drifted_total", "counter",
         "Scrubbed views with materialization drift")
      .Sample("", scrub.views_drifted);
  Family(os, "mview_scrub_drift_tuples_total", "counter",
         "Total drift multiplicity (missing + extra) found by scrubs")
      .Sample("", scrub.drift_tuples);
  Family(os, "mview_scrub_repairs_total", "counter",
         "Repairs performed by SCRUB ... REPAIR")
      .Sample("", scrub.repairs);

  const SessionMetrics& sessions = registry.sessions();
  Family(os, "mview_sessions_opened_total", "counter",
         "Client sessions opened")
      .Sample("", sessions.opened);
  Family(os, "mview_sessions_closed_total", "counter",
         "Client sessions closed")
      .Sample("", sessions.closed);
  Family(os, "mview_sessions_active", "gauge",
         "Client sessions currently open")
      .Sample("", sessions.active);
  Family(os, "mview_session_statements_total", "counter",
         "Statements executed across all sessions")
      .Sample("", sessions.totals.statements);
  Family(os, "mview_session_errors_total", "counter",
         "Statements that raised an error across all sessions")
      .Sample("", sessions.totals.errors);
  Family(os, "mview_session_rows_returned_total", "counter",
         "Result rows returned across all sessions")
      .Sample("", sessions.totals.rows_returned);
  Family(os, "mview_session_snapshot_reads_total", "counter",
         "View SELECTs served lock-free from a published epoch")
      .Sample("", sessions.totals.snapshot_reads);
  EmitLatencyFamily(os, "mview_session_statement_latency_seconds",
                    "Per-statement latency across all sessions",
                    {{"", &sessions.totals.statement_latency}});
  EmitLatencyFamily(os, "mview_session_read_latency_seconds",
                    "SELECT latency across all sessions",
                    {{"", &sessions.totals.read_latency}});

  const AdmissionMetrics& admission = registry.admission();
  auto lane_label = [](const char* lane) {
    return std::string("{lane=\"") + lane + "\"}";
  };
  Family slots(os, "mview_admission_slots", "gauge",
               "Configured admission budget per lane (0 = unlimited)");
  slots.Sample(lane_label("read"), admission.read_slots);
  slots.Sample(lane_label("write"), admission.write_slots);
  Family admitted(os, "mview_admission_admitted_total", "counter",
                  "Statements admitted per lane");
  admitted.Sample(lane_label("read"), admission.read_admitted);
  admitted.Sample(lane_label("write"), admission.write_admitted);
  Family shed(os, "mview_admission_shed_total", "counter",
              "Statements shed with kOverloaded per lane");
  shed.Sample(lane_label("read"), admission.read_shed);
  shed.Sample(lane_label("write"), admission.write_shed);
  Family inflight(os, "mview_admission_inflight", "gauge",
                  "Statements currently holding an admission slot per lane");
  inflight.Sample(lane_label("read"), admission.read_inflight);
  inflight.Sample(lane_label("write"), admission.write_inflight);
  Family(os, "mview_admission_retry_after_ms", "gauge",
         "Current write-lane retry-after hint handed to shed clients")
      .Sample("", admission.retry_after_ms);
  Family(os, "mview_deadline_exceeded_total", "counter",
         "Statements unwound by an expired deadline")
      .Sample("", admission.deadline_exceeded);

  const RowStoreMetrics& row_store = registry.row_store();
  const std::pair<const char*, const RowStoreBytes*> owners[] = {
      {"{owner=\"bases\"}", &row_store.bases},
      {"{owner=\"views\"}", &row_store.views},
      {"{owner=\"spares\"}", &row_store.spares}};
  Family mapped(os, "mview_row_store_mapped_bytes", "gauge",
                "Bytes the row stores mapped for stored rows and tables");
  for (const auto& [label, bytes] : owners) mapped.Sample(label, bytes->mapped);
  Family live(os, "mview_row_store_live_bytes", "gauge",
              "Slot bytes of the rows stored");
  for (const auto& [label, bytes] : owners) live.Sample(label, bytes->live);
  return os.str();
}

}  // namespace mview::obs
