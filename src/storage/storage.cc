#include "storage/storage.h"

#include <filesystem>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sql/engine.h"
#include "storage/checkpoint.h"
#include "storage/file.h"
#include "storage/recovery.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace mview {

std::unique_ptr<Storage> Storage::Open(const std::string& path,
                                       Options options) {
  // A directory this creates is durable once its parent is synced; sync
  // the parent of each one, so no power cut loses a log written inside.
  std::error_code ec;
  std::filesystem::path dir =
      std::filesystem::absolute(path, ec).lexically_normal();
  if (!dir.has_filename()) dir = dir.parent_path();  // a trailing '/'
  std::vector<std::string> parents;  // of the directories created
  for (auto p = dir; p.has_relative_path() && !std::filesystem::exists(p, ec);
       p = p.parent_path()) {
    parents.push_back(p.parent_path().string());
  }
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw storage::IoError("storage: cannot create directory " + path + ": " +
                           ec.message());
  }
  for (const auto& parent : parents) {
    storage::FileSystem::Current().SyncDir(parent);
  }
  return std::unique_ptr<Storage>(new Storage(path, options));
}

std::unique_ptr<Storage> Storage::Open(const std::string& path) {
  return Open(path, Options());
}

Storage::Storage(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

void Storage::Attach(sql::EngineCore& core) {
  MVIEW_CHECK(engine_ == nullptr, "storage already attached");

  // Recovery runs before the core is shared with any session, so the
  // friended storage surface is safe here (single-threaded by contract).
  Database& db = core.storage_database();
  ViewManager& views = core.storage_views();

  StorageMetrics& metrics = views.metrics().storage();
  uint64_t checkpoint_lsn = 0;
  bool have_checkpoint = false;
  std::vector<ViewDefinition> assertions;
  if (auto manifest = storage::ReadManifest(path_)) {
    have_checkpoint = true;
    checkpoint_lsn = manifest->lsn;
    assertions = manifest->assertions;
    // Decodes the tables and derives the views from them (timing both).
    // Leaves the changed-table set empty: from here on every mutation,
    // replayed or live, marks its table like a live one.
    storage::InstallCheckpoint(path_, &*manifest, &db, &views);
    // Carried into the next write, which extends its chains.
    manifest_ = std::move(manifest);
  }

  storage::WalOptions wal_options;
  // With a checkpoint in hand, a header-sized-or-shorter WAL with a bad
  // header is a torn rotate (the checkpoint covers everything such a file
  // could have held), not corruption.
  wal_options.tolerate_torn_header = have_checkpoint;
  Stopwatch replay;
  wal_ = std::make_unique<storage::Wal>(
      wal_path(), wal_options, [&](storage::WalRecord&& record) {
        // A crash between checkpoint write and log rotation leaves records
        // the checkpoint already covers; skipping by LSN makes replay
        // idempotent.
        if (record.lsn <= checkpoint_lsn) return;
        switch (record.type) {
          case storage::WalRecord::Type::kEffect:
            views.ApplyEffect(storage::ToEffect(record, db));
            break;
          case storage::WalRecord::Type::kQuarantine:
            // Re-enter the quarantine at the same point in the replayed
            // history; subsequent effect records then skip the view
            // exactly as the live pipeline did.
            if (views.HasView(record.view)) {
              views.Quarantine(record.view, record.reason, record.sticky);
            }
            break;
          case storage::WalRecord::Type::kRepair:
            // Re-run the heal (a full re-evaluation at this point of the
            // history is deterministic and cheap relative to recovery).
            if (views.HasView(record.view)) {
              views.Repair(record.view);
            }
            break;
          case storage::WalRecord::Type::kCatalog:
            storage::ReplayCatalog(std::move(record.catalog), &views,
                                   &assertions);
            break;
          case storage::WalRecord::Type::kRefresh:
            // The backlog it consumed was rebuilt by the records before
            // it, so the refresh lands at the same point of the history.
            if (views.HasView(record.view)) views.Refresh(record.view);
            break;
        }
        ++metrics.replayed_records;
      });
  metrics.replay_nanos = replay.ElapsedNanos();

  // A crash during `Rotate` (or an externally emptied log) can leave the
  // log rebased *below* the checkpoint.  Fresh appends would then be
  // assigned LSNs the replay filter above skips — acknowledged commits
  // silently lost on the next recovery.  Rebase above the checkpoint
  // before accepting any append; everything the old log held at or below
  // `checkpoint_lsn` is covered by the checkpoint.
  if (wal_->stats().durable_lsn < checkpoint_lsn) {
    wal_->Rotate(checkpoint_lsn);
  }

  // Assertions go last — the checkpointed ones as edited by replayed
  // catalog records: replay bypassed the integrity guard (those
  // transactions were admitted when first committed), so each error view
  // is computed once against the fully recovered state.
  for (const auto& def : assertions) core.storage_guard().AddAssertion(def);

  // Installed *after* replay so replayed health transitions are not
  // re-logged.  Best-effort by design: a failing append here must not
  // turn a contained view fault into a commit failure — recovery without
  // the record still recomputes the view correctly.
  views.SetHealthListener([this](const ViewHealthEvent& event) {
    if (wal_ == nullptr || wal_->failed()) return;
    try {
      if (event.kind == ViewHealthEvent::Kind::kQuarantine) {
        wal_->AppendQuarantine(event.view, event.reason, event.sticky);
      } else {
        wal_->AppendRepair(event.view);
      }
    } catch (...) {
      // Swallowed: see above.
    }
  });

  // However many rounds replay installed, a freshly opened database
  // serves snapshot readers from epoch 0 of the recovered state.
  views.PublishAsEpochZero();
  engine_ = &core;
}

void Storage::Checkpoint() {
  MVIEW_CHECK(engine_ != nullptr && wal_ != nullptr, "storage not attached");
  static const uint32_t kCheckpointName =
      obs::Tracer::Global().InternName("checkpoint");
  obs::TraceSpan span(kCheckpointName);
  Stopwatch timer;
  uint64_t lsn = wal_->stats().durable_lsn;
  ViewManager& views = engine_->storage_views();
  StorageMetrics& metrics = views.metrics().storage();
  storage::CheckpointStats stats;
  try {
    manifest_ = storage::WriteCheckpoint(
        path_, lsn, engine_->database(), engine_->views(), &engine_->guard(),
        views.changed_scopes(), manifest_.has_value() ? &*manifest_ : nullptr,
        &stats);
  } catch (...) {
    // The attempt's manifest may have landed (a failed directory sync
    // follows its rename) naming segments of the attempt's generation: the
    // next attempt takes a later one instead of rewriting them in place.
    if (!manifest_.has_value()) manifest_.emplace();  // no tables: no chains
    ++manifest_->generation;
    throw;
  }
  metrics.checkpoint_bytes += static_cast<int64_t>(stats.bytes_written);
  metrics.checkpoint_base_bytes += static_cast<int64_t>(stats.base_bytes);
  metrics.checkpoint_delta_bytes += static_cast<int64_t>(stats.delta_bytes);
  metrics.segments_written += stats.segments_written;
  metrics.partitions_skipped += stats.scopes_skipped;
  // Every change so far is covered by the image just written; marks from
  // here on belong to the next checkpoint.  Cleared before `Rotate` so a
  // rotate failure can only cause re-replay (idempotent), never a carried
  // chain that misses rows.
  views.changed_scopes().Clear();
  wal_->Rotate(lsn);
  ++metrics.checkpoints;
  metrics.checkpoint_nanos += timer.ElapsedNanos();
}

void Storage::Close() {
  if (engine_ == nullptr) return;
  if (options_.checkpoint_on_close && !wal_->failed()) Checkpoint();
  engine_->storage_views().SetHealthListener(nullptr);  // engine outlives log
  wal_.reset();
  engine_ = nullptr;
}

storage::WalStats Storage::wal_stats() const {
  return wal_ == nullptr ? storage::WalStats{} : wal_->stats();
}

void Storage::LogCommit(const TransactionEffect& effect) {
  if (wal_ == nullptr || effect.Empty()) return;
  wal_->Append(effect);
}

void Storage::LogCatalog(const storage::CatalogChange& change) {
  if (wal_ == nullptr) return;
  wal_->AppendCatalog(change);
}

void Storage::LogRefresh(const std::string& view) {
  if (wal_ == nullptr) return;
  wal_->AppendRefresh(view);
}

void Storage::LogRepair(const std::string& view) {
  if (wal_ == nullptr) return;
  wal_->AppendRepair(view);
}

void Storage::SyncWalMetrics() {
  if (engine_ == nullptr || wal_ == nullptr) return;
  // The WAL's own counters are written by group-commit leader threads
  // under the log mutex; copying a locked snapshot here (on the engine
  // thread, which owns the registry) keeps `SHOW STATS` readers off the
  // leaders' plain fields.
  storage::WalStats s = wal_->stats();
  StorageMetrics& m = engine_->storage_views().metrics().storage();
  m.wal_appends = s.records_appended;
  m.wal_bytes = s.bytes_appended;
  m.wal_fsyncs = s.fsyncs;
  m.fsync_nanos = s.fsync_nanos;
  m.batch_commits = s.batch_commits;
  m.fsync_latency = s.fsync_latency;
}

std::string Storage::ExportMetricsText() {
  if (engine_ == nullptr) return "";
  // Delegate to the core so both export routes render the identical body
  // (the core takes its lock and syncs WAL, pool, and session gauges).
  return engine_->ExportMetricsText();
}

}  // namespace mview
