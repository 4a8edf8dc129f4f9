#include "storage/recovery.h"

#include <memory>
#include <vector>

#include "ivm/snapshot.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace mview::storage {

void InstallCheckpoint(const std::string& dir, CheckpointManifest* manifest,
                       Database* db, ViewManager* views) {
  MVIEW_CHECK(manifest != nullptr && db != nullptr && views != nullptr,
              "null recovery target");
  MVIEW_CHECK(db->Names().empty() && views->ViewNames().empty(),
              "recovery requires an empty engine");
  StorageMetrics& metrics = views->metrics().storage();

  Stopwatch restore;
  for (const ScopeImage& table : manifest->tables) {
    Relation& rel = db->CreateRelation(table.name, table.schema);
    ScanImage(dir, table, [&](const Tuple& t) { rel.Insert(t); });
  }
  metrics.restore_nanos = restore.ElapsedNanos();

  Stopwatch derive;
  for (CheckpointView& view : manifest->views) {
    std::vector<std::unique_ptr<BaseDeltaLog>> pending;
    RestoredHealth health;
    health.quarantined = view.quarantined;
    health.reason = view.quarantine_reason;
    health.sticky = view.quarantine_sticky;
    try {
      // `ReadManifest` checked that a backlog covers every base.
      for (size_t i = 0; i < view.pending.size(); ++i) {
        Schema schema = view.definition.AliasedSchema(*db, i);
        if (ColumnTypesOf(schema) != view.pending[i].types) {
          throw CorruptionError("its pending log has other columns");
        }
        auto log = std::make_unique<BaseDeltaLog>(std::move(schema));
        for (const auto& t : view.pending[i].inserts) log->LogInsert(t);
        for (const auto& t : view.pending[i].deletes) log->LogDelete(t);
        pending.push_back(std::move(log));
      }
      view.pending.clear();
      views->RestoreView(std::move(view.definition), view.mode, view.options,
                         std::move(pending), std::move(health));
    } catch (const Error& e) {
      // Evaluation failures are contained by `RestoreView` (a quarantine);
      // what lands here is a view the restored tables cannot hold.
      throw CorruptionError("checkpoint: view " + view.name +
                            " does not fit its tables: " + e.what());
    }
  }
  metrics.derive_nanos = derive.ElapsedNanos();
  views->changed_scopes().Clear();
}

void ReplayCatalog(CatalogChange&& change, ViewManager* views,
                   std::vector<ViewDefinition>* assertions) {
  using Kind = CatalogChange::Kind;
  switch (change.kind) {
    case Kind::kCreateTable:
      views->CreateTable(change.name, std::move(change.schema));
      break;
    case Kind::kDropTable:
      views->DropTable(change.name);
      break;
    case Kind::kCreateView:
      views->RegisterView(std::move(change.view.definition), change.view.mode,
                          change.view.options);
      break;
    case Kind::kDropView:
      views->DropView(change.name);
      break;
    case Kind::kCreateAssertion:
      assertions->push_back(std::move(change.assertion));
      break;
    case Kind::kDropAssertion:
      std::erase_if(*assertions, [&](const ViewDefinition& def) {
        return def.name() == change.name;
      });
      break;
  }
}

TransactionEffect ToEffect(const WalRecord& record, const Database& db) {
  TransactionEffect effect;
  for (const auto& change : record.changes) {
    const Relation* rel = db.Find(change.relation);
    if (rel == nullptr) {
      throw CorruptionError("wal replay: record " + std::to_string(record.lsn) +
                            " touches unknown relation " + change.relation);
    }
    if (ColumnTypesOf(rel->schema()) != change.types) {
      throw CorruptionError("wal replay: record " + std::to_string(record.lsn) +
                            " has the wrong columns for " + change.relation);
    }
    RelationEffect& re = effect.Mutable(change.relation, rel->schema());
    for (const auto& t : change.inserts) re.inserts.Insert(t);
    for (const auto& t : change.deletes) re.deletes.Insert(t);
  }
  return effect;
}

}  // namespace mview::storage
