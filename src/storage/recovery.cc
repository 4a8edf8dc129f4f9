#include "storage/recovery.h"

#include <memory>
#include <vector>

#include "ivm/snapshot.h"
#include "util/error.h"

namespace mview::storage {

void InstallCheckpoint(const std::string& dir, CheckpointManifest* manifest,
                       Database* db, ViewManager* views) {
  MVIEW_CHECK(manifest != nullptr && db != nullptr && views != nullptr,
              "null recovery target");
  MVIEW_CHECK(db->Names().empty() && views->ViewNames().empty(),
              "recovery requires an empty engine");

  for (const ScopeImage& table : manifest->tables) {
    Relation& rel = db->CreateRelation(table.name, table.schema);
    ScanImage(dir, table, /*counted=*/false,
              [&](const Tuple& t, int64_t) { rel.Insert(t); });
  }

  for (size_t v = 0; v < manifest->views.size(); ++v) {
    CheckpointView& view = manifest->views[v];
    const ScopeImage& image = manifest->view_images[v];
    if (!(image.schema == view.definition.OutputSchema(*db))) {
      throw CorruptionError("checkpoint: image of view " + view.name +
                            " does not match its definition's columns");
    }
    CountedRelation rows(image.schema);
    ScanImage(dir, image, /*counted=*/true,
              [&](const Tuple& t, int64_t count) { rows.Add(t, count); });
    std::vector<std::unique_ptr<BaseDeltaLog>> pending;
    if (view.mode == MaintenanceMode::kDeferred && !view.pending.empty()) {
      MVIEW_CHECK(view.pending.size() == view.definition.bases().size(),
                  "checkpointed pending logs do not cover every base of ",
                  view.name);
      for (size_t i = 0; i < view.pending.size(); ++i) {
        Schema schema = view.definition.AliasedSchema(*db, i);
        if (ColumnTypesOf(schema) != view.pending[i].types) {
          throw CorruptionError("checkpoint: pending log of " + view.name +
                                " does not match its base's columns");
        }
        auto log = std::make_unique<BaseDeltaLog>(std::move(schema));
        for (const auto& t : view.pending[i].inserts) log->LogInsert(t);
        for (const auto& t : view.pending[i].deletes) log->LogDelete(t);
        pending.push_back(std::move(log));
      }
      view.pending.clear();
    }
    RestoredHealth health;
    health.quarantined = view.quarantined;
    health.reason = view.quarantine_reason;
    health.sticky = view.quarantine_sticky;
    views->RestoreView(view.definition, view.mode, view.options,
                       std::move(rows), std::move(pending), std::move(health));
  }
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

void InstallAssertions(const std::vector<ViewDefinition>& assertions,
                       IntegrityGuard* guard) {
  MVIEW_CHECK(guard != nullptr, "null integrity guard");
  for (const auto& def : assertions) guard->AddAssertion(def);
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
