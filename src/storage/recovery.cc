#include "storage/recovery.h"

#include <memory>
#include <vector>

#include "ivm/snapshot.h"
#include "util/error.h"

namespace mview::storage {

void InstallCheckpoint(CheckpointData&& data, Database* db,
                       ViewManager* views) {
  MVIEW_CHECK(db != nullptr && views != nullptr, "null recovery target");
  MVIEW_CHECK(db->Names().empty() && views->ViewNames().empty(),
              "recovery requires an empty engine");

  for (auto& [name, contents] : data.tables) {
    Relation& rel = db->CreateRelation(name, contents.schema());
    contents.Scan([&](const Tuple& t) { rel.Insert(t); });
  }

  for (auto& view : data.views) {
    std::vector<std::unique_ptr<BaseDeltaLog>> pending;
    if (view.mode == MaintenanceMode::kDeferred && !view.pending.empty()) {
      MVIEW_CHECK(view.pending.size() == view.definition.bases().size(),
                  "checkpointed pending logs do not cover every base of ",
                  view.name);
      for (size_t i = 0; i < view.pending.size(); ++i) {
        auto log = std::make_unique<BaseDeltaLog>(
            view.definition.AliasedSchema(*db, i));
        for (const auto& t : view.pending[i].inserts) log->LogInsert(t);
        for (const auto& t : view.pending[i].deletes) log->LogDelete(t);
        pending.push_back(std::move(log));
      }
    }
    RestoredHealth health;
    health.quarantined = view.quarantined;
    health.reason = std::move(view.quarantine_reason);
    health.sticky = view.quarantine_sticky;
    views->RestoreView(std::move(view.definition), view.mode, view.options,
                       std::move(view.materialized), std::move(pending),
                       std::move(health));
  }
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
    RelationEffect& re = effect.Mutable(change.relation, rel->schema());
    for (const auto& t : change.inserts) re.inserts.Insert(t);
    for (const auto& t : change.deletes) re.deletes.Insert(t);
  }
  return effect;
}

}  // namespace mview::storage
