#ifndef MVIEW_STORAGE_RECOVERY_H_
#define MVIEW_STORAGE_RECOVERY_H_

#include <string>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "ivm/view_manager.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"

namespace mview::storage {

/// Rebuilds base relations and views from the checkpoint `manifest` in
/// `dir`.  Each table's image (base plus chain) is decoded straight into
/// the `Database` relation created for it; then each view is derived from
/// the tables by `ViewManager::RestoreView`, in manifest order, with its
/// pending backlog moved out of `manifest`.  Times both steps
/// (`StorageMetrics::restore_nanos`, `derive_nanos`).  Leaves the
/// manager's changed-table set empty: what it installed is the image.  The
/// caller replays the WAL tail afterwards and registers assertions last.
/// Expects an empty database/manager.  Throws
/// `CorruptionError` when a segment or a pending log fails validation, or
/// a view's definition does not fit its tables.
void InstallCheckpoint(const std::string& dir, CheckpointManifest* manifest,
                       Database* db, ViewManager* views);

/// Replays one logged catalog change in its place in the history: tables
/// and views go through the same `ViewManager` calls the engine makes (a
/// created view is evaluated against the bases as replay has rebuilt them
/// so far, and both mark their checkpoint scopes created), while assertion
/// changes only edit `assertions`, which the caller registers once replay
/// is done.
void ReplayCatalog(CatalogChange&& change, ViewManager* views,
                   std::vector<ViewDefinition>* assertions);

/// Converts a decoded WAL record back into a `TransactionEffect` against
/// `db`'s catalog (schemas are looked up by relation name; throws
/// `CorruptionError` when a record names an unknown relation — impossible
/// for an intact log, whose catalog records replay in LSN order before the
/// effects that depend on them).
TransactionEffect ToEffect(const WalRecord& record, const Database& db);

}  // namespace mview::storage

#endif  // MVIEW_STORAGE_RECOVERY_H_
