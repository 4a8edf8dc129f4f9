#ifndef MVIEW_STORAGE_CHECKPOINT_H_
#define MVIEW_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "ivm/integrity.h"
#include "ivm/view_def.h"
#include "ivm/view_manager.h"
#include "relational/relation.h"
#include "storage/codec.h"

namespace mview::storage {

/// A decoded checkpoint: everything needed to rebuild the engine state as
/// of `lsn`, after which the WAL tail (records with LSN > `lsn`) replays.
struct CheckpointData {
  uint64_t lsn = 0;
  std::vector<std::pair<std::string, Relation>> tables;
  std::vector<CheckpointView> views;
  /// Error-predicate definitions of registered assertions; re-registered
  /// *after* WAL replay so their error views reflect the final state.
  std::vector<ViewDefinition> assertions;
};

// --- the checkpoint image ---------------------------------------------------
//
// A checkpoint is a small manifest (`manifest.mv`) plus one row segment per
// (scope, hash partition) (`seg_<generation>_<seq>.mv`).  The manifest
// carries everything non-row — LSN, table names, view
// definitions/options/health/pending backlogs, assertions — plus, per
// scope, the ordered list of segment files holding its partitions' rows.
// Writing a new checkpoint rewrites only the segments of partitions the
// dirty map reports changed; clean partitions carry their previous
// generation's file forward, so checkpoint cost is O(dirty partitions),
// not O(database).  Catalog changes need no special case: a created table
// or view marks its whole scope dirty, and a scope absent from the
// previous manifest is written fresh.
//
// The manifest rename is the commit point: segments are written and
// fsynced first (a crash leaves unreferenced orphans, removed by the next
// writer's sweep), then the manifest replaces its predecessor atomically.
// Pending backlogs ride in the manifest rather than in segments because
// deferred logging mutates them without touching the materialization —
// the dirty map tracks rows, and the manifest is rewritten every time.
//
// Every file shares one frame: 8-byte magic, CRC32 of the body, body
// length, body.  A segment's body is the CSV of its rows (the
// `relational/` codec, sorted, so equal slices encode to equal bytes).

/// One scope's (table's or view's) segment listing: `segments[p]` holds
/// partition `p`'s rows.  Size always equals the manifest's `partitions`.
struct SegmentList {
  std::string name;
  std::vector<std::string> segments;  // file names relative to the dir
};

/// A decoded `manifest.mv`.  `views` metadata lives in `view_meta`
/// (parallel to `view_segments`) with `materialized` left empty — rows
/// live in the segments.
struct CheckpointManifest {
  uint64_t lsn = 0;
  uint64_t generation = 0;  // monotonic per manifest write
  uint32_t partitions = 0;  // row-hash partition count of every scope
  std::vector<SegmentList> tables;
  std::vector<CheckpointView> view_meta;  // materialized empty
  std::vector<SegmentList> view_segments;
  std::vector<ViewDefinition> assertions;
};

/// Byte/segment accounting of one incremental write.
struct IncrementalStats {
  uint64_t bytes_written = 0;      // manifest + fresh segments
  int64_t segments_written = 0;    // fresh segment files
  int64_t partitions_skipped = 0;  // carried forward unchanged
};

/// Writes a checkpoint into `dir`.  Partitions whose scope is clean in
/// `dirty` reuse `prev`'s segments; everything else (no `prev`,
/// partition-count mismatch, scope absent from `prev`, or dirty) is
/// rewritten.  Fires "checkpoint.write" once up front and
/// "checkpoint.segment" before each fresh segment; a failure at either
/// leaves the previous manifest fully authoritative.  After the manifest
/// commits, unreferenced `seg_*.mv` files are removed.  Throws `IoError`
/// on file errors.  Returns the new manifest.
CheckpointManifest WriteIncrementalCheckpoint(
    const std::string& dir, uint64_t lsn, const Database& db,
    const ViewManager& views, const IntegrityGuard* guard,
    const PartitionDirtyMap& dirty, uint32_t partitions,
    const CheckpointManifest* prev, IncrementalStats* stats);

/// A checkpoint read back by `ReadIncrementalCheckpoint`: the assembled
/// state plus the manifest it came from (the next write carries that
/// manifest's clean segments forward).
struct RecoveredCheckpoint {
  CheckpointData data;
  CheckpointManifest manifest;
};

/// Reads the checkpoint in `dir`.  Returns nullopt when no manifest exists
/// (a fresh database); throws `CorruptionError` when the manifest or a
/// segment it names fails validation (bad magic, CRC mismatch, undecodable
/// body, a segment name outside `seg_<gen>_<seq>.mv`, a missing segment)
/// and `IoError` on read errors.
std::optional<RecoveredCheckpoint> ReadIncrementalCheckpoint(
    const std::string& dir);

}  // namespace mview::storage

#endif  // MVIEW_STORAGE_CHECKPOINT_H_
