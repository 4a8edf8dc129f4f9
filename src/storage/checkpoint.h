#ifndef MVIEW_STORAGE_CHECKPOINT_H_
#define MVIEW_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/database.h"
#include "ivm/integrity.h"
#include "ivm/view_def.h"
#include "ivm/view_manager.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "storage/codec.h"

namespace mview::storage {

// --- the checkpoint image ---------------------------------------------------
//
// A checkpoint is a small manifest (`manifest.mv`) plus, per table
// ("scope"), a chain of row segments (`seg_<generation>_<seq>.mv`).  The
// chain's first file is the table's *base*: every row, sorted.  Each later
// file is a *delta* written by one later checkpoint: every row that came or
// went since the chain's previous file, sorted, with its multiplicity
// after that checkpoint — 1 when present, 0 when gone.  A table's image is
// its base with the deltas applied in order.  The manifest carries
// everything else — LSN, table schemas, view definitions, options, health
// and pending backlogs, assertions — plus each table's chain.
//
// Views are derived state with no rows in the image: recovery re-evaluates
// each from the tables (a deferred view with its backlog undone; see
// `InstallCheckpoint`), so the manifest keeps only what evaluation cannot
// recover — each view's definition, mode, options, health and backlog.
//
// The view manager records which tables changed since the last
// checkpoint, not which rows (`ChangedScopes`).  For each changed table
// the writer stream-merges the image on disk with the table's rows in
// memory, sorted, and appends the differences as one delta; a table that
// did not change, or whose merge finds no difference, carries its chain
// forward untouched.  So a checkpoint costs bytes in proportion to the
// base rows that changed.  A table created (or dropped and re-created)
// since the last checkpoint gets a fresh base: it never inherits a
// predecessor's chain.
//
// Compaction: when appending the delta would make the chain hold more
// than `kMaxDeltas` deltas or more delta bytes than its base, the writer
// writes a fresh base instead and drops the chain.  The byte rule bounds
// a table's files at twice its base, so the space on disk and the bytes
// recovery reads stay within a constant of the live rows; the count rule
// bounds how many files recovery and the next merge open per table.  Both
// are fixed: they trade write volume against those bounds, not a
// deployment choice.
//
// The manifest rename is the commit point: segments are written and
// fsynced first (a crash leaves unreferenced orphans, removed by the next
// writer's sweep), then the manifest replaces its predecessor atomically
// (`File::Replace`: temp write, fsync, rename, directory sync).  Under the
// ordered crash model of `storage/file.h` that directory sync also makes
// the segments' names durable.  A failed one fails the checkpoint, and the
// caller keeps building on the previous manifest, but under a later
// generation than the failed write's: that write's manifest may already be
// the file on disk, and its `seg_<generation>_*` files must not be
// rewritten.
//
// Every file shares one frame: 8-byte magic, CRC32 of the body, body
// length, body.  A segment's body is a kind byte (`SegmentKind`), the
// column-type header, and its rows, strictly ascending, as one packed
// block (`wire::PutPackedRows`): column-major and bit-packed, with a
// delta's multiplicity column last (a base's rows each count once, so it
// has none).  A sorted set of narrow columns packs to a few bits per
// value.  The manifest stores each pending backlog's inserts and deletes
// as packed blocks too.

/// Deltas a chain may hold before the next change compacts it.
constexpr size_t kMaxDeltas = 8;

/// What a segment holds; the first byte of its body.
enum class SegmentKind : uint8_t {
  kBase = 0,   // rows, each counted once
  kDelta = 1,  // rows with their multiplicity after the change (0 or 1)
};

/// One file of a chain and its size on disk (frame included).
struct SegmentRef {
  std::string file;  // relative to the checkpoint directory
  uint64_t bytes = 0;
};

/// One table's checkpointed rows: its schema and its chain — `chain[0]`
/// is the base, the rest are deltas, oldest first.
struct ScopeImage {
  std::string name;
  Schema schema;
  std::vector<SegmentRef> chain;
};

/// A decoded `manifest.mv`: each table's image, and each view's
/// metadata and pending backlog, in the order recovery derives them.
struct CheckpointManifest {
  uint64_t lsn = 0;
  uint64_t generation = 0;  // monotonic per manifest write
  std::vector<ScopeImage> tables;
  std::vector<CheckpointView> views;
  std::vector<ViewDefinition> assertions;
};

/// Accounting of one checkpoint write.
struct CheckpointStats {
  uint64_t bytes_written = 0;    // every file written: segments + manifest
  uint64_t base_bytes = 0;       // fresh bases and compactions
  uint64_t delta_bytes = 0;      // delta segments
  int64_t segments_written = 0;  // bases and deltas
  int64_t scopes_skipped = 0;    // table chains carried forward unchanged
};

/// Writes a checkpoint of `db`'s tables, `views`' definitions and backlogs
/// and `guard`'s assertions into `dir` at `lsn`.  Tables absent from `prev`
/// (or every table, when `prev` is null) get a fresh base; the rest follow
/// the chain rules above, with `changed` naming the tables that may differ
/// from `prev`'s image.
/// Fires "checkpoint.write" once up front, "checkpoint.segment" before
/// each segment and "checkpoint.manifest" after the last one, before the
/// manifest commits; a failure at any of them leaves the previous manifest
/// fully authoritative.  After the manifest commits, unreferenced `seg_*.mv`
/// files are removed.  Throws `IoError` on file errors and
/// `CorruptionError` when a chain it must merge fails validation.
/// Returns the new manifest.
CheckpointManifest WriteCheckpoint(const std::string& dir, uint64_t lsn,
                                   const Database& db,
                                   const ViewManager& views,
                                   const IntegrityGuard* guard,
                                   const ChangedScopes& changed,
                                   const CheckpointManifest* prev,
                                   CheckpointStats* stats);

/// Reads the manifest in `dir`.  Returns nullopt when none exists (a
/// fresh database); throws `CorruptionError` when it fails validation (bad
/// magic, CRC mismatch, undecodable body, an empty or overlong chain, a
/// segment name outside `seg_<gen>_<seq>.mv`, a duplicate table or view, a
/// view over a table the manifest lacks, a backlog that does not cover
/// every base of its view) and `IoError` on read errors.
std::optional<CheckpointManifest> ReadManifest(const std::string& dir);

/// Streams a table's image — base with the chain applied — to `fn`, each
/// live row once, in ascending order.  Throws `CorruptionError` when a
/// segment is missing, fails its frame, or does not decode as the chain
/// position and `scope.schema` require (wrong kind or column types, rows
/// out of order, bad counts).
void ScanImage(const std::string& dir, const ScopeImage& scope,
               const std::function<void(const Tuple&)>& fn);

}  // namespace mview::storage

#endif  // MVIEW_STORAGE_CHECKPOINT_H_
