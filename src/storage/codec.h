#ifndef MVIEW_STORAGE_CODEC_H_
#define MVIEW_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ivm/differential.h"
#include "ivm/view_def.h"
#include "ivm/view_manager.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "util/error.h"

namespace mview::storage {

// The storage exception types now live in `util/error.h` (the process-wide
// fault registry throws them from arbitrary layers); these aliases keep
// every existing `storage::IoError` / `storage::CorruptionError` reference
// and catch site compiling against the same types.
using mview::CorruptionError;
using mview::IoError;

/// CRC-32 (IEEE, reflected) over `data` — the integrity check of WAL
/// records and checkpoint files.
uint32_t Crc32(const void* data, size_t size);

/// One view's captured state: definition, maintenance configuration, the
/// *exact* materialization (a deferred view may be stale — recovery must
/// not lose that), and the pending change backlog.  The checkpoint
/// manifest stores everything but `materialized` (whose rows live in
/// segments); a logged CREATE VIEW stores only the metadata.
struct CheckpointView {
  struct PendingLog {
    std::vector<Tuple> inserts;
    std::vector<Tuple> deletes;
  };

  std::string name;
  MaintenanceMode mode = MaintenanceMode::kImmediate;
  MaintenanceOptions options;
  ViewDefinition definition;
  CountedRelation materialized;
  /// One entry per base occurrence for deferred views; empty otherwise.
  std::vector<PendingLog> pending;
  /// View health at checkpoint time: a quarantined view stays quarantined
  /// across recovery (its materialization is untrusted until repaired).
  bool quarantined = false;
  std::string quarantine_reason;
  bool quarantine_sticky = false;
};

/// One catalog change (DDL statement), as a `kCatalog` log record carries
/// it.  Every kind sets `name`; creations also set the field named after
/// their kind.  A created view's rows are not logged: replay re-derives
/// them from the bases at the same point of the history.
struct CatalogChange {
  enum class Kind : uint8_t {
    kCreateTable = 0,
    kDropTable = 1,
    kCreateView = 2,
    kDropView = 3,
    kCreateAssertion = 4,
    kDropAssertion = 5,
  };
  Kind kind = Kind::kCreateTable;
  std::string name;
  Schema schema;             // kCreateTable
  CheckpointView view;       // kCreateView: definition, mode, options
  ViewDefinition assertion;  // kCreateAssertion: the error predicate
};

/// Little-endian primitives of the storage wire format, shared by the WAL
/// record codec and the checkpoint file codec.
namespace wire {

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutString(std::string* out, const std::string& s);
/// Self-describing value: a type tag byte then the payload.
void PutValue(std::string* out, const Value& v);
void PutTuple(std::string* out, const Tuple& t);

/// A bounds-checked cursor over encoded bytes; every getter throws
/// `CorruptionError` on underflow or a bad tag.
class Reader {
 public:
  Reader(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(const std::string& data) : Reader(data.data(), data.size()) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64();
  std::string GetString();
  Value GetValue();
  Tuple GetTuple();

  /// Reads a u32 element count and validates it against the bytes left:
  /// every counted element encodes to at least one byte, so a count above
  /// `Remaining()` is impossible in a well-formed stream.  Throws
  /// `CorruptionError` instead of letting callers `reserve()` multi-GB
  /// vectors off a corrupt length prefix.
  uint32_t GetCount();

  bool AtEnd() const { return p_ == end_; }
  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  void Need(size_t n) const;
  const char* p_;
  const char* end_;
};

// Structural codec of catalog objects.  `Condition::ToString` is not
// re-parseable (it double-quotes string constants), so definitions are
// encoded field by field rather than as SQL text.  Every getter throws
// `CorruptionError` on malformed input.

void PutDefinition(std::string* out, const ViewDefinition& def);
ViewDefinition GetDefinition(Reader* r);

/// A view's metadata: everything in `CheckpointView` except the
/// materialization and the pending backlog.
void PutViewMeta(std::string* out, const CheckpointView& view);
CheckpointView GetViewMeta(Reader* r);

void PutCatalogChange(std::string* out, const CatalogChange& change);
CatalogChange GetCatalogChange(Reader* r);

}  // namespace wire
}  // namespace mview::storage

#endif  // MVIEW_STORAGE_CODEC_H_
