#ifndef MVIEW_STORAGE_CODEC_H_
#define MVIEW_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ivm/differential.h"
#include "ivm/view_def.h"
#include "ivm/view_manager.h"
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

/// The column types of a block of rows: what the row codec's header holds.
using ColumnTypes = std::vector<ValueType>;
ColumnTypes ColumnTypesOf(const Schema& schema);

/// One view's captured state minus its rows: definition, maintenance
/// configuration, health, and the pending change backlog.  The checkpoint
/// manifest stores all of it (the rows live in the view's segment chain);
/// a logged CREATE VIEW stores only the metadata.
struct CheckpointView {
  struct PendingLog {
    ColumnTypes types;  // of the base occurrence's aliased schema
    std::vector<Tuple> inserts;
    std::vector<Tuple> deletes;
  };

  std::string name;
  MaintenanceMode mode = MaintenanceMode::kImmediate;
  MaintenanceOptions options;
  ViewDefinition definition;
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

/// Primitives of the storage wire format, shared by the WAL record codec
/// and the checkpoint file codec.
///
/// Fixed-width fields are little-endian.  Rows use one compact codec
/// everywhere `src/storage/` writes them (WAL effect records, a deferred
/// view's pending log in the manifest, base and delta segments): a block
/// of rows starts with a column-type header (varint arity, then one
/// `ValueType` byte per column), and each row is its values in column
/// order with no per-value tag — an int64 as a zigzag varint, a string as
/// a varint length and its bytes.  Varints are LEB128 and must be minimal;
/// the decoder rejects overlong ones.
namespace wire {

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutString(std::string* out, std::string_view s);
/// Self-describing value (a type tag byte then the payload) — for the
/// constants of a stored condition, where no header fixes the type.
void PutValue(std::string* out, const Value& v);

void PutVarint(std::string* out, uint64_t v);
void PutZigzag(std::string* out, int64_t v);
/// The row codec's column-type header.  `types` must not be empty.
void PutRowHeader(std::string* out, const ColumnTypes& types);
/// One row, untagged; its value types must be the header's.
void PutRow(std::string* out, const Tuple& row);
/// A varint row count, then the rows.
void PutRows(std::string* out, const std::vector<Tuple>& rows);

/// A bounds-checked cursor over encoded bytes; every getter throws
/// `CorruptionError` on underflow, a bad tag or an overlong varint.
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

  uint64_t GetVarint();
  int64_t GetZigzag();
  ColumnTypes GetRowHeader();
  Tuple GetRow(const ColumnTypes& types);
  std::vector<Tuple> GetRows(const ColumnTypes& types);

  /// Reads a u32 (`GetCount`) or varint (`GetVarCount`) element count and
  /// validates it against the bytes left: every counted element encodes
  /// to at least one byte, so a count above `Remaining()` is impossible in
  /// a well-formed stream.  Throws `CorruptionError` instead of letting
  /// callers `reserve()` multi-GB vectors off a corrupt length prefix.
  uint32_t GetCount();
  uint64_t GetVarCount();

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

/// A view's metadata: everything in `CheckpointView` except the pending
/// backlog.
void PutViewMeta(std::string* out, const CheckpointView& view);
CheckpointView GetViewMeta(Reader* r);

void PutSchema(std::string* out, const Schema& schema);
Schema GetSchema(Reader* r);

void PutCatalogChange(std::string* out, const CatalogChange& change);
CatalogChange GetCatalogChange(Reader* r);

}  // namespace wire
}  // namespace mview::storage

#endif  // MVIEW_STORAGE_CODEC_H_
