#ifndef MVIEW_STORAGE_CODEC_H_
#define MVIEW_STORAGE_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
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
/// Fixed-width fields are little-endian.  Varints are LEB128 and must be
/// minimal; the decoder rejects overlong ones.  Rows come in two codecs,
/// both after a column-type header (varint arity, then one `ValueType` byte
/// per column):
///
/// - The *row codec* stores each row as its values in column order with no
///   per-value tag — an int64 as a zigzag varint, a string as a varint
///   length and its bytes.  WAL effect records use it: a record holds a few
///   unsorted rows per relation, too few for per-column headers to pay.
/// - The *packed block* is column-major and bit-packed, for the sorted sets
///   a checkpoint writes (base and delta segments, a deferred view's pending
///   backlog).  See `PutPackedRows`.
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

/// One row of a packed block and its multiplicity.
using CountedRow = std::pair<const Tuple*, int64_t>;

/// Appends a packed block of `rows`, which must be strictly ascending and
/// of the column types `types` (the header is not written): a varint row
/// count, then one packed column per schema column, then — when `counted`
/// — the multiplicity column.  A packed column is a zigzag-varint
/// frame-of-reference base, a width byte (0–64) and the row count's
/// `width`-bit unsigned offsets from the base, least significant bit
/// first, in ⌈n·width/8⌉ bytes.  Column 0, when it is an int64, stores the
/// gap from the previous row instead (the first row's from the base), so
/// its value is the base plus a running sum; the ascending order keeps
/// every gap non-negative.  A string column packs its lengths that way and
/// then holds the strings' bytes back to back.
void PutPackedRows(std::string* out, const ColumnTypes& types,
                   std::span<const CountedRow> rows, bool counted);

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

  /// The next `n` bytes, skipped over.
  const char* Take(size_t n);

  bool AtEnd() const { return p_ == end_; }
  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  void Need(size_t n) const;
  const char* p_;
  const char* end_;
};

/// Streams the rows of a packed block (`PutPackedRows`) in order.  The
/// constructor consumes the whole block from `r` and validates its layout
/// before anything is sized from it: widths at most 64, a row count the
/// packed bytes can hold, string lengths that fit the bytes.  `Next` then
/// decodes one row at fixed bit offsets and checks that every value stays
/// in int64 and that the rows strictly ascend.  Every failure throws
/// `CorruptionError`.  The block's bytes must outlive the reader.
class PackedReader {
 public:
  PackedReader(Reader* r, const ColumnTypes& types, bool counted);
  PackedReader(const PackedReader&) = delete;
  PackedReader& operator=(const PackedReader&) = delete;

  /// Moves to the next row; false once past the last.
  bool Next();
  const Tuple& row() const { return row_; }
  /// The row's multiplicity; 1 in an uncounted block.
  int64_t count() const { return count_; }

 private:
  struct Column {
    int64_t base = 0;
    uint8_t width = 0;
    const unsigned char* bits = nullptr;
    const char* bytes = nullptr;  // a string column's bytes
    int64_t last = 0;             // column 0's running value
  };
  int64_t Decode(const Column& column, uint64_t i) const;

  ColumnTypes types_;
  std::vector<Column> columns_;  // then the multiplicity column, if counted
  bool counted_;
  uint64_t n_ = 0;
  uint64_t next_ = 0;
  Tuple row_;
  int64_t count_ = 1;
};

/// Decodes a whole uncounted packed block.
std::vector<Tuple> GetPackedRows(Reader* r, const ColumnTypes& types);

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
