#include "storage/codec.h"

#include <algorithm>
#include <array>
#include <bit>

namespace mview::storage {

ColumnTypes ColumnTypesOf(const Schema& schema) {
  ColumnTypes types;
  types.reserve(schema.size());
  for (const auto& attr : schema.attributes()) types.push_back(attr.type);
  return types;
}

uint32_t Crc32(const void* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace wire {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  if (v.type() == ValueType::kInt64) {
    PutU8(out, 0);
    PutI64(out, v.AsInt64());
  } else {
    PutU8(out, 1);
    PutString(out, v.AsString());
  }
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutZigzag(std::string* out, int64_t v) {
  PutVarint(out, (static_cast<uint64_t>(v) << 1) ^
                     static_cast<uint64_t>(v >> 63));
}

void PutRowHeader(std::string* out, const ColumnTypes& types) {
  MVIEW_CHECK(!types.empty(), "row codec: a row needs at least one column");
  PutVarint(out, types.size());
  for (ValueType type : types) PutU8(out, static_cast<uint8_t>(type));
}

void PutRow(std::string* out, const Tuple& row) {
  for (const Value& v : row.values()) {
    if (v.type() == ValueType::kInt64) {
      PutZigzag(out, v.AsInt64());
    } else {
      std::string_view s = v.AsString();
      PutVarint(out, s.size());
      out->append(s);
    }
  }
}

void PutRows(std::string* out, const std::vector<Tuple>& rows) {
  PutVarint(out, rows.size());
  for (const Tuple& row : rows) PutRow(out, row);
}

void Reader::Need(size_t n) const {
  if (static_cast<size_t>(end_ - p_) < n) {
    throw CorruptionError("storage decode: record truncated");
  }
}

uint8_t Reader::GetU8() {
  Need(1);
  return static_cast<uint8_t>(*p_++);
}

uint32_t Reader::GetU32() {
  Need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
  }
  p_ += 4;
  return v;
}

uint64_t Reader::GetU64() {
  Need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
  }
  p_ += 8;
  return v;
}

int64_t Reader::GetI64() { return static_cast<int64_t>(GetU64()); }

std::string Reader::GetString() {
  uint32_t n = GetU32();
  Need(n);
  std::string s(p_, n);
  p_ += n;
  return s;
}

Value Reader::GetValue() {
  uint8_t tag = GetU8();
  if (tag == 0) return Value(GetI64());
  if (tag == 1) return Value(GetString());
  throw CorruptionError("storage decode: unknown value tag " +
                        std::to_string(tag));
}

uint32_t Reader::GetCount() {
  uint32_t n = GetU32();
  if (n > Remaining()) {
    throw CorruptionError("storage decode: element count " +
                          std::to_string(n) + " exceeds the " +
                          std::to_string(Remaining()) + " bytes remaining");
  }
  return n;
}

uint64_t Reader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    uint8_t byte = GetU8();
    // The tenth byte holds bit 63 alone; anything more overflows.
    if (shift == 63 && byte > 1) {
      throw CorruptionError("storage decode: varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // A zero final byte after others pads the value: overlong.
      if (byte == 0 && shift > 0) {
        throw CorruptionError("storage decode: overlong varint");
      }
      return v;
    }
  }
}

int64_t Reader::GetZigzag() {
  uint64_t u = GetVarint();
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

uint64_t Reader::GetVarCount() {
  uint64_t n = GetVarint();
  if (n > Remaining()) {
    throw CorruptionError("storage decode: element count " +
                          std::to_string(n) + " exceeds the " +
                          std::to_string(Remaining()) + " bytes remaining");
  }
  return n;
}

ColumnTypes Reader::GetRowHeader() {
  uint64_t arity = GetVarCount();
  if (arity == 0) throw CorruptionError("storage decode: empty row header");
  ColumnTypes types;
  types.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    uint8_t type = GetU8();
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      throw CorruptionError("storage decode: bad column type tag " +
                            std::to_string(type));
    }
    types.push_back(static_cast<ValueType>(type));
  }
  return types;
}

Tuple Reader::GetRow(const ColumnTypes& types) {
  return Tuple::Build(types.size(), [&](size_t i) {
    if (types[i] == ValueType::kInt64) return Value(GetZigzag());
    uint64_t n = GetVarint();
    Need(n);
    Value v(std::string_view(p_, n));
    p_ += n;
    return v;
  });
}

std::vector<Tuple> Reader::GetRows(const ColumnTypes& types) {
  // Every column takes at least one byte, so the clamp holds per row.
  uint64_t n = GetVarCount();
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) rows.push_back(GetRow(types));
  return rows;
}

const char* Reader::Take(size_t n) {
  Need(n);
  const char* at = p_;
  p_ += n;
  return at;
}

// --- packed blocks -----------------------------------------------------------

namespace {

/// Appends `width`-bit values to a byte string, least significant bit
/// first; `Flush` pads the last byte with zeros.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  void Put(uint64_t v, int width) {
    while (width > 0) {
      const int take = std::min(width, 8 - used_);
      cur_ |= static_cast<unsigned>(v & ((1u << take) - 1)) << used_;
      v >>= take;
      width -= take;
      used_ += take;
      if (used_ == 8) Flush();
    }
  }

  void Flush() {
    if (used_ == 0) return;
    out_->push_back(static_cast<char>(cur_));
    cur_ = 0;
    used_ = 0;
  }

 private:
  std::string* out_;
  unsigned cur_ = 0;
  int used_ = 0;
};

/// The `width`-bit value at bit `at` of `bits`; reads only the bytes that
/// hold it.
uint64_t Unpack(const unsigned char* bits, uint64_t at, int width) {
  if (width == 0) return 0;
  const unsigned char* p = bits + at / 8;
  const int shift = static_cast<int>(at % 8);
  uint64_t v = *p >> shift;
  for (int got = 8 - shift; got < width; got += 8) {
    v |= static_cast<uint64_t>(*++p) << got;
  }
  return width == 64 ? v : v & ((uint64_t{1} << width) - 1);
}

/// `base + offset`, or `CorruptionError` when that leaves int64.  The
/// unsigned difference `INT64_MAX - base` is exact for every base.
int64_t AddOffset(int64_t base, uint64_t offset) {
  const uint64_t headroom = static_cast<uint64_t>(INT64_MAX) -
                            static_cast<uint64_t>(base);
  if (offset > headroom) {
    throw CorruptionError("storage decode: packed value overflows int64");
  }
  return static_cast<int64_t>(static_cast<uint64_t>(base) + offset);
}

/// One packed column of `offsets` from `base`.
void PutPackedColumn(std::string* out, int64_t base,
                     const std::vector<uint64_t>& offsets) {
  uint64_t any = 0;
  for (uint64_t u : offsets) any |= u;
  const int width = std::bit_width(any);
  PutZigzag(out, base);
  PutU8(out, static_cast<uint8_t>(width));
  BitWriter bits(out);
  for (uint64_t u : offsets) bits.Put(u, width);
  bits.Flush();
}

}  // namespace

void PutPackedRows(std::string* out, const ColumnTypes& types,
                   std::span<const CountedRow> rows, bool counted) {
  PutVarint(out, rows.size());
  std::vector<uint64_t> offsets(rows.size());
  // A frame-of-reference column of `value(i)`, based at the minimum.
  auto put_ints = [&](const auto& value) {
    int64_t base = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      base = i == 0 ? value(i) : std::min(base, value(i));
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      offsets[i] =
          static_cast<uint64_t>(value(i)) - static_cast<uint64_t>(base);
    }
    PutPackedColumn(out, base, offsets);
  };
  for (size_t c = 0; c < types.size(); ++c) {
    auto field = [&](size_t i) -> const Value& {
      return rows[i].first->values()[c];
    };
    if (types[c] == ValueType::kString) {
      put_ints([&](size_t i) {
        return static_cast<int64_t>(field(i).AsString().size());
      });
      for (size_t i = 0; i < rows.size(); ++i) out->append(field(i).AsString());
    } else if (c == 0) {
      const int64_t base = rows.empty() ? 0 : field(0).AsInt64();
      int64_t prev = base;
      for (size_t i = 0; i < rows.size(); ++i) {
        const int64_t v = field(i).AsInt64();
        offsets[i] = static_cast<uint64_t>(v) - static_cast<uint64_t>(prev);
        prev = v;
      }
      PutPackedColumn(out, base, offsets);
    } else {
      put_ints([&](size_t i) { return field(i).AsInt64(); });
    }
  }
  if (counted) put_ints([&](size_t i) { return rows[i].second; });
}

PackedReader::PackedReader(Reader* r, const ColumnTypes& types, bool counted)
    : types_(types), counted_(counted) {
  n_ = r->GetVarint();
  uint64_t payload = 0;  // bytes the columns take after their headers
  const size_t n_columns = types_.size() + (counted ? 1 : 0);
  columns_.reserve(n_columns);  // the header's arity is clamped to its bytes
  for (size_t c = 0; c < n_columns; ++c) {
    Column column;
    column.base = r->GetZigzag();
    column.width = r->GetU8();
    if (column.width > 64) {
      throw CorruptionError("storage decode: packed width " +
                            std::to_string(column.width) + " exceeds 64");
    }
    if (column.width > 0 && n_ > r->Remaining() * 8 / column.width) {
      throw CorruptionError("storage decode: " + std::to_string(n_) +
                            " packed rows exceed the bytes remaining");
    }
    const uint64_t packed = (n_ * column.width + 7) / 8;
    column.bits = reinterpret_cast<const unsigned char*>(r->Take(packed));
    payload += packed;
    if (c < types_.size() && types_[c] == ValueType::kString) {
      // Sum the lengths, each checked against the bytes left, before the
      // strings are taken.  Width 0 means one length for every row.
      uint64_t total = 0;
      const uint64_t left = r->Remaining();
      auto add = [&](int64_t len, uint64_t times) {
        if (len < 0 || (len > 0 && times > (left - total) /
                                               static_cast<uint64_t>(len))) {
          throw CorruptionError("storage decode: packed string lengths "
                                "exceed the bytes remaining");
        }
        total += static_cast<uint64_t>(len) * times;
      };
      if (column.width == 0) {
        add(column.base, n_);
      } else {
        for (uint64_t i = 0; i < n_; ++i) add(Decode(column, i), 1);
      }
      column.bytes = r->Take(total);
      payload += total;
    }
    column.last = column.base;
    columns_.push_back(column);
  }
  // Rows that take no bytes are all equal, and equal rows cannot ascend.
  if (n_ > 1 && payload == 0) {
    throw CorruptionError("storage decode: " + std::to_string(n_) +
                          " packed rows in no bytes");
  }
}

int64_t PackedReader::Decode(const Column& column, uint64_t i) const {
  return AddOffset(column.base, Unpack(column.bits, i * column.width,
                                       column.width));
}

bool PackedReader::Next() {
  if (next_ == n_) return false;
  const uint64_t i = next_++;
  Tuple row = Tuple::Build(types_.size(), [&](size_t c) {
    Column& column = columns_[c];
    if (types_[c] == ValueType::kString) {
      const auto len = static_cast<size_t>(Decode(column, i));
      Value v(std::string_view(column.bytes, len));
      column.bytes += len;
      return v;
    }
    if (c == 0) {
      column.last = AddOffset(
          column.last, Unpack(column.bits, i * column.width, column.width));
      return Value(column.last);
    }
    return Value(Decode(column, i));
  });
  if (counted_) count_ = Decode(columns_.back(), i);
  if (i > 0 && !(row_ < row)) {
    throw CorruptionError("storage decode: packed rows out of order");
  }
  row_ = std::move(row);
  return true;
}

std::vector<Tuple> GetPackedRows(Reader* r, const ColumnTypes& types) {
  PackedReader block(r, types, /*counted=*/false);
  std::vector<Tuple> rows;
  while (block.Next()) rows.push_back(block.row());
  return rows;
}

namespace {

void PutAtom(std::string* out, const Atom& atom) {
  PutString(out, atom.lhs);
  PutU8(out, static_cast<uint8_t>(atom.op));
  PutU8(out, atom.rhs_var.has_value() ? 1 : 0);
  if (atom.rhs_var.has_value()) {
    PutString(out, *atom.rhs_var);
    PutI64(out, atom.offset);
  } else {
    PutValue(out, atom.rhs_const);
  }
}

Atom GetAtom(Reader* r) {
  Atom atom;
  atom.lhs = r->GetString();
  uint8_t op = r->GetU8();
  if (op > static_cast<uint8_t>(CompareOp::kGe)) {
    throw CorruptionError("storage decode: bad comparison operator tag");
  }
  atom.op = static_cast<CompareOp>(op);
  if (r->GetU8() != 0) {
    atom.rhs_var = r->GetString();
    atom.offset = r->GetI64();
  } else {
    atom.rhs_const = r->GetValue();
  }
  return atom;
}

void PutCondition(std::string* out, const Condition& cond) {
  PutU32(out, static_cast<uint32_t>(cond.disjuncts().size()));
  for (const auto& conj : cond.disjuncts()) {
    PutU32(out, static_cast<uint32_t>(conj.atoms.size()));
    for (const auto& atom : conj.atoms) PutAtom(out, atom);
  }
}

Condition GetCondition(Reader* r) {
  uint32_t n_disjuncts = r->GetCount();
  std::vector<Conjunction> disjuncts;
  disjuncts.reserve(n_disjuncts);
  for (uint32_t d = 0; d < n_disjuncts; ++d) {
    Conjunction conj;
    uint32_t n_atoms = r->GetCount();
    conj.atoms.reserve(n_atoms);
    for (uint32_t a = 0; a < n_atoms; ++a) conj.atoms.push_back(GetAtom(r));
    disjuncts.push_back(std::move(conj));
  }
  return Condition(std::move(disjuncts));
}

void PutStrings(std::string* out, const std::vector<std::string>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const auto& s : v) PutString(out, s);
}

std::vector<std::string> GetStrings(Reader* r) {
  uint32_t n = r->GetCount();
  std::vector<std::string> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) v.push_back(r->GetString());
  return v;
}

}  // namespace

void PutSchema(std::string* out, const Schema& schema) {
  PutU32(out, static_cast<uint32_t>(schema.size()));
  for (const auto& attr : schema.attributes()) {
    PutString(out, attr.name);
    PutU8(out, static_cast<uint8_t>(attr.type));
  }
}

Schema GetSchema(Reader* r) {
  uint32_t n = r->GetCount();
  std::vector<Attribute> attrs;
  attrs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Attribute attr;
    attr.name = r->GetString();
    uint8_t type = r->GetU8();
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      throw CorruptionError("storage decode: bad attribute type tag");
    }
    attr.type = static_cast<ValueType>(type);
    attrs.push_back(std::move(attr));
  }
  return Schema(std::move(attrs));
}

void PutDefinition(std::string* out, const ViewDefinition& def) {
  PutString(out, def.name());
  PutU32(out, static_cast<uint32_t>(def.bases().size()));
  for (const auto& base : def.bases()) {
    PutString(out, base.relation);
    PutStrings(out, base.aliases);
  }
  PutCondition(out, def.condition());
  PutStrings(out, def.projection());
}

ViewDefinition GetDefinition(Reader* r) {
  std::string name = r->GetString();
  uint32_t n_bases = r->GetCount();
  std::vector<BaseRef> bases;
  bases.reserve(n_bases);
  for (uint32_t i = 0; i < n_bases; ++i) {
    BaseRef base;
    base.relation = r->GetString();
    base.aliases = GetStrings(r);
    bases.push_back(std::move(base));
  }
  Condition cond = GetCondition(r);
  std::vector<std::string> projection = GetStrings(r);
  return ViewDefinition(std::move(name), std::move(bases), std::move(cond),
                        std::move(projection));
}

void PutViewMeta(std::string* out, const CheckpointView& view) {
  PutString(out, view.name);
  PutU8(out, static_cast<uint8_t>(view.mode));
  PutU32(out, view.options.partition_count);
  PutU8(out, view.quarantined ? 1 : 0);
  PutString(out, view.quarantine_reason);
  PutU8(out, view.quarantine_sticky ? 1 : 0);
  PutDefinition(out, view.definition);
}

CheckpointView GetViewMeta(Reader* r) {
  CheckpointView view;
  view.name = r->GetString();
  uint8_t mode = r->GetU8();
  if (mode > static_cast<uint8_t>(MaintenanceMode::kFullReevaluation)) {
    throw CorruptionError("storage decode: bad maintenance mode tag");
  }
  view.mode = static_cast<MaintenanceMode>(mode);
  view.options.partition_count = r->GetU32();
  if (view.options.partition_count == 0 ||
      view.options.partition_count > kMaxPartitionCount) {
    throw CorruptionError("storage decode: view partition count out of range");
  }
  view.quarantined = r->GetU8() != 0;
  view.quarantine_reason = r->GetString();
  view.quarantine_sticky = r->GetU8() != 0;
  view.definition = GetDefinition(r);
  return view;
}

void PutCatalogChange(std::string* out, const CatalogChange& change) {
  using Kind = CatalogChange::Kind;
  PutU8(out, static_cast<uint8_t>(change.kind));
  PutString(out, change.name);
  switch (change.kind) {
    case Kind::kCreateTable:
      PutSchema(out, change.schema);
      break;
    case Kind::kCreateView:
      PutViewMeta(out, change.view);
      break;
    case Kind::kCreateAssertion:
      PutDefinition(out, change.assertion);
      break;
    case Kind::kDropTable:
    case Kind::kDropView:
    case Kind::kDropAssertion:
      break;
  }
}

CatalogChange GetCatalogChange(Reader* r) {
  using Kind = CatalogChange::Kind;
  CatalogChange change;
  uint8_t kind = r->GetU8();
  if (kind > static_cast<uint8_t>(Kind::kDropAssertion)) {
    throw CorruptionError("storage decode: bad catalog change tag " +
                          std::to_string(kind));
  }
  change.kind = static_cast<Kind>(kind);
  change.name = r->GetString();
  switch (change.kind) {
    case Kind::kCreateTable:
      change.schema = GetSchema(r);
      break;
    case Kind::kCreateView:
      change.view = GetViewMeta(r);
      break;
    case Kind::kCreateAssertion:
      change.assertion = GetDefinition(r);
      break;
    case Kind::kDropTable:
    case Kind::kDropView:
    case Kind::kDropAssertion:
      break;
  }
  return change;
}

}  // namespace wire
}  // namespace mview::storage
