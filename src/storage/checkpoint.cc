#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <regex>
#include <unordered_set>
#include <utility>

#include "storage/file.h"
#include "util/fault.h"

namespace mview::storage {
namespace {

// Manifest and row-segment files (see the header's format note; the
// manifest rename is the commit point).  "5"/"004" dropped the views' row
// chains: the manifest keeps no view scope and a segment is a table's base
// or delta.
constexpr char kManifestMagic[8] = {'M', 'V', 'M', 'A', 'N', 'I', 'F', '5'};
constexpr char kSegmentMagic[8] = {'M', 'V', 'S', 'E', 'G', '0', '0', '4'};
// Magic, CRC, body length.
constexpr size_t kFramePrefix = 8 + 4 + 8;

/// Captures everything about a view except its rows — what the manifest
/// stores per view.
CheckpointView BuildViewMeta(const ViewManager& views,
                             const std::string& name) {
  ViewInfo info = views.Describe(name);
  CheckpointView view;
  view.name = name;
  view.mode = info.mode;
  view.options = views.Maintainer(name).options();
  view.definition = std::move(info.definition);
  view.quarantined = info.quarantined;
  view.quarantine_reason = std::move(info.quarantine_reason);
  view.quarantine_sticky = info.quarantine_sticky;
  for (const auto& log : views.PendingLogs(name)) {
    // ForEachNetChange streams inserts then deletes in sorted order;
    // split them back out so each section carries its own count.
    CheckpointView::PendingLog out;
    out.types = ColumnTypesOf(log->inserts().schema());
    log->ForEachNetChange([&](const Tuple& t, bool is_insert) {
      (is_insert ? out.inserts : out.deletes).push_back(t);
    });
    view.pending.push_back(std::move(out));
  }
  return view;
}

void PutPendingLogs(std::string* body, const CheckpointView& view) {
  auto put_rows = [&](const ColumnTypes& types,
                      const std::vector<Tuple>& rows) {
    std::vector<wire::CountedRow> block;
    block.reserve(rows.size());
    for (const Tuple& t : rows) block.emplace_back(&t, 1);
    wire::PutPackedRows(body, types, block, /*counted=*/false);
  };
  wire::PutVarint(body, view.pending.size());
  for (const auto& log : view.pending) {
    wire::PutRowHeader(body, log.types);
    put_rows(log.types, log.inserts);
    put_rows(log.types, log.deletes);
  }
}

void GetPendingLogs(wire::Reader* r, CheckpointView* view) {
  uint64_t n_logs = r->GetVarCount();
  for (uint64_t l = 0; l < n_logs; ++l) {
    CheckpointView::PendingLog log;
    log.types = r->GetRowHeader();
    log.inserts = wire::GetPackedRows(r, log.types);
    log.deletes = wire::GetPackedRows(r, log.types);
    view->pending.push_back(std::move(log));
  }
}

// --- framed file I/O -------------------------------------------------------
//
// Every checkpoint file (manifest, segment) shares one frame: 8-byte
// magic, CRC32 of the body, body length, body.

std::string Frame(const char magic[8], const std::string& body) {
  std::string file(magic, 8);
  wire::PutU32(&file, Crc32(body.data(), body.size()));
  wire::PutU64(&file, static_cast<uint64_t>(body.size()));
  file.append(body);
  return file;
}

/// Reads and validates a framed file: nullopt when absent, the body when
/// intact, `CorruptionError` otherwise.
std::optional<std::string> ReadFramedFile(const std::string& path,
                                          const char magic[8]) {
  std::optional<std::string> contents = FileSystem::Current().Read(path);
  if (!contents.has_value()) return std::nullopt;
  std::string& file = *contents;
  if (file.size() < kFramePrefix ||
      std::memcmp(file.data(), magic, 8) != 0) {
    throw CorruptionError("checkpoint: bad header in " + path);
  }
  wire::Reader prefix(file.data() + 8, 12);
  uint32_t crc = prefix.GetU32();
  uint64_t body_len = prefix.GetU64();
  if (body_len != file.size() - kFramePrefix) {
    throw CorruptionError("checkpoint: truncated body in " + path);
  }
  if (Crc32(file.data() + kFramePrefix, body_len) != crc) {
    throw CorruptionError("checkpoint: CRC mismatch in " + path);
  }
  file.erase(0, kFramePrefix);
  return contents;
}

// --- segments ---------------------------------------------------------------

std::string SegmentName(uint64_t generation, uint32_t seq) {
  return "seg_" + std::to_string(generation) + "_" + std::to_string(seq) +
         ".mv";
}

/// True for the names `SegmentName` produces.  A manifest naming anything
/// else is corrupt: recovery opens `dir + "/" + name`, so an unchecked name
/// could point it at any file.
bool IsSegmentName(const std::string& name) {
  static const std::regex kPattern(R"(seg_[0-9]+_[0-9]+\.mv)");
  return std::regex_match(name, kPattern);
}

/// A table's rows in memory, sorted; the tuples are borrowed.
using SortedRows = std::vector<wire::CountedRow>;

/// A segment body: kind, column-type header, and `rows` as one packed
/// block, counted in a delta.
std::string SegmentBody(SegmentKind kind, const ColumnTypes& types,
                        const SortedRows& rows) {
  std::string body;
  wire::PutU8(&body, static_cast<uint8_t>(kind));
  wire::PutRowHeader(&body, types);
  wire::PutPackedRows(&body, types, rows, kind == SegmentKind::kDelta);
  return body;
}

/// Streams one segment's rows in order, validating as it goes: the kind
/// and column types the chain position requires, nothing after the block,
/// and (in `wire::PackedReader`) strictly ascending rows; a delta's counts
/// 0 or 1.
class SegmentReader {
 public:
  SegmentReader(const std::string& dir, const SegmentRef& ref,
                SegmentKind kind, const ColumnTypes& types)
      : path_(dir + "/" + ref.file),
        body_(ReadBody(path_, ref.bytes)) {
    wire::Reader r(body_);
    if (r.GetU8() != static_cast<uint8_t>(kind)) Fail("wrong segment kind");
    if (r.GetRowHeader() != types) Fail("column types differ from schema");
    block_.emplace(&r, types, kind == SegmentKind::kDelta);
    if (!r.AtEnd()) Fail("trailing bytes after the last row");
  }
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  /// Moves to the next row (counted 1, or 0 when a delta removes it);
  /// false once past the last.
  bool Next() {
    if (!block_->Next()) return false;
    if (block_->count() < 0 || block_->count() > 1) {
      Fail("row count out of range");
    }
    return true;
  }

  const Tuple& row() const { return block_->row(); }
  int64_t count() const { return block_->count(); }

 private:
  static std::string ReadBody(const std::string& path, uint64_t bytes);
  [[noreturn]] void Fail(const std::string& what) const {
    throw CorruptionError("checkpoint: " + what + " in " + path_);
  }

  std::string path_;
  std::string body_;
  std::optional<wire::PackedReader> block_;  // over body_
};

std::string SegmentReader::ReadBody(const std::string& path, uint64_t bytes) {
  std::optional<std::string> body = ReadFramedFile(path, kSegmentMagic);
  if (!body.has_value()) {
    throw CorruptionError("checkpoint: missing segment " + path);
  }
  if (body->size() + kFramePrefix != bytes) {
    throw CorruptionError("checkpoint: segment " + path +
                          " differs in size from its manifest entry");
  }
  return std::move(*body);
}

/// A table's image in ascending row order: the base streamed, with the
/// chain's deltas folded into one sorted override list (deltas are small;
/// the base is read once).  Positioned on live rows only.
class ImageReader {
 public:
  ImageReader(const std::string& dir, const ScopeImage& scope) {
    const ColumnTypes types = ColumnTypesOf(scope.schema);
    for (size_t i = 1; i < scope.chain.size(); ++i) {
      SegmentReader delta(dir, scope.chain[i], SegmentKind::kDelta, types);
      Fold(&delta);
    }
    base_ = std::make_unique<SegmentReader>(dir, scope.chain[0],
                                            SegmentKind::kBase, types);
    base_valid_ = base_->Next();
    Settle();
  }

  bool Valid() const { return row_ != nullptr; }
  const Tuple& row() const { return *row_; }
  void Next() {
    Advance();
    Settle();
  }

 private:
  using Override = std::pair<Tuple, int64_t>;

  // Merges a later delta into the override list; on equal rows the later
  // delta's multiplicity wins.
  void Fold(SegmentReader* delta) {
    std::vector<Override> merged;
    merged.reserve(overrides_.size());
    size_t i = 0;
    bool more = delta->Next();
    while (i < overrides_.size() || more) {
      if (!more || (i < overrides_.size() &&
                    overrides_[i].first < delta->row())) {
        merged.push_back(std::move(overrides_[i++]));
        continue;
      }
      if (i < overrides_.size() && !(delta->row() < overrides_[i].first)) {
        ++i;  // superseded
      }
      merged.emplace_back(delta->row(), delta->count());
      more = delta->Next();
    }
    overrides_ = std::move(merged);
  }

  void Advance() {
    if (from_base_) base_valid_ = base_->Next();
    if (from_override_) ++next_override_;
  }

  void Settle() {
    while (true) {
      const bool have_override = next_override_ < overrides_.size();
      if (!base_valid_ && !have_override) {
        row_ = nullptr;
        return;
      }
      const Override* o = have_override ? &overrides_[next_override_] : nullptr;
      from_base_ = base_valid_ && (o == nullptr || !(o->first < base_->row()));
      from_override_ = o != nullptr &&
                       (!base_valid_ || !(base_->row() < o->first));
      row_ = from_override_ ? &o->first : &base_->row();
      if (!from_override_ || o->second > 0) return;
      Advance();  // a row the chain removed
    }
  }

  std::unique_ptr<SegmentReader> base_;
  bool base_valid_ = false;
  std::vector<Override> overrides_;
  size_t next_override_ = 0;
  // The current row and the inputs it came from.
  const Tuple* row_ = nullptr;
  bool from_base_ = false;
  bool from_override_ = false;
};

void SortRows(SortedRows* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
}

/// Collects, as delta rows, every row in exactly one of `rows` and
/// `image`, with its count in `rows` (1, or 0 when gone).  A row the image
/// holds and `rows` does not is copied into `removed`, which must outlive
/// the result.
SortedRows DiffRows(ImageReader* image, const SortedRows& rows,
                    std::deque<Tuple>* removed) {
  SortedRows delta;
  size_t i = 0;
  while (image->Valid() || i < rows.size()) {
    if (!image->Valid() ||
        (i < rows.size() && *rows[i].first < image->row())) {
      delta.push_back(rows[i++]);
    } else if (i == rows.size() || image->row() < *rows[i].first) {
      removed->push_back(image->row());
      delta.emplace_back(&removed->back(), 0);
      image->Next();
    } else {
      ++i;
      image->Next();
    }
  }
  return delta;
}

// --- manifest ---------------------------------------------------------------

void PutScope(std::string* body, const ScopeImage& scope) {
  wire::PutString(body, scope.name);
  wire::PutSchema(body, scope.schema);
  wire::PutVarint(body, scope.chain.size());
  for (const auto& ref : scope.chain) {
    wire::PutString(body, ref.file);
    wire::PutVarint(body, ref.bytes);
  }
}

ScopeImage GetScope(wire::Reader* r) {
  ScopeImage scope;
  scope.name = r->GetString();
  scope.schema = wire::GetSchema(r);
  uint64_t n = r->GetVarCount();
  if (n == 0 || n > 1 + kMaxDeltas) {
    throw CorruptionError("checkpoint: chain of " + std::to_string(n) +
                          " segments for " + scope.name);
  }
  scope.chain.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SegmentRef ref;
    ref.file = r->GetString();
    if (!IsSegmentName(ref.file)) {
      throw CorruptionError("checkpoint: bad segment name in manifest");
    }
    ref.bytes = r->GetVarint();
    scope.chain.push_back(std::move(ref));
  }
  return scope;
}

std::string EncodeManifest(const CheckpointManifest& m) {
  std::string body;
  wire::PutU64(&body, m.lsn);
  wire::PutU64(&body, m.generation);
  wire::PutVarint(&body, m.tables.size());
  for (const auto& scope : m.tables) PutScope(&body, scope);
  wire::PutVarint(&body, m.views.size());
  for (const auto& view : m.views) {
    wire::PutViewMeta(&body, view);
    PutPendingLogs(&body, view);
  }
  wire::PutVarint(&body, m.assertions.size());
  for (const auto& def : m.assertions) wire::PutDefinition(&body, def);
  return body;
}

CheckpointManifest DecodeManifest(const std::string& body) {
  wire::Reader r(body);
  CheckpointManifest m;
  m.lsn = r.GetU64();
  m.generation = r.GetU64();
  std::unordered_set<std::string> tables;
  uint64_t n_tables = r.GetVarCount();
  for (uint64_t i = 0; i < n_tables; ++i) {
    m.tables.push_back(GetScope(&r));
    if (!tables.insert(m.tables.back().name).second) {
      throw CorruptionError("checkpoint: duplicate table in manifest");
    }
  }
  std::unordered_set<std::string> views;
  uint64_t n_views = r.GetVarCount();
  for (uint64_t i = 0; i < n_views; ++i) {
    CheckpointView view = wire::GetViewMeta(&r);
    GetPendingLogs(&r, &view);
    if (!views.insert(view.name).second) {
      throw CorruptionError("checkpoint: duplicate view in manifest");
    }
    // Recovery derives the view from these tables, so each must be here.
    const auto& bases = view.definition.bases();
    for (const BaseRef& base : bases) {
      if (tables.count(base.relation) == 0) {
        throw CorruptionError("checkpoint: view " + view.name +
                              " reads table " + base.relation +
                              ", which the manifest lacks");
      }
    }
    if (!view.pending.empty() && view.pending.size() != bases.size()) {
      throw CorruptionError("checkpoint: pending logs of " + view.name +
                            " do not cover every base");
    }
    m.views.push_back(std::move(view));
  }
  uint64_t n_assertions = r.GetVarCount();
  for (uint64_t i = 0; i < n_assertions; ++i) {
    m.assertions.push_back(wire::GetDefinition(&r));
  }
  if (!r.AtEnd()) {
    throw CorruptionError("checkpoint: trailing bytes after manifest");
  }
  return m;
}

/// Deletes segment files in `dir` that `live` does not reference.
void SweepSegments(const std::string& dir,
                   const std::unordered_set<std::string>& live) {
  FileSystem& fs = FileSystem::Current();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (IsSegmentName(name) && live.count(name) == 0) fs.Remove(entry.path());
  }
}

}  // namespace

CheckpointManifest WriteCheckpoint(const std::string& dir, uint64_t lsn,
                                   const Database& db,
                                   const ViewManager& views,
                                   const IntegrityGuard* guard,
                                   const ChangedScopes& changed,
                                   const CheckpointManifest* prev,
                                   CheckpointStats* stats) {
  // Fires before anything is written: the previous image stays
  // authoritative.
  MVIEW_FAULT_POINT("checkpoint.write");
  CheckpointStats local;
  if (stats == nullptr) stats = &local;

  CheckpointManifest m;
  m.lsn = lsn;
  m.generation = prev == nullptr ? 1 : prev->generation + 1;
  uint32_t seq = 0;
  auto write_segment = [&](const std::string& body, bool base) {
    // Fires before each segment: an injected failure mid-checkpoint
    // leaves orphan segments (swept by the next writer) but the previous
    // manifest untouched.
    MVIEW_FAULT_POINT("checkpoint.segment");
    SegmentRef ref;
    ref.file = SegmentName(m.generation, seq++);
    std::string framed = Frame(kSegmentMagic, body);
    File::Create(dir + "/" + ref.file, framed);  // synced before the rename
    ref.bytes = framed.size();
    stats->bytes_written += ref.bytes;
    (base ? stats->base_bytes : stats->delta_bytes) += ref.bytes;
    ++stats->segments_written;
    return ref;
  };
  auto find_prev = [&](const std::string& name) -> const ScopeImage* {
    if (prev == nullptr) return nullptr;
    for (const auto& scope : prev->tables) {
      if (scope.name == name) return &scope;
    }
    return nullptr;
  };
  // One table's chain: carried forward, extended by a delta, or replaced
  // by a fresh base (see the header's chain and compaction rules).
  auto write_table = [&](const std::string& name, const Relation& rel) {
    const ScopeImage* old = find_prev(name);
    ScopeImage out;
    out.name = name;
    out.schema = rel.schema();
    const bool fresh = old == nullptr || changed.Created(name) ||
                       !(old->schema == out.schema);
    if (!fresh && !changed.Changed(name)) {
      out.chain = old->chain;
      ++stats->scopes_skipped;
      return out;
    }
    SortedRows rows;
    rel.Scan([&](const Tuple& t) { rows.emplace_back(&t, 1); });
    SortRows(&rows);
    const ColumnTypes types = ColumnTypesOf(out.schema);
    if (!fresh) {
      ImageReader image(dir, *old);
      std::deque<Tuple> removed;
      const SortedRows delta = DiffRows(&image, rows, &removed);
      if (delta.empty()) {
        out.chain = old->chain;
        ++stats->scopes_skipped;
        return out;
      }
      std::string body = SegmentBody(SegmentKind::kDelta, types, delta);
      uint64_t chain_bytes = kFramePrefix + body.size();
      for (size_t i = 1; i < old->chain.size(); ++i) {
        chain_bytes += old->chain[i].bytes;
      }
      if (old->chain.size() <= kMaxDeltas &&
          chain_bytes <= old->chain[0].bytes) {
        out.chain = old->chain;
        out.chain.push_back(write_segment(body, /*base=*/false));
        return out;
      }
    }
    out.chain.push_back(
        write_segment(SegmentBody(SegmentKind::kBase, types, rows),
                      /*base=*/true));
    return out;
  };

  for (const auto& name : db.Names()) {
    m.tables.push_back(write_table(name, db.Get(name)));
  }
  // Views are derived state: only what evaluation cannot recover.
  for (const auto& name : views.ViewNames()) {
    m.views.push_back(BuildViewMeta(views, name));
  }
  if (guard != nullptr) {
    for (const auto& name : guard->AssertionNames()) {
      m.assertions.push_back(guard->Definition(name));
    }
  }

  // Commit point: once the manifest rename lands, the new image is the
  // recovery source; before it, the old manifest still references every
  // segment it needs (fresh ones used new names, nothing was overwritten).
  // The fault point is the crash window in between: every segment
  // written, none referenced.
  MVIEW_FAULT_POINT("checkpoint.manifest");
  std::string framed = Frame(kManifestMagic, EncodeManifest(m));
  File::Replace(dir + "/manifest.mv", framed);
  stats->bytes_written += framed.size();

  // Segments only the *old* manifest referenced are garbage now.
  std::unordered_set<std::string> live;
  for (const auto& scope : m.tables) {
    for (const auto& ref : scope.chain) live.insert(ref.file);
  }
  SweepSegments(dir, live);
  return m;
}

std::optional<CheckpointManifest> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/manifest.mv";
  std::optional<std::string> body = ReadFramedFile(path, kManifestMagic);
  if (!body.has_value()) return std::nullopt;
  try {
    return DecodeManifest(*body);
  } catch (const CorruptionError&) {
    throw;
  } catch (const Error& e) {
    // A CRC-valid body whose schema or definition fails validation.
    throw CorruptionError(std::string("checkpoint: undecodable manifest: ") +
                          e.what());
  }
}

void ScanImage(const std::string& dir, const ScopeImage& scope,
               const std::function<void(const Tuple&)>& fn) {
  for (ImageReader image(dir, scope); image.Valid(); image.Next()) {
    fn(image.row());
  }
}

}  // namespace mview::storage
