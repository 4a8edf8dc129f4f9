#include "storage/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <regex>
#include <sstream>
#include <unordered_set>

#include "relational/csv.h"
#include "relational/partition.h"
#include "util/fault.h"

namespace mview::storage {
namespace {

// Manifest and row-segment files (see the header's format note; the
// manifest rename is the commit point).
constexpr char kManifestMagic[8] = {'M', 'V', 'M', 'A', 'N', 'I', 'F', '1'};
constexpr char kSegmentMagic[8] = {'M', 'V', 'S', 'E', 'G', '0', '0', '1'};

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw IoError("checkpoint: " + what + " failed for " + path + ": " +
                std::strerror(errno));
}

void PutTuples(std::string* out, const std::vector<Tuple>& tuples) {
  wire::PutU32(out, static_cast<uint32_t>(tuples.size()));
  for (const auto& t : tuples) wire::PutTuple(out, t);
}

std::vector<Tuple> GetTuples(wire::Reader* r) {
  uint32_t n = r->GetCount();
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (uint32_t i = 0; i < n; ++i) tuples.push_back(r->GetTuple());
  return tuples;
}

/// Captures everything about a view except its materialization's rows —
/// what the manifest stores per view.
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
    log->ForEachNetChange([&](const Tuple& t, bool is_insert) {
      (is_insert ? out.inserts : out.deletes).push_back(t);
    });
    view.pending.push_back(std::move(out));
  }
  return view;
}

void PutPendingLogs(std::string* body, const CheckpointView& view) {
  wire::PutU32(body, static_cast<uint32_t>(view.pending.size()));
  for (const auto& log : view.pending) {
    PutTuples(body, log.inserts);
    PutTuples(body, log.deletes);
  }
}

void GetPendingLogs(wire::Reader* r, CheckpointView* view) {
  uint32_t n_logs = r->GetCount();
  for (uint32_t l = 0; l < n_logs; ++l) {
    CheckpointView::PendingLog log;
    log.inserts = GetTuples(r);
    log.deletes = GetTuples(r);
    view->pending.push_back(std::move(log));
  }
}

// --- framed file I/O -------------------------------------------------------
//
// Every checkpoint file (manifest, segment) shares one frame: 8-byte
// magic, CRC32 of the body, body length, body.

void WriteAll(int fd, const std::string& data, const std::string& path) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) ThrowErrno("write", path);
    done += static_cast<size_t>(n);
  }
}

std::string Frame(const char magic[8], const std::string& body) {
  std::string file(magic, 8);
  wire::PutU32(&file, Crc32(body.data(), body.size()));
  wire::PutU64(&file, static_cast<uint64_t>(body.size()));
  file.append(body);
  return file;
}

void WriteFileDurable(const std::string& path, const std::string& contents) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) ThrowErrno("open", path);
  try {
    WriteAll(fd, contents, path);
    if (::fsync(fd) != 0) ThrowErrno("fsync", path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void SyncDirOf(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort: some filesystems reject directory fsync
    ::close(dfd);
  }
}

/// Temp-write + rename + directory sync: a crash at any point leaves
/// either the old file or the new one, never a torn one.
void CommitFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  WriteFileDurable(tmp, contents);
  if (::rename(tmp.c_str(), path.c_str()) != 0) ThrowErrno("rename", path);
  SyncDirOf(path);
}

/// Reads and validates a framed file: nullopt when absent, the body when
/// intact, `CorruptionError` otherwise.
std::optional<std::string> ReadFramedFile(const std::string& path,
                                          const char magic[8]) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    ThrowErrno("open", path);
  }
  std::string contents;
  try {
    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0) ThrowErrno("lseek", path);
    contents.resize(static_cast<size_t>(size));
    size_t done = 0;
    while (done < contents.size()) {
      ssize_t n = ::pread(fd, contents.data() + done, contents.size() - done,
                          static_cast<off_t>(done));
      if (n < 0) ThrowErrno("read", path);
      if (n == 0) break;
      done += static_cast<size_t>(n);
    }
    contents.resize(done);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);

  constexpr size_t kPrefix = 8 + 4 + 8;
  if (contents.size() < kPrefix ||
      std::memcmp(contents.data(), magic, 8) != 0) {
    throw CorruptionError("checkpoint: bad header in " + path);
  }
  wire::Reader prefix(contents.data() + 8, 12);
  uint32_t crc = prefix.GetU32();
  uint64_t body_len = prefix.GetU64();
  if (contents.size() != kPrefix + body_len) {
    throw CorruptionError("checkpoint: truncated body in " + path);
  }
  const char* body = contents.data() + kPrefix;
  if (Crc32(body, body_len) != crc) {
    throw CorruptionError("checkpoint: CRC mismatch in " + path);
  }
  return std::string(body, body_len);
}

// --- manifest and segment helpers -----------------------------------------

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

/// One partition's rows (with counts for a view) before sorting; the
/// pointers borrow from the scope being checkpointed.
using SliceRows = std::vector<std::pair<const Tuple*, int64_t>>;

/// The CSV `WriteCsv` produces for a relation holding exactly `rows`:
/// sorted by tuple, header first.
std::string SliceCsv(const Schema& schema, bool counted, SliceRows* rows) {
  std::sort(rows->begin(), rows->end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::string csv;
  AppendCsvHeader(schema, counted, &csv);
  for (const auto& [tuple, count] : *rows) {
    AppendCsvRow(*tuple, counted ? &count : nullptr, &csv);
  }
  return csv;
}

void PutSegments(std::string* body, const SegmentList& sl) {
  wire::PutString(body, sl.name);
  for (const auto& file : sl.segments) wire::PutString(body, file);
}

SegmentList GetSegments(wire::Reader* r, uint32_t partitions) {
  SegmentList sl;
  sl.name = r->GetString();
  // Each name costs at least its 4-byte length prefix; clamp before the
  // reserve so a corrupt count cannot size a huge allocation.
  if (partitions > r->Remaining() / 4) {
    throw CorruptionError("checkpoint: partition count " +
                          std::to_string(partitions) + " exceeds the " +
                          std::to_string(r->Remaining()) +
                          " bytes remaining");
  }
  sl.segments.reserve(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    std::string file = r->GetString();
    if (!IsSegmentName(file)) {
      throw CorruptionError("checkpoint: bad segment name in manifest");
    }
    sl.segments.push_back(std::move(file));
  }
  return sl;
}

std::string EncodeManifest(const CheckpointManifest& m) {
  std::string body;
  wire::PutU64(&body, m.lsn);
  wire::PutU64(&body, m.generation);
  wire::PutU32(&body, m.partitions);
  wire::PutU32(&body, static_cast<uint32_t>(m.tables.size()));
  for (const auto& sl : m.tables) PutSegments(&body, sl);
  wire::PutU32(&body, static_cast<uint32_t>(m.view_meta.size()));
  for (size_t i = 0; i < m.view_meta.size(); ++i) {
    wire::PutViewMeta(&body, m.view_meta[i]);
    PutPendingLogs(&body, m.view_meta[i]);
    PutSegments(&body, m.view_segments[i]);
  }
  wire::PutU32(&body, static_cast<uint32_t>(m.assertions.size()));
  for (const auto& def : m.assertions) wire::PutDefinition(&body, def);
  return body;
}

CheckpointManifest DecodeManifest(const std::string& body) {
  wire::Reader r(body);
  CheckpointManifest m;
  m.lsn = r.GetU64();
  m.generation = r.GetU64();
  m.partitions = r.GetU32();
  if (m.partitions == 0) {
    throw CorruptionError("checkpoint: zero manifest partition count");
  }
  uint32_t n_tables = r.GetCount();
  for (uint32_t i = 0; i < n_tables; ++i) {
    m.tables.push_back(GetSegments(&r, m.partitions));
  }
  uint32_t n_views = r.GetCount();
  for (uint32_t i = 0; i < n_views; ++i) {
    CheckpointView view = wire::GetViewMeta(&r);
    GetPendingLogs(&r, &view);
    m.view_meta.push_back(std::move(view));
    m.view_segments.push_back(GetSegments(&r, m.partitions));
  }
  uint32_t n_assertions = r.GetCount();
  for (uint32_t i = 0; i < n_assertions; ++i) {
    m.assertions.push_back(wire::GetDefinition(&r));
  }
  if (!r.AtEnd()) {
    throw CorruptionError("checkpoint: trailing bytes after manifest");
  }
  return m;
}

std::optional<CheckpointManifest> ReadManifest(const std::string& path) {
  std::optional<std::string> body = ReadFramedFile(path, kManifestMagic);
  if (!body.has_value()) return std::nullopt;
  try {
    return DecodeManifest(*body);
  } catch (const CorruptionError&) {
    throw;
  } catch (const Error& e) {
    throw CorruptionError(std::string("checkpoint: undecodable manifest: ") +
                          e.what());
  }
}

std::string ReadSegmentBody(const std::string& path) {
  std::optional<std::string> body = ReadFramedFile(path, kSegmentMagic);
  if (!body.has_value()) {
    throw CorruptionError("checkpoint: missing segment " + path);
  }
  return std::move(*body);
}

/// Rebuilds full `CheckpointData` from a manifest: each scope's rows are
/// the union of its partition segments (partitions are disjoint by hash,
/// so plain insertion reassembles exactly).
CheckpointData AssembleFromManifest(const std::string& dir,
                                    const CheckpointManifest& m) {
  CheckpointData data;
  data.lsn = m.lsn;
  try {
    for (const SegmentList& sl : m.tables) {
      std::istringstream first(ReadSegmentBody(dir + "/" + sl.segments[0]));
      Relation merged = ReadCsv(first);
      for (size_t p = 1; p < sl.segments.size(); ++p) {
        std::istringstream csv(ReadSegmentBody(dir + "/" + sl.segments[p]));
        ReadCsv(csv).Scan([&](const Tuple& t) { merged.Insert(t); });
      }
      data.tables.emplace_back(sl.name, std::move(merged));
    }
    for (size_t i = 0; i < m.view_meta.size(); ++i) {
      CheckpointView view = m.view_meta[i];
      const SegmentList& sl = m.view_segments[i];
      std::istringstream first(ReadSegmentBody(dir + "/" + sl.segments[0]));
      CountedRelation merged = ReadCountedCsv(first);
      for (size_t p = 1; p < sl.segments.size(); ++p) {
        std::istringstream csv(ReadSegmentBody(dir + "/" + sl.segments[p]));
        ReadCountedCsv(csv).Scan(
            [&](const Tuple& t, int64_t count) { merged.Add(t, count); });
      }
      view.materialized = std::move(merged);
      data.views.push_back(std::move(view));
    }
  } catch (const CorruptionError&) {
    throw;
  } catch (const Error& e) {
    throw CorruptionError(std::string("checkpoint: undecodable segment: ") +
                          e.what());
  }
  data.assertions = m.assertions;
  return data;
}

/// Deletes segment files in `dir` that `live` does not reference, plus any
/// leftover temp manifest.
void SweepSegments(const std::string& dir,
                   const std::unordered_set<std::string>& live) {
  std::error_code ec;
  std::filesystem::remove(dir + "/manifest.mv.tmp", ec);
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!IsSegmentName(name) || live.count(name) > 0) continue;
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace

CheckpointManifest WriteIncrementalCheckpoint(
    const std::string& dir, uint64_t lsn, const Database& db,
    const ViewManager& views, const IntegrityGuard* guard,
    const PartitionDirtyMap& dirty, uint32_t partitions,
    const CheckpointManifest* prev, IncrementalStats* stats) {
  // Fires before anything is written: the previous image stays
  // authoritative.
  MVIEW_FAULT_POINT("checkpoint.write");
  IncrementalStats local;
  if (stats == nullptr) stats = &local;

  CheckpointManifest m;
  m.lsn = lsn;
  m.generation = prev == nullptr ? 1 : prev->generation + 1;
  m.partitions = partitions == 0 ? 1 : partitions;
  // Carrying a clean partition forward is only sound when the previous
  // manifest sliced by the same count AND the dirty map tracked every
  // mutation since with that count; anything else rewrites everything.
  const bool carry = prev != nullptr && prev->partitions == m.partitions &&
                     dirty.enabled() && dirty.partitions() == m.partitions;
  auto find_prev = [&](std::vector<SegmentList> CheckpointManifest::*lists,
                       const std::string& name) -> const SegmentList* {
    if (!carry) return nullptr;
    for (const auto& sl : prev->*lists) {
      if (sl.name == name) return &sl;
    }
    return nullptr;
  };
  uint32_t seq = 0;
  auto write_segment = [&](const std::string& csv) {
    // Fires before each fresh segment: an injected failure mid-checkpoint
    // leaves orphan segments (swept by the next writer) but the previous
    // manifest untouched.
    MVIEW_FAULT_POINT("checkpoint.segment");
    std::string file = SegmentName(m.generation, seq++);
    std::string framed = Frame(kSegmentMagic, csv);
    WriteFileDurable(dir + "/" + file, framed);
    stats->bytes_written += framed.size();
    ++stats->segments_written;
    return file;
  };
  // One scope's segments: clean partitions carry `old`'s files forward;
  // the rest are bucketed from a single scan of the scope (`scan` feeds
  // every row and its count) and written fresh, in partition order.
  auto write_scope = [&](const std::string& name, const std::string& scope,
                         const SegmentList* old, const Schema& schema,
                         bool counted, const auto& scan) {
    SegmentList sl;
    sl.name = name;
    sl.segments.resize(m.partitions);
    std::vector<bool> fresh(m.partitions, true);
    bool any_fresh = false;
    for (uint32_t p = 0; p < m.partitions; ++p) {
      if (old != nullptr && !dirty.IsDirty(scope, p)) {
        sl.segments[p] = old->segments[p];
        fresh[p] = false;
        ++stats->partitions_skipped;
      } else {
        any_fresh = true;
      }
    }
    if (!any_fresh) return sl;
    std::vector<SliceRows> buckets(m.partitions);
    scan([&](const Tuple& t, int64_t count) {
      const uint32_t p = PartitionOf(t, kRowHashKey, m.partitions);
      if (fresh[p]) buckets[p].emplace_back(&t, count);
    });
    for (uint32_t p = 0; p < m.partitions; ++p) {
      if (fresh[p]) {
        sl.segments[p] = write_segment(SliceCsv(schema, counted, &buckets[p]));
      }
    }
    return sl;
  };

  for (const auto& name : db.Names()) {
    const Relation& rel = db.Get(name);
    m.tables.push_back(write_scope(
        name, "t:" + name, find_prev(&CheckpointManifest::tables, name),
        rel.schema(), /*counted=*/false, [&](const auto& emit) {
          rel.Scan([&](const Tuple& t) { emit(t, 0); });
        }));
  }
  for (const auto& name : views.ViewNames()) {
    m.view_meta.push_back(BuildViewMeta(views, name));
    // The raw materialization, not `View()`: a quarantined view's contents
    // still checkpoint (recovery restores them alongside the quarantine
    // flag; `REPAIR VIEW` rebuilds from bases later).
    const CountedRelation& rel = views.Materialization(name);
    m.view_segments.push_back(write_scope(
        name, "v:" + name,
        find_prev(&CheckpointManifest::view_segments, name), rel.schema(),
        /*counted=*/true,
        [&](const auto& emit) { rel.Scan(emit); }));
  }
  if (guard != nullptr) {
    for (const auto& name : guard->AssertionNames()) {
      m.assertions.push_back(guard->Definition(name));
    }
  }

  // Commit point: once the manifest rename lands, the new image is the
  // recovery source; before it, the old manifest still references every
  // segment it needs (fresh ones used new names, nothing was overwritten).
  std::string framed = Frame(kManifestMagic, EncodeManifest(m));
  CommitFile(dir + "/manifest.mv", framed);
  stats->bytes_written += framed.size();

  // Segments only the *old* manifest referenced are garbage now.
  std::unordered_set<std::string> live;
  for (const auto& sl : m.tables) {
    live.insert(sl.segments.begin(), sl.segments.end());
  }
  for (const auto& sl : m.view_segments) {
    live.insert(sl.segments.begin(), sl.segments.end());
  }
  SweepSegments(dir, live);
  return m;
}

std::optional<RecoveredCheckpoint> ReadIncrementalCheckpoint(
    const std::string& dir) {
  std::optional<CheckpointManifest> manifest =
      ReadManifest(dir + "/manifest.mv");
  if (!manifest.has_value()) return std::nullopt;
  RecoveredCheckpoint out;
  out.data = AssembleFromManifest(dir, *manifest);
  out.manifest = std::move(*manifest);
  return out;
}

}  // namespace mview::storage
