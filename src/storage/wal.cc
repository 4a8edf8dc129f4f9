#include "storage/wal.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace mview::storage {
namespace {

// "002" added the record-type byte after the LSN (quarantine/repair
// records); "003" the catalog-change record; "004" the compact row codec
// for effect rows (it was tagged 9-byte cells); "006" dropped the view
// meta's screening byte.  Older logs are not migrated:
// the log is rotated away at every checkpoint, so no deployment carries a
// long-lived WAL across versions.
constexpr char kMagic[8] = {'M', 'V', 'W', 'A', 'L', '0', '0', '6'};
constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t);
// A record larger than this cannot be legitimate; treat it as damage
// rather than attempting a multi-gigabyte allocation.
constexpr uint32_t kMaxPayload = 1u << 30;

// A varint row count, then `rows` in sorted order (so a given effect always
// encodes the same), sorted by reference rather than copied.
void PutSortedRows(std::string* out, const Relation& rows) {
  std::vector<const Tuple*> sorted;
  sorted.reserve(rows.size());
  rows.Scan([&](const Tuple& t) { sorted.push_back(&t); });
  std::sort(sorted.begin(), sorted.end(),
            [](const Tuple* a, const Tuple* b) { return *a < *b; });
  wire::PutVarint(out, sorted.size());
  for (const Tuple* t : sorted) wire::PutRow(out, *t);
}

// The payload *tail*: everything after the leading `[u64 lsn]`, which
// `Wal::AppendPayload` prepends once the LSN is assigned under the mutex.
std::string EncodeEffectTail(const TransactionEffect& effect) {
  std::string payload;
  wire::PutU8(&payload, static_cast<uint8_t>(WalRecord::Type::kEffect));
  std::vector<std::string> touched = effect.TouchedRelations();
  wire::PutVarint(&payload, touched.size());
  for (const auto& name : touched) {
    const RelationEffect* re = effect.Find(name);
    wire::PutString(&payload, name);
    wire::PutRowHeader(&payload, ColumnTypesOf(re->inserts.schema()));
    PutSortedRows(&payload, re->inserts);
    PutSortedRows(&payload, re->deletes);
  }
  return payload;
}

WalRecord DecodePayload(const std::string& payload) {
  wire::Reader r(payload);
  WalRecord record;
  record.lsn = r.GetU64();
  uint8_t type = r.GetU8();
  if (type > static_cast<uint8_t>(WalRecord::Type::kRefresh)) {
    throw CorruptionError("wal: unknown record type " + std::to_string(type));
  }
  record.type = static_cast<WalRecord::Type>(type);
  switch (record.type) {
    case WalRecord::Type::kEffect: {
      uint64_t n_changes = r.GetVarCount();
      for (uint64_t c = 0; c < n_changes; ++c) {
        WalRecord::Change change;
        change.relation = r.GetString();
        change.types = r.GetRowHeader();
        change.inserts = r.GetRows(change.types);
        change.deletes = r.GetRows(change.types);
        record.changes.push_back(std::move(change));
      }
      break;
    }
    case WalRecord::Type::kQuarantine:
      record.view = r.GetString();
      record.reason = r.GetString();
      record.sticky = r.GetU8() != 0;
      break;
    case WalRecord::Type::kRepair:
    case WalRecord::Type::kRefresh:
      record.view = r.GetString();
      break;
    case WalRecord::Type::kCatalog:
      try {
        record.catalog = wire::GetCatalogChange(&r);
      } catch (const CorruptionError&) {
        throw;
      } catch (const Error& e) {
        // A CRC-valid record whose schema or definition fails validation.
        throw CorruptionError(std::string("wal: undecodable catalog record: ") +
                              e.what());
      }
      break;
  }
  if (!r.AtEnd()) {
    throw CorruptionError("wal: trailing bytes inside a record payload");
  }
  return record;
}

}  // namespace

Wal::Wal(std::string path, WalOptions options, const ReplayFn& replay)
    : path_(std::move(path)), options_(options) {
  MVIEW_CHECK(options_.max_batch >= 1, "wal: max_batch must be at least 1");
  const std::string contents =
      FileSystem::Current().Read(path_).value_or(std::string());
  if (contents.size() < kHeaderSize ||
      std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    // An absent or empty log is new.  A file long enough to carry records
    // is damage either way; see `WalOptions::tolerate_torn_header` for a
    // shorter one.
    if (!contents.empty() &&
        !(options_.tolerate_torn_header && contents.size() <= kHeaderSize)) {
      throw CorruptionError("wal: bad header in " + path_);
    }
    stats_.truncated_bytes += static_cast<int64_t>(contents.size());
    Reset(0);
    return;
  }
  file_ = File(path_);
  {
    wire::Reader header(contents.data() + sizeof(kMagic), sizeof(uint64_t));
    base_lsn_ = header.GetU64();
  }

  // Decode records until the end of the file or a torn tail.  A record
  // that frames correctly (length fits, CRC matches) but decodes to
  // garbage or breaks the LSN chain is *mid-log* damage — corruption, not
  // a torn write — because appends are strictly sequential.
  size_t good = kHeaderSize;
  uint64_t expect = base_lsn_ + 1;
  while (good < contents.size()) {
    size_t remaining = contents.size() - good;
    if (remaining < 8) break;  // torn frame header
    wire::Reader frame(contents.data() + good, 8);
    uint32_t len = frame.GetU32();
    uint32_t crc = frame.GetU32();
    if (len > kMaxPayload) break;         // garbage length: torn tail
    if (remaining < 8 + len) break;       // torn payload
    const char* payload = contents.data() + good + 8;
    if (Crc32(payload, len) != crc) break;  // torn or bit-rotted tail
    WalRecord record = DecodePayload(std::string(payload, len));
    if (record.lsn != expect) {
      throw CorruptionError("wal: LSN " + std::to_string(record.lsn) +
                            " where " + std::to_string(expect) +
                            " expected in " + path_);
    }
    if (replay) replay(std::move(record));
    ++expect;
    good += 8 + len;
    ++stats_.records_replayed;
  }
  next_lsn_ = expect;
  durable_lsn_ = expect - 1;
  end_ = good;  // appends extend the valid prefix
  if (good < contents.size()) {
    stats_.truncated_bytes +=
        static_cast<int64_t>(contents.size() - good);
    file_.Truncate(good);
    file_.Sync();
  }
}

void Wal::Reset(uint64_t base_lsn, bool* renamed) {
  // Built beside `path_` and renamed over it, then the directory synced:
  // a crash leaves no log, the old one or the complete new header, and the
  // name is durable before any record is acknowledged into the file.
  std::string header(kMagic, sizeof(kMagic));
  wire::PutU64(&header, base_lsn);
  file_ = File::Replace(path_, header, renamed);
  base_lsn_ = base_lsn;
  next_lsn_ = base_lsn + 1;
  durable_lsn_ = base_lsn;
  end_ = kHeaderSize;
}

int64_t Wal::WriteAndSync(const std::string& batch) {
  // Fires before the write so an injected EIO leaves nothing of the batch
  // on disk: recovery then replays exactly the acknowledged prefix, which
  // is what the sticky-failure contract promises.  The bytes-written-but-
  // maybe-not-durable window is "wal.before_sync", and a partial write
  // "wal.torn_write".
  MVIEW_FAULT_POINT("wal.fsync");
  Stopwatch timer;
  try {
    MVIEW_FAULT_POINT("wal.torn_write");
  } catch (const IoError&) {
    file_.Write(std::string_view(batch).substr(0, batch.size() / 2), end_);
    throw;
  }
  file_.Write(batch, end_);
  MVIEW_FAULT_POINT("wal.before_sync");
  file_.Sync();
  end_ += batch.size();
  return timer.ElapsedNanos();
}

void Wal::ThrowIfFailed() const {
  if (failed_) {
    throw IoError("wal: log has failed and needs recovery: " +
                  failure_message_);
  }
}

uint64_t Wal::Append(const TransactionEffect& effect) {
  // Fires before any state changes: an injected failure here models the
  // append being rejected outright (nothing enqueued, no LSN consumed).
  MVIEW_FAULT_POINT("wal.append");
  return AppendPayload(EncodeEffectTail(effect));
}

uint64_t Wal::AppendQuarantine(const std::string& view,
                               const std::string& reason, bool sticky) {
  std::string tail;
  wire::PutU8(&tail, static_cast<uint8_t>(WalRecord::Type::kQuarantine));
  wire::PutString(&tail, view);
  wire::PutString(&tail, reason);
  wire::PutU8(&tail, sticky ? 1 : 0);
  return AppendPayload(std::move(tail));
}

uint64_t Wal::AppendRepair(const std::string& view) {
  std::string tail;
  wire::PutU8(&tail, static_cast<uint8_t>(WalRecord::Type::kRepair));
  wire::PutString(&tail, view);
  return AppendPayload(std::move(tail));
}

uint64_t Wal::AppendCatalog(const CatalogChange& change) {
  // The same pre-flight point as `Append`: DDL and DML are rejected alike.
  MVIEW_FAULT_POINT("wal.append");
  std::string tail;
  wire::PutU8(&tail, static_cast<uint8_t>(WalRecord::Type::kCatalog));
  wire::PutCatalogChange(&tail, change);
  return AppendPayload(std::move(tail));
}

uint64_t Wal::AppendRefresh(const std::string& view) {
  MVIEW_FAULT_POINT("wal.append");
  std::string tail;
  wire::PutU8(&tail, static_cast<uint8_t>(WalRecord::Type::kRefresh));
  wire::PutString(&tail, view);
  return AppendPayload(std::move(tail));
}

uint64_t Wal::AppendPayload(std::string payload_tail) {
  static const uint32_t kAppendName =
      obs::Tracer::Global().InternName("wal_append");
  // Covers enqueue + group-commit wait: the span ends when the record is
  // durable, so its extent is the commit's durability latency.
  obs::TraceSpan span(kAppendName);
  std::unique_lock<std::mutex> lk(mu_);
  ThrowIfFailed();
  uint64_t lsn = next_lsn_++;
  std::string payload;
  payload.reserve(sizeof(uint64_t) + payload_tail.size());
  wire::PutU64(&payload, lsn);
  payload += payload_tail;
  std::string record;
  wire::PutU32(&record, static_cast<uint32_t>(payload.size()));
  wire::PutU32(&record, Crc32(payload.data(), payload.size()));
  record.append(payload);
  if (pending_.empty()) batch_open_ = std::chrono::steady_clock::now();
  pending_.push_back(std::move(record));
  cv_batch_.notify_all();  // a window-waiting leader may now have a full batch
  while (true) {
    if (durable_lsn_ >= lsn) return lsn;
    ThrowIfFailed();  // the batch carrying our record failed with the log
    if (!leader_active_) {
      LeadBatch(lk);
    } else {
      cv_durable_.wait(lk);
    }
  }
}

void Wal::LeadBatch(std::unique_lock<std::mutex>& lk) {
  leader_active_ = true;
  // Hold the batch open, measured from its *first* commit, so the window
  // overlaps the previous batch's fsync instead of stacking after it.
  if (options_.group_commit_window.count() > 0) {
    auto deadline = batch_open_ + options_.group_commit_window;
    while (pending_.size() < options_.max_batch &&
           std::chrono::steady_clock::now() < deadline) {
      cv_batch_.wait_until(lk, deadline);
    }
  }
  size_t take = std::min(pending_.size(), options_.max_batch);
  std::string batch;
  for (size_t i = 0; i < take; ++i) {
    batch += pending_.front();
    pending_.pop_front();
  }
  if (!pending_.empty()) batch_open_ = std::chrono::steady_clock::now();
  uint64_t batch_last = durable_lsn_ + take;

  lk.unlock();
  static const uint32_t kFsyncName =
      obs::Tracer::Global().InternName("wal_fsync");
  static const uint32_t kBatchArg =
      obs::Tracer::Global().InternName("batch_commits");
  int64_t nanos = 0;
  bool ok = true;
  std::string error;
  {
    obs::TraceSpan span(kFsyncName);
    span.SetArg(kBatchArg, static_cast<int64_t>(take));
    try {
      nanos = WriteAndSync(batch);
    } catch (const Error& e) {
      ok = false;
      error = e.what();
    }
  }
  lk.lock();

  leader_active_ = false;
  if (!ok) {
    // The records of this batch (and everything after) are not durable;
    // fail the log so every waiter and future append surfaces the error.
    failed_ = true;
    failure_message_ = error;
  } else {
    durable_lsn_ = batch_last;
    stats_.records_appended += static_cast<int64_t>(take);
    stats_.bytes_appended += static_cast<int64_t>(batch.size());
    ++stats_.fsyncs;
    stats_.fsync_nanos += nanos;
    stats_.fsync_latency.Record(nanos);
    stats_.batch_commits.Record(static_cast<int64_t>(take));
  }
  cv_durable_.notify_all();
}

void Wal::Rotate(uint64_t base_lsn) {
  std::unique_lock<std::mutex> lk(mu_);
  MVIEW_CHECK(!leader_active_ && pending_.empty(),
              "wal: Rotate must not race appends");
  ThrowIfFailed();
  MVIEW_CHECK(base_lsn + 1 >= next_lsn_,
              "wal: cannot rotate to base LSN ", base_lsn,
              " below already-assigned LSN ", next_lsn_ - 1);
  // Truncating the live file in place would open a window where a crash
  // leaves an empty or half-written header and LSN assignment restarts
  // below the checkpoint; `Reset` swaps the new log in atomically instead,
  // so a crash leaves the old records (covered by the checkpoint, skipped
  // at replay) or the complete new header.
  bool renamed = false;
  try {
    Reset(base_lsn, &renamed);
  } catch (const Error& e) {
    // Before the rename the old log is still the live one.  After it (a
    // failed directory sync) the old descriptor names an unlinked file
    // whose appends would vanish: the log fails as after a failed fsync.
    if (renamed) {
      failed_ = true;
      failure_message_ = e.what();
    }
    throw;
  }
}

bool Wal::failed() const {
  std::unique_lock<std::mutex> lk(mu_);
  return failed_;
}

WalStats Wal::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  WalStats s = stats_;
  s.base_lsn = base_lsn_;
  s.durable_lsn = durable_lsn_;
  s.next_lsn = next_lsn_;
  return s;
}

}  // namespace mview::storage
