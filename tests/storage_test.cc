#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "db/database.h"
#include "ivm/view_manager.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/error.h"
#include "util/fault.h"

namespace mview::storage {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::T;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    dir_ = testing::ScratchDir();
  }
  ~StorageTest() override { std::filesystem::remove_all(dir_); }

  std::string WalPath() const { return dir_ + "/wal.mv"; }
  std::string ManifestPath() const { return dir_ + "/manifest.mv"; }

  // A checkpoint of `db`/`views` into the test directory: every scope
  // gets a fresh base unless `prev` is given.
  CheckpointManifest Write(uint64_t lsn, const Database& db,
                           const ViewManager& views,
                           const IntegrityGuard* guard,
                           const CheckpointManifest* prev = nullptr) {
    return WriteCheckpoint(dir_, lsn, db, views, guard, views.changed_scopes(),
                           prev, nullptr);
  }

  // Reads the manifest back and installs it into `db`/`views`.
  CheckpointManifest Install(Database* db, ViewManager* views) {
    std::optional<CheckpointManifest> m = ReadManifest(dir_);
    EXPECT_TRUE(m.has_value());
    InstallCheckpoint(dir_, &*m, db, views);
    return *m;
  }

  // Frames `body` as a manifest file (magic, CRC, length) and installs it.
  void WriteRawManifest(const std::string& body) {
    std::string file = "MVMANIF5";
    wire::PutU32(&file, Crc32(body.data(), body.size()));
    wire::PutU64(&file, body.size());
    file += body;
    std::ofstream(ManifestPath(), std::ios::binary | std::ios::trunc) << file;
  }

  // The body of a segment file (its frame stripped).
  std::string SegmentBody(const SegmentRef& ref) const {
    std::ifstream in(dir_ + "/" + ref.file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes.substr(8 + 4 + 8);  // magic, CRC, length
  }

  static std::string Bytes(std::initializer_list<unsigned char> bytes) {
    return std::string(bytes.begin(), bytes.end());
  }

  static void FlipLastByte(const std::string& path) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0xFF));
  }

  // A one-relation effect inserting (k, k*10) into R.
  TransactionEffect Effect(int64_t k) {
    TransactionEffect effect;
    RelationEffect& re = effect.Mutable("R", Schema::OfInts({"A", "B"}));
    re.inserts.Insert(T({k, k * 10}));
    return effect;
  }

  std::vector<WalRecord> Reopen(WalOptions options = WalOptions{}) {
    std::vector<WalRecord> records;
    Wal wal(WalPath(), options,
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    return records;
  }

  std::string dir_;
};

TEST_F(StorageTest, WireCodecRoundTripsValuesAndTuples) {
  const ColumnTypes types = {ValueType::kInt64, ValueType::kString,
                             ValueType::kInt64};
  const std::vector<Tuple> rows = {
      Tuple({Value(0), Value(""), Value(-1)}),
      Tuple({Value(INT64_MIN), Value("x,\"y\"\n"), Value(INT64_MAX)}),
      Tuple({Value(63), Value(std::string(300, 'z')), Value(-64)}),
  };
  std::string buf;
  wire::PutU32(&buf, 0xDEADBEEFu);
  wire::PutI64(&buf, -42);
  wire::PutString(&buf, "hello, wal");
  wire::PutValue(&buf, Value(7));
  wire::PutValue(&buf, Value("seven"));
  wire::PutRowHeader(&buf, types);
  wire::PutRows(&buf, rows);
  wire::PutVarint(&buf, UINT64_MAX);

  wire::Reader r(buf);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetString(), "hello, wal");
  EXPECT_EQ(r.GetValue(), Value(7));
  EXPECT_EQ(r.GetValue(), Value("seven"));
  EXPECT_EQ(r.GetRowHeader(), types);
  EXPECT_EQ(r.GetRows(types), rows);
  EXPECT_EQ(r.GetVarint(), UINT64_MAX);
  EXPECT_TRUE(r.AtEnd());

  // Small magnitudes of either sign take one byte: the point of zigzag.
  for (int64_t v : {0, 1, -1, 63, -64}) {
    std::string one;
    wire::PutZigzag(&one, v);
    EXPECT_EQ(one.size(), 1u) << v;
  }
}

TEST_F(StorageTest, ReaderRejectsOverlongVarints) {
  // 0 padded to two bytes, and a value past 64 bits.
  for (const std::string& bad :
       {std::string("\x80\x00", 2), std::string(9, '\xFF') + "\x02",
        std::string(10, '\xFF') + "\x01", std::string("\x80")}) {
    wire::Reader r(bad);
    EXPECT_THROW(r.GetVarint(), CorruptionError);
  }
}

TEST_F(StorageTest, ReaderThrowsOnUnderflow) {
  std::string buf;
  wire::PutU32(&buf, 12345);
  wire::Reader r(buf);
  EXPECT_THROW(r.GetU64(), CorruptionError);
}

TEST_F(StorageTest, AppendThenReopenReplaysEveryRecord) {
  {
    Wal wal(WalPath(), WalOptions{});
    EXPECT_EQ(wal.Append(Effect(1)), 1u);
    EXPECT_EQ(wal.Append(Effect(2)), 2u);
    EXPECT_EQ(wal.Append(Effect(3)), 3u);
    WalStats stats = wal.stats();
    EXPECT_EQ(stats.durable_lsn, 3u);
    EXPECT_EQ(stats.records_appended, 3);
  }
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[2].lsn, 3u);
  ASSERT_EQ(records[1].changes.size(), 1u);
  EXPECT_EQ(records[1].changes[0].relation, "R");
  ASSERT_EQ(records[1].changes[0].inserts.size(), 1u);
  EXPECT_EQ(records[1].changes[0].inserts[0], T({2, 20}));
  EXPECT_TRUE(records[1].changes[0].deletes.empty());
}

TEST_F(StorageTest, RecordsCarryDeletesAndMultipleRelations) {
  {
    Wal wal(WalPath(), WalOptions{});
    TransactionEffect effect;
    RelationEffect& r = effect.Mutable("R", Schema::OfInts({"A", "B"}));
    r.inserts.Insert(T({1, 2}));
    r.deletes.Insert(T({3, 4}));
    RelationEffect& s = effect.Mutable("S", Schema::OfInts({"C"}));
    s.deletes.Insert(T({9}));
    wal.Append(effect);
  }
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].changes.size(), 2u);  // sorted: R before S
  EXPECT_EQ(records[0].changes[0].relation, "R");
  EXPECT_EQ(records[0].changes[0].deletes[0], T({3, 4}));
  EXPECT_EQ(records[0].changes[1].relation, "S");
  EXPECT_EQ(records[0].changes[1].deletes[0], T({9}));
}

TEST_F(StorageTest, TornTailIsTruncatedOnReopen) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    wal.Append(Effect(2));
  }
  uintmax_t good_size = std::filesystem::file_size(WalPath());
  {
    // Simulate a crash mid-append: half a record's worth of garbage.
    std::ofstream out(WalPath(), std::ios::binary | std::ios::app);
    out.write("\x20\x00\x00\x00garbage", 11);
  }
  std::vector<WalRecord> records;
  WalStats stats;
  {
    Wal wal(WalPath(), WalOptions{},
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    stats = wal.stats();
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.truncated_bytes, 11);
  EXPECT_EQ(stats.durable_lsn, 2u);
  EXPECT_EQ(std::filesystem::file_size(WalPath()), good_size);
}

TEST_F(StorageTest, CorruptedTailRecordIsDropped) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    wal.Append(Effect(2));
  }
  {
    // Flip a byte in the *last* record's payload: CRC fails, and because
    // it is the tail it is treated as a torn write, not corruption.
    std::fstream f(WalPath(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xFF');
  }
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
}

TEST_F(StorageTest, ReaderRejectsImpossibleCounts) {
  // A length prefix larger than the bytes that follow must fail as
  // corruption before any allocation is sized from it.
  std::string buf;
  wire::PutU32(&buf, 0xFFFFFFFFu);  // count: ~4 billion elements
  wire::PutString(&buf, "x");
  {
    wire::Reader r(buf);
    EXPECT_THROW(r.GetCount(), CorruptionError);
  }
  // The same for the row codec's varint counts: a row block or a header
  // claiming more elements than bytes follow.
  for (uint64_t count : {uint64_t{0xFFFFFFFF}, uint64_t{1} << 62}) {
    std::string rows;
    wire::PutVarint(&rows, count);
    wire::PutString(&rows, "x");
    wire::Reader block(rows);
    EXPECT_THROW(block.GetRows({ValueType::kInt64}), CorruptionError);
    wire::Reader header(rows);
    EXPECT_THROW(header.GetRowHeader(), CorruptionError);
  }
}

// A clobbered magic, and the previous format's magic (whose view meta
// carried two more bytes), are both refused rather than decoded.
TEST_F(StorageTest, BadHeaderMagicThrows) {
  for (const char* magic : {"X", "MVWAL004"}) {
    std::filesystem::remove(WalPath());
    {
      Wal wal(WalPath(), WalOptions{});
      wal.Append(Effect(1));
    }
    {
      std::fstream f(WalPath(),
                     std::ios::binary | std::ios::in | std::ios::out);
      f.write(magic, static_cast<std::streamsize>(std::strlen(magic)));
    }
    EXPECT_THROW(Reopen(), CorruptionError) << magic;
  }
}

TEST_F(StorageTest, PerCommitFsyncWhenBatchSizeIsOne) {
  WalOptions options;
  options.max_batch = 1;
  Wal wal(WalPath(), options);
  wal.Append(Effect(1));
  wal.Append(Effect(2));
  wal.Append(Effect(3));
  WalStats stats = wal.stats();
  EXPECT_EQ(stats.records_appended, 3);
  EXPECT_EQ(stats.fsyncs, 3);
}

TEST_F(StorageTest, ConcurrentAppendsAllBecomeDurableInOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    WalOptions options;
    options.group_commit_window = std::chrono::microseconds(200);
    Wal wal(WalPath(), options);
    std::vector<std::thread> threads;
    std::atomic<int> next{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          wal.Append(Effect(next.fetch_add(1)));
        }
      });
    }
    for (auto& t : threads) t.join();
    WalStats stats = wal.stats();
    EXPECT_EQ(stats.records_appended, kThreads * kPerThread);
    EXPECT_EQ(stats.durable_lsn, uint64_t{kThreads * kPerThread});
    EXPECT_LE(stats.fsyncs, stats.records_appended);
    EXPECT_EQ(stats.batch_commits.total_samples(), stats.fsyncs);
    EXPECT_GE(stats.batch_commits.max_sample(), 1);
  }
  // Replay yields a gapless LSN sequence (the scan enforces it).
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
}

TEST_F(StorageTest, RotateEmptiesTheLogAndRebases) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    wal.Append(Effect(2));
    wal.Rotate(2);
    EXPECT_EQ(wal.stats().base_lsn, 2u);
    wal.Append(Effect(3));
    EXPECT_EQ(wal.stats().durable_lsn, 3u);
  }
  // The atomic swap leaves no scratch file behind.
  EXPECT_FALSE(std::filesystem::exists(WalPath() + ".tmp"));
  std::vector<WalRecord> records = Reopen();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 3u);
}

TEST_F(StorageTest, TornHeaderIsRecoverableWhenOptedIn) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
  }
  {
    // Simulate a crash mid header (re)write: a prefix of the 16-byte
    // header, which cannot hold any record.
    std::ofstream out(WalPath(), std::ios::binary | std::ios::trunc);
    out.write("MVW", 3);
  }
  // Without a checkpoint vouching for the state, this is corruption.
  EXPECT_THROW(Reopen(), CorruptionError);

  WalOptions options;
  options.tolerate_torn_header = true;
  std::vector<WalRecord> records;
  WalStats stats;
  {
    Wal wal(WalPath(), options,
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    stats = wal.stats();
    // The caller (Storage::Attach) rebases above the checkpoint; here
    // just prove the log came back healthy and empty.
    wal.Rotate(5);
    EXPECT_EQ(wal.Append(Effect(6)), 6u);
  }
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(stats.truncated_bytes, 3);
  std::vector<WalRecord> replayed = Reopen();
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].lsn, 6u);
}

TEST_F(StorageTest, TornHeaderToleranceStillRejectsLogsWithRecords) {
  // A clobbered magic, or the previous format's: the record bytes remain.
  for (const char* magic : {"X", "MVWAL004"}) {
    std::filesystem::remove(WalPath());
    {
      Wal wal(WalPath(), WalOptions{});
      wal.Append(Effect(1));
    }
    {
      std::fstream f(WalPath(),
                     std::ios::binary | std::ios::in | std::ios::out);
      f.write(magic, static_cast<std::streamsize>(std::strlen(magic)));
    }
    WalOptions options;
    options.tolerate_torn_header = true;
    EXPECT_THROW(Reopen(options), CorruptionError) << magic;
  }
}

TEST_F(StorageTest, InjectedTornWriteFailsTheLogStickily) {
  {
    util::FaultSpec torn;  // the second append is torn in half
    torn.kind = util::FaultKind::kIoError;
    torn.hits_before = 1;
    util::ScopedFault fault("wal.torn_write", torn);
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
    EXPECT_THROW(wal.Append(Effect(2)), IoError);
    EXPECT_TRUE(wal.failed());
    // Sticky: the log refuses further appends after a failure.
    EXPECT_THROW(wal.Append(Effect(3)), IoError);
  }
  // Recovery drops the torn record and keeps the durable prefix.
  std::vector<WalRecord> records;
  WalStats stats;
  {
    Wal wal(WalPath(), WalOptions{},
            [&](WalRecord&& r) { records.push_back(std::move(r)); });
    stats = wal.stats();
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_GT(stats.truncated_bytes, 0);
  EXPECT_EQ(stats.durable_lsn, 1u);
}

TEST_F(StorageTest, CrashBeforeSyncLeavesRecoverableLog) {
  {
    util::FaultSpec power_loss;
    power_loss.kind = util::FaultKind::kIoError;
    power_loss.sticky = true;
    util::ScopedFault fault("wal.before_sync", power_loss);
    Wal wal(WalPath(), WalOptions{});
    EXPECT_THROW(wal.Append(Effect(1)), IoError);
  }
  // The bytes happen to be intact (the "may or may not be durable"
  // window); recovery either replays or truncates — both are valid, and
  // the log must come back healthy either way.
  std::vector<WalRecord> records = Reopen();
  EXPECT_LE(records.size(), 1u);
  Wal wal(WalPath(), WalOptions{});
  EXPECT_FALSE(wal.failed());
}

TEST_F(StorageTest, CheckpointRoundTripsTablesViewsAndAssertions) {
  Database db;
  MakeRelation(&db, "R", {"A", "B"}, {{1, 2}, {3, 4}});
  MakeRelation(&db, "S", {"B2", "C"}, {{2, 20}, {4, 40}});
  ViewManager views(&db);
  views.RegisterView(
      ViewDefinition("j", {BaseRef{"R", {}}, BaseRef{"S", {}}}, "B = B2",
                     {"A", "C"}),
      MaintenanceMode::kImmediate);
  views.RegisterView(ViewDefinition::Select("sel", "R", "A > 1"),
                     MaintenanceMode::kDeferred);
  // Make the deferred view stale so the checkpoint must carry a backlog.
  Transaction txn;
  txn.Insert("R", T({5, 2}));
  views.Apply(txn);
  ASSERT_TRUE(views.Describe("sel").stale);
  IntegrityGuard guard(&db);
  guard.AddAssertion("no_big_a", {"R"}, "A > 100");

  Write(/*lsn=*/7, db, views, &guard);
  Database back_db;
  ViewManager back(&back_db);
  CheckpointManifest m = Install(&back_db, &back);
  EXPECT_EQ(m.lsn, 7u);
  ASSERT_EQ(m.tables.size(), 2u);
  EXPECT_EQ(m.tables[0].name, "R");
  EXPECT_EQ(back_db.Get("R").ToSortedVector(), db.Get("R").ToSortedVector());
  EXPECT_EQ(back_db.Get("S").ToSortedVector(), db.Get("S").ToSortedVector());
  ASSERT_EQ(back.ViewNames(), views.ViewNames());
  EXPECT_TRUE(back.View("j").SameContents(views.View("j")));
  EXPECT_TRUE(back.Materialization("sel").SameContents(
      views.Materialization("sel")));
  EXPECT_EQ(back.Describe("sel").mode, MaintenanceMode::kDeferred);
  EXPECT_EQ(back.Describe("sel").pending_tuples, 1);
  EXPECT_EQ(back.PendingLogs("sel")[0]->inserts().ToSortedVector(),
            std::vector<Tuple>{T({5, 2})});
  // What was installed is the image: nothing is marked changed.
  EXPECT_FALSE(back.changed_scopes().Changed("R"));
  EXPECT_FALSE(back.changed_scopes().Changed("S"));
  ASSERT_EQ(m.assertions.size(), 1u);
  EXPECT_EQ(m.assertions[0].name(), "no_big_a");
  // The condition survived structurally.
  EXPECT_EQ(m.assertions[0].condition().ToString(),
            guard.Definition("no_big_a").condition().ToString());
}

TEST_F(StorageTest, MissingCheckpointIsNotAnError) {
  EXPECT_FALSE(ReadManifest(dir_).has_value());
}

TEST_F(StorageTest, CorruptCheckpointThrows) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}, {2}, {3}});
  ViewManager views(&db);
  CheckpointManifest m = Write(1, db, views, nullptr);
  ASSERT_EQ(m.tables.size(), 1u);
  const std::string segment = dir_ + "/" + m.tables[0].chain[0].file;

  // A flipped byte in a segment fails its CRC when the image is read ...
  FlipLastByte(segment);
  {
    Database back_db;
    ViewManager back(&back_db);
    EXPECT_THROW(Install(&back_db, &back), CorruptionError);
  }
  FlipLastByte(segment);
  {
    Database back_db;
    ViewManager back(&back_db);
    Install(&back_db, &back);
    EXPECT_EQ(back_db.Get("R").size(), 3u);
  }

  // ... and one in the manifest fails it as soon as it is read.
  FlipLastByte(ManifestPath());
  EXPECT_THROW(ReadManifest(dir_), CorruptionError);
  FlipLastByte(ManifestPath());
  ASSERT_TRUE(ReadManifest(dir_).has_value());

  // Files under the previous format's magics are refused, not decoded,
  // even with an intact CRC: that format carried the views' row chains.
  {
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    f.write("MVSEG003", 8);
  }
  {
    Database back_db;
    ViewManager back(&back_db);
    EXPECT_THROW(Install(&back_db, &back), CorruptionError);
  }
  {
    std::fstream f(ManifestPath(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.write("MVMANIF4", 8);
  }
  EXPECT_THROW(ReadManifest(dir_), CorruptionError);
}

TEST_F(StorageTest, CheckpointOverwriteIsAtomic) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}});
  ViewManager views(&db);
  CheckpointManifest first = Write(1, db, views, nullptr);
  db.Get("R").Insert(T({2}));
  views.changed_scopes().MarkRows("R");
  Write(2, db, views, nullptr, &first);
  Database back_db;
  ViewManager back(&back_db);
  CheckpointManifest m = Install(&back_db, &back);
  EXPECT_EQ(m.lsn, 2u);
  EXPECT_EQ(m.generation, first.generation + 1);
  EXPECT_EQ(back_db.Get("R").size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPath() + ".tmp"));
}

// A manifest whose CRC is valid but whose counts are absurd must fail as
// corruption before the decoder sizes a vector from them: a chain length
// beyond the bytes left or beyond the compaction cap, or an empty chain.
TEST_F(StorageTest, ManifestChainLengthIsClampedToItsBytes) {
  for (uint64_t chain : {uint64_t{0xFFFFFFFF}, uint64_t{kMaxDeltas + 2},
                         uint64_t{0}}) {
    std::string body;
    wire::PutU64(&body, 1);  // lsn
    wire::PutU64(&body, 1);  // generation
    wire::PutVarint(&body, 1);  // one table ...
    wire::PutString(&body, "R");
    wire::PutSchema(&body, Schema::OfInts({"A"}));
    wire::PutVarint(&body, chain);  // ... whose chain is cut short
    for (uint64_t i = 0; i < std::min<uint64_t>(chain, kMaxDeltas + 2); ++i) {
      wire::PutString(&body, "seg_1_" + std::to_string(i) + ".mv");
      wire::PutVarint(&body, 20);
    }
    wire::PutVarint(&body, 0);  // views
    wire::PutVarint(&body, 0);  // assertions
    WriteRawManifest(body);
    EXPECT_THROW(ReadManifest(dir_), CorruptionError) << chain;
  }
}

// Recovery opens `dir + "/" + name` for every segment a manifest lists,
// so a name outside `seg_<gen>_<seq>.mv` must be rejected even when the
// file it points at is a perfectly valid segment.
TEST_F(StorageTest, ManifestSegmentNamesMustBeSegmentFiles) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}, {2}});
  ViewManager views(&db);
  CheckpointManifest m = Write(1, db, views, nullptr);
  const SegmentRef& base = m.tables[0].chain[0];
  std::filesystem::copy_file(dir_ + "/" + base.file, dir_ + "/elsewhere.mv");
  for (const std::string& name :
       {std::string("elsewhere.mv"),
        std::string("../") + std::filesystem::path(dir_).filename().string() +
            "/" + base.file}) {
    std::string body;
    wire::PutU64(&body, 1);  // lsn
    wire::PutU64(&body, 2);  // generation
    wire::PutVarint(&body, 1);  // tables
    wire::PutString(&body, "R");
    wire::PutSchema(&body, db.Get("R").schema());
    wire::PutVarint(&body, 1);  // chain
    wire::PutString(&body, name);
    wire::PutVarint(&body, base.bytes);
    wire::PutVarint(&body, 0);  // views
    wire::PutVarint(&body, 0);  // assertions
    WriteRawManifest(body);
    EXPECT_THROW(ReadManifest(dir_), CorruptionError) << name;
  }
}

// A base segment is the table's rows in sorted order as one packed block —
// kind, column-type header, then the block — and the manifest records the
// framed file's size.  A view writes no segment: it is derived state.
TEST_F(StorageTest, SegmentBytesArePackedBlocksOfTheSortedScope) {
  Database db;
  Relation& rel = db.CreateRelation(
      "S", Schema({{"id", ValueType::kInt64}, {"s", ValueType::kString}}));
  const std::vector<std::string> strings = {
      "plain", "with,comma", "with \"quotes\"", "line\nbreak", "cr\r",
      "", "\"", "a,\"b\",c"};
  for (int64_t i = 0; i < 64; ++i) {
    rel.Insert(Tuple({Value(i - 20), Value(strings[i % strings.size()] +
                                           std::to_string(i % 5))}));
  }
  ViewManager views(&db);
  views.RegisterView(ViewDefinition::Select("v", "S", "id > -5", {"s"}),
                     MaintenanceMode::kImmediate);

  CheckpointManifest m = Write(1, db, views, nullptr);
  auto segment = [&](const SegmentRef& ref) {
    std::ifstream in(dir_ + "/" + ref.file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), ref.bytes);
    return bytes.substr(8 + 4 + 8);  // magic, CRC, length
  };

  const std::vector<Tuple> table_rows = rel.ToSortedVector();
  std::vector<wire::CountedRow> block;
  for (const Tuple& t : table_rows) block.emplace_back(&t, 1);
  std::string table;
  wire::PutU8(&table, static_cast<uint8_t>(SegmentKind::kBase));
  wire::PutRowHeader(&table, ColumnTypesOf(rel.schema()));
  wire::PutPackedRows(&table, ColumnTypesOf(rel.schema()), block,
                      /*counted=*/false);
  ASSERT_EQ(m.tables.size(), 1u);
  ASSERT_EQ(m.tables[0].chain.size(), 1u);
  EXPECT_EQ(segment(m.tables[0].chain[0]), table);

  ASSERT_EQ(m.views.size(), 1u);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"manifest.mv",
                                             m.tables[0].chain[0].file}));
}

// A changed table gets one delta holding exactly the rows that came or
// went, with the count after the change (1, or 0 = gone); an unchanged one
// keeps its chain, and recovery applies the chain over the base and
// derives the view from the result.
TEST_F(StorageTest, DeltaSegmentHoldsOnlyTheChangedRows) {
  Database db;
  // The two wide rows keep R's packed base larger than a two-row delta, so
  // the byte rule extends the chain instead of compacting it.
  MakeRelation(&db, "R", {"A", "B"},
               {{1, 1}, {2, 1}, {3, 2}, {4, 2}, {1000000, 7}, {2000000, 9}});
  MakeRelation(&db, "Q", {"C"}, {{9}});
  ViewManager views(&db);
  views.RegisterView(ViewDefinition::Select("p", "R", "A > 0", {"B"}),
                     MaintenanceMode::kImmediate);
  CheckpointManifest first = Write(1, db, views, nullptr);
  views.changed_scopes().Clear();

  Transaction txn;
  txn.Delete("R", T({1, 1}));
  txn.Insert("R", T({5, 3}));
  views.Apply(txn);
  CheckpointStats stats;
  CheckpointManifest second = WriteCheckpoint(
      dir_, 2, db, views, nullptr, views.changed_scopes(), &first, &stats);
  EXPECT_EQ(stats.segments_written, 1);  // R; Q carried, p derived
  EXPECT_EQ(stats.scopes_skipped, 1);
  EXPECT_EQ(second.tables[0].name, "Q");
  EXPECT_EQ(second.tables[0].chain.size(), 1u);
  ASSERT_EQ(second.tables[1].chain.size(), 2u);
  EXPECT_EQ(second.tables[1].chain[0].file, first.tables[1].chain[0].file);

  // The rows (1, 1) now 0 times and (5, 3) once, as golden bytes.
  const std::string delta = Bytes({
      0x01,              // kind: delta
      0x02, 0x00, 0x00,  // two int64 columns
      0x02,              // two rows
      0x02, 0x03, 0x20,  // A: base 1, 3-bit gaps 0 and 4
      0x02, 0x02, 0x08,  // B: base 1, 2-bit offsets 0 and 2
      0x00, 0x01, 0x02,  // counts: base 0, 1-bit offsets 0 and 1
  });
  EXPECT_EQ(SegmentBody(second.tables[1].chain[1]), delta);

  std::vector<Tuple> image;
  ScanImage(dir_, second.tables[1],
            [&](const Tuple& t) { image.push_back(t); });
  EXPECT_EQ(image, db.Get("R").ToSortedVector());

  Database back_db;
  ViewManager back(&back_db);
  Install(&back_db, &back);
  EXPECT_EQ(back_db.Get("R").ToSortedVector(), db.Get("R").ToSortedVector());
  EXPECT_TRUE(back.View("p").SameContents(views.View("p")));
}

// Pins the packed segment format: a small table's base, byte for byte.
TEST_F(StorageTest, BaseSegmentGoldenBytes) {
  Database db;
  Relation& rel = db.CreateRelation(
      "T", Schema({{"k", ValueType::kInt64},
                   {"s", ValueType::kString},
                   {"n", ValueType::kInt64}}));
  rel.Insert(Tuple({Value(3), Value(""), Value(7)}));
  rel.Insert(Tuple({Value(-2), Value("c"), Value(5)}));
  rel.Insert(Tuple({Value(-2), Value("ab"), Value(7)}));
  ViewManager views(&db);
  CheckpointManifest m = Write(1, db, views, nullptr);
  ASSERT_EQ(m.tables.size(), 1u);
  const std::string base = Bytes({
      0x00,                    // kind: table base
      0x03, 0x00, 0x01, 0x00,  // columns int64, string, int64
      0x03,                    // three rows
      0x03, 0x03, 0x40, 0x01,  // k: base -2, 3-bit gaps 0, 0, 5
      0x00, 0x02, 0x06,        // s: lengths base 0, 2-bit offsets 2, 1, 0
      'a', 'b', 'c',           //    then the bytes of "ab", "c", ""
      0x0a, 0x02, 0x22,        // n: base 5, 2-bit offsets 2, 0, 2
  });
  EXPECT_EQ(SegmentBody(m.tables[0].chain[0]), base);
}

}  // namespace
}  // namespace mview::storage
