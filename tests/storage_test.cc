#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "db/database.h"
#include "ivm/view_manager.h"
#include "relational/csv.h"
#include "relational/partition.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/error.h"

namespace mview::storage {
namespace {

using ::mview::testing::MakeRelation;
using ::mview::testing::T;

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() {
    dir_ = ::testing::TempDir() + "/mview_storage_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~StorageTest() override { std::filesystem::remove_all(dir_); }

  std::string WalPath() const { return dir_ + "/wal.mv"; }
  std::string ManifestPath() const { return dir_ + "/manifest.mv"; }

  // A full checkpoint of `db`/`views` into the test directory, sliced into
  // `partitions` segments per scope.
  CheckpointManifest WriteFull(uint64_t lsn, const Database& db,
                               const ViewManager& views,
                               const IntegrityGuard* guard,
                               uint32_t partitions = 4,
                               const CheckpointManifest* prev = nullptr) {
    return WriteIncrementalCheckpoint(dir_, lsn, db, views, guard,
                                      views.dirty_partitions(), partitions,
                                      prev, nullptr);
  }

  // Frames `body` as a manifest file (magic, CRC, length) and installs it.
  void WriteRawManifest(const std::string& body) {
    std::string file = "MVMANIF1";
    wire::PutU32(&file, Crc32(body.data(), body.size()));
    wire::PutU64(&file, body.size());
    file += body;
    std::ofstream(ManifestPath(), std::ios::binary | std::ios::trunc) << file;
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
  std::string buf;
  wire::PutU32(&buf, 0xDEADBEEFu);
  wire::PutI64(&buf, -42);
  wire::PutString(&buf, "hello, wal");
  wire::PutValue(&buf, Value(7));
  wire::PutValue(&buf, Value("seven"));
  wire::PutTuple(&buf, Tuple({Value(1), Value("x")}));

  wire::Reader r(buf);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetString(), "hello, wal");
  EXPECT_EQ(r.GetValue(), Value(7));
  EXPECT_EQ(r.GetValue(), Value("seven"));
  EXPECT_EQ(r.GetTuple(), Tuple({Value(1), Value("x")}));
  EXPECT_TRUE(r.AtEnd());
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
  {
    wire::Reader r(buf);  // same bytes read as a tuple arity
    EXPECT_THROW(r.GetTuple(), CorruptionError);
  }
}

TEST_F(StorageTest, BadHeaderMagicThrows) {
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
  }
  {
    std::fstream f(WalPath(), std::ios::binary | std::ios::in | std::ios::out);
    f.put('X');  // clobber the magic
  }
  EXPECT_THROW(Reopen(), CorruptionError);
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
  {
    Wal wal(WalPath(), WalOptions{});
    wal.Append(Effect(1));
  }
  {
    std::fstream f(WalPath(), std::ios::binary | std::ios::in | std::ios::out);
    f.put('X');  // clobber the magic; the record bytes remain
  }
  WalOptions options;
  options.tolerate_torn_header = true;
  EXPECT_THROW(Reopen(options), CorruptionError);
}

class TornWritePolicy : public FailurePolicy {
 public:
  explicit TornWritePolicy(int fail_at) : fail_at_(fail_at) {}
  size_t AdmitWrite(size_t size) override {
    if (--fail_at_ == 0) return size / 2;
    return size;
  }

 private:
  int fail_at_;
};

TEST_F(StorageTest, InjectedTornWriteFailsTheLogStickily) {
  TornWritePolicy policy(/*fail_at=*/2);
  WalOptions options;
  options.failure_policy = &policy;
  {
    Wal wal(WalPath(), options);
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

class SyncCrashPolicy : public FailurePolicy {
 public:
  void BeforeSync() override {
    throw IoError("injected power loss before fsync");
  }
};

TEST_F(StorageTest, CrashBeforeSyncLeavesRecoverableLog) {
  SyncCrashPolicy policy;
  WalOptions options;
  options.failure_policy = &policy;
  {
    Wal wal(WalPath(), options);
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

  WriteFull(/*lsn=*/7, db, views, &guard);
  auto recovered = ReadIncrementalCheckpoint(dir_);
  ASSERT_TRUE(recovered.has_value());
  const CheckpointData& data = recovered->data;
  EXPECT_EQ(data.lsn, 7u);
  EXPECT_EQ(recovered->manifest.lsn, 7u);
  ASSERT_EQ(data.tables.size(), 2u);
  EXPECT_EQ(data.tables[0].first, "R");
  EXPECT_EQ(data.tables[0].second.size(), 3u);
  ASSERT_EQ(data.views.size(), 2u);
  EXPECT_EQ(data.views[0].name, "j");
  EXPECT_TRUE(data.views[0].materialized.SameContents(views.View("j")));
  EXPECT_EQ(data.views[1].mode, MaintenanceMode::kDeferred);
  ASSERT_EQ(data.views[1].pending.size(), 1u);
  ASSERT_EQ(data.views[1].pending[0].inserts.size(), 1u);
  EXPECT_EQ(data.views[1].pending[0].inserts[0], T({5, 2}));
  ASSERT_EQ(data.assertions.size(), 1u);
  EXPECT_EQ(data.assertions[0].name(), "no_big_a");
  // The condition survived structurally.
  EXPECT_EQ(data.assertions[0].condition().ToString(),
            guard.Definition("no_big_a").condition().ToString());
}

TEST_F(StorageTest, MissingCheckpointIsNotAnError) {
  EXPECT_FALSE(ReadIncrementalCheckpoint(dir_).has_value());
}

TEST_F(StorageTest, CorruptCheckpointThrows) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}, {2}, {3}});
  ViewManager views(&db);
  CheckpointManifest m = WriteFull(1, db, views, nullptr, /*partitions=*/1);
  ASSERT_EQ(m.tables.size(), 1u);
  const std::string segment = dir_ + "/" + m.tables[0].segments[0];

  // A flipped byte in a segment fails its CRC ...
  FlipLastByte(segment);
  EXPECT_THROW(ReadIncrementalCheckpoint(dir_), CorruptionError);
  FlipLastByte(segment);
  ASSERT_TRUE(ReadIncrementalCheckpoint(dir_).has_value());

  // ... and so does one in the manifest.
  FlipLastByte(ManifestPath());
  EXPECT_THROW(ReadIncrementalCheckpoint(dir_), CorruptionError);
}

TEST_F(StorageTest, CheckpointOverwriteIsAtomic) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}});
  ViewManager views(&db);
  CheckpointManifest first = WriteFull(1, db, views, nullptr);
  db.Get("R").Insert(T({2}));
  WriteFull(2, db, views, nullptr, /*partitions=*/4, &first);
  auto recovered = ReadIncrementalCheckpoint(dir_);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->data.lsn, 2u);
  EXPECT_EQ(recovered->manifest.generation, first.generation + 1);
  EXPECT_EQ(recovered->data.tables[0].second.size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(ManifestPath() + ".tmp"));
}

// A manifest whose CRC is valid but whose partition count is absurd must
// fail as corruption before the decoder sizes a vector from it (~128 GiB
// of strings for 0xFFFFFFFF).
TEST_F(StorageTest, ManifestPartitionCountIsClampedToItsBytes) {
  std::string body;
  wire::PutU64(&body, 1);            // lsn
  wire::PutU64(&body, 1);            // generation
  wire::PutU32(&body, 0xFFFFFFFFu);  // partitions
  wire::PutU32(&body, 1);            // one table ...
  wire::PutString(&body, "R");       // ... whose segment list is missing
  WriteRawManifest(body);
  EXPECT_THROW(ReadIncrementalCheckpoint(dir_), CorruptionError);
}

// Recovery opens `dir + "/" + name` for every segment a manifest lists,
// so a name outside `seg_<gen>_<seq>.mv` must be rejected even when the
// file it points at is a perfectly valid segment.
TEST_F(StorageTest, ManifestSegmentNamesMustBeSegmentFiles) {
  Database db;
  MakeRelation(&db, "R", {"A"}, {{1}, {2}});
  ViewManager views(&db);
  CheckpointManifest m = WriteFull(1, db, views, nullptr, /*partitions=*/1);
  std::filesystem::copy_file(dir_ + "/" + m.tables[0].segments[0],
                             dir_ + "/elsewhere.mv");
  for (const std::string& name :
       {std::string("elsewhere.mv"), std::string("../") +
                                         std::filesystem::path(dir_)
                                             .filename()
                                             .string() +
                                         "/" + m.tables[0].segments[0]}) {
    std::string body;
    wire::PutU64(&body, 1);  // lsn
    wire::PutU64(&body, 2);  // generation
    wire::PutU32(&body, 1);  // partitions
    wire::PutU32(&body, 1);  // tables
    wire::PutString(&body, "R");
    wire::PutString(&body, name);
    wire::PutU32(&body, 0);  // views
    wire::PutU32(&body, 0);  // assertions
    WriteRawManifest(body);
    EXPECT_THROW(ReadIncrementalCheckpoint(dir_), CorruptionError) << name;
  }
}

// Segments are encoded straight from one bucketing pass over each scope;
// their bytes must equal `WriteCsv` of the same slice — including string
// values that need CSV quoting — for tables (plain rows) and views
// (rows with counts).
TEST_F(StorageTest, SegmentBytesEqualWriteCsvOfTheSlice) {
  constexpr uint32_t kPartitions = 4;
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

  CheckpointManifest m = WriteFull(1, db, views, nullptr, kPartitions);
  auto segment_csv = [&](const std::string& file) {
    std::ifstream in(dir_ + "/" + file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes.substr(8 + 4 + 8);  // magic, CRC, length
  };
  for (uint32_t p = 0; p < kPartitions; ++p) {
    Relation table_slice(rel.schema());
    rel.Scan([&](const Tuple& t) {
      if (PartitionOf(t, kRowHashKey, kPartitions) == p) table_slice.Insert(t);
    });
    std::ostringstream table_csv;
    WriteCsv(table_slice, table_csv);
    EXPECT_EQ(segment_csv(m.tables[0].segments[p]), table_csv.str())
        << "table partition " << p;

    const CountedRelation& view = views.View("v");
    CountedRelation view_slice(view.schema());
    view.Scan([&](const Tuple& t, int64_t count) {
      if (PartitionOf(t, kRowHashKey, kPartitions) == p) {
        view_slice.Add(t, count);
      }
    });
    std::ostringstream view_csv;
    WriteCsv(view_slice, view_csv);
    EXPECT_EQ(segment_csv(m.view_segments[0].segments[p]), view_csv.str())
        << "view partition " << p;
  }
  // The projection collapsed duplicates, so some counts exceed one.
  bool multi = false;
  views.View("v").Scan([&](const Tuple&, int64_t c) { multi |= c > 1; });
  EXPECT_TRUE(multi);
}

}  // namespace
}  // namespace mview::storage
