// Seeded mutation test over every storage decoder: the row codec, the
// packed block, WAL records, the checkpoint manifest (with its chains and
// packed pending backlogs) and base and delta segments.  Bodies are
// recorded from a small durable workload, then mutated — bit flips,
// truncations, splices of other bodies — and fed back through the real
// entry points, mostly with a valid frame (so the CRC passes and the
// decoder, not the checksum, has to cope) and otherwise with the frame
// mutated too.  Every mutated input must decode or raise
// `CorruptionError`: no other exception, no crash (run under the asan
// preset), and no allocation sized from a corrupt count rather than from
// the bytes at hand.
//
// Targeted cases then build packed blocks that break one rule each: a width
// above 64, a row count the bytes cannot hold, values or running sums
// leaving int64, rows out of order, and bytes after the block.
//
// MVIEW_FUZZ_ITERS sets the mutations per recorded body (default 200).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "sql/engine.h"
#include "storage/checkpoint.h"
#include "storage/codec.h"
#include "storage/file.h"
#include "storage/storage.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/error.h"

namespace {

// The largest single heap allocation since the last reset.  Replacing the
// global allocation functions is the one way to see a `reserve` sized from
// a corrupt count even when it would succeed.
std::atomic<size_t> largest_allocation{0};

}  // namespace

// Out of line, so the compiler never pairs an inlined `free` with a `new`.
[[gnu::noinline]] void* operator new(std::size_t size) {
  size_t seen = largest_allocation.load(std::memory_order_relaxed);
  while (size > seen &&
         !largest_allocation.compare_exchange_weak(seen, size,
                                                   std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mview::storage {
namespace {

using sql::Engine;

constexpr size_t kFrame = 8 + 4 + 8;  // magic, CRC, body length

int64_t Iterations() {
  const char* env = std::getenv("MVIEW_FUZZ_ITERS");
  return env == nullptr ? 200 : std::max<int64_t>(1, std::atoll(env));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string Frame(const char* magic, const std::string& body) {
  std::string file(magic, 8);
  wire::PutU32(&file, Crc32(body.data(), body.size()));
  wire::PutU64(&file, body.size());
  return file + body;
}

/// Bodies recorded from one small durable workload.
struct Recorded {
  CheckpointManifest manifest;
  std::string manifest_body;
  std::string wal_header;                 // magic and base LSN
  std::vector<std::string> wal_payloads;  // in log order
  std::string rows;    // a row-codec block: header, count, rows
  std::string packed;  // a header and a counted packed block
};

// Tables with strings that need every kind of care, negative and large
// integers, an immediate join, a DEFERRED view with a backlog, an
// assertion, two checkpoints (so chains hold deltas), and a WAL tail with
// effects, catalog changes and a quarantine-free history.
Recorded Record(const std::string& dir) {
  std::filesystem::remove_all(dir);
  Recorded out;
  Storage::Options options;
  options.checkpoint_on_close = false;
  UnsyncedFileSystem unsynced;
  ScopedFileSystem no_fsync(&unsynced);
  {
    auto storage = Storage::Open(dir, options);
    Engine engine(storage.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b STRING);"
        "CREATE TABLE s (c INT64, d INT64);"
        "CREATE MATERIALIZED VIEW j AS SELECT a, b, d FROM r, s WHERE a = c;"
        "CREATE MATERIALIZED VIEW p DEFERRED AS SELECT b FROM r WHERE a < 20;"
        "CREATE ASSERTION bounded ON s WHERE d > 1000000000;");
    const std::vector<std::string> strings = {
        "", "x,y", "q\"uote", "line\nbreak", "long-" + std::string(200, 'z')};
    auto insert = [&](int from, int to) {
      for (int a = from; a < to; ++a) {
        engine.Execute("INSERT INTO r VALUES (" + std::to_string(a) + ", '" +
                       strings[static_cast<size_t>(a) % strings.size()] +
                       std::to_string(a) + "')");
        engine.Execute("INSERT INTO s VALUES (" + std::to_string(a) + ", " +
                       std::to_string(a * -7919 + 1) + ")");
      }
    };
    insert(-10, 30);
    engine.Execute("CHECKPOINT");
    insert(30, 36);
    engine.Execute("DELETE FROM r WHERE a < -5");
    engine.Execute("CHECKPOINT");
    insert(36, 40);
    engine.Execute("DELETE FROM s WHERE c > 37");
    engine.ExecuteScript(
        "DROP VIEW j;"
        "CREATE MATERIALIZED VIEW j AS SELECT a, d FROM r, s WHERE a = c;");
  }
  out.manifest = *ReadManifest(dir);
  out.manifest_body = ReadFile(dir + "/manifest.mv").substr(kFrame);

  const std::string wal = ReadFile(dir + "/wal.mv");
  out.wal_header = wal.substr(0, 16);
  for (size_t at = 16; at + 8 <= wal.size();) {
    wire::Reader frame(wal.data() + at, 8);
    const uint32_t len = frame.GetU32();
    out.wal_payloads.push_back(wal.substr(at + 8, len));
    at += 8 + len;
  }

  const ColumnTypes types = {ValueType::kInt64, ValueType::kString,
                             ValueType::kInt64};
  std::vector<Tuple> rows;
  for (int64_t i = -3; i < 12; ++i) {
    rows.push_back(Tuple({Value(i * 1000003), Value(std::string(i + 3, 'v')),
                          Value(-i)}));
  }
  wire::PutRowHeader(&out.rows, types);
  wire::PutRows(&out.rows, rows);

  std::sort(rows.begin(), rows.end());
  std::vector<wire::CountedRow> block;
  for (size_t i = 0; i < rows.size(); ++i) {
    block.emplace_back(&rows[i], static_cast<int64_t>(i % 3));
  }
  wire::PutRowHeader(&out.packed, types);
  wire::PutPackedRows(&out.packed, types, block, /*counted=*/true);
  return out;
}

/// Seeded mutations: bit flips, truncations, and splices of a chunk of
/// another recorded body into this one.
class Mutator {
 public:
  Mutator(uint64_t seed, std::vector<std::string> donors)
      : rng_(seed), donors_(std::move(donors)) {}

  std::string Mutate(std::string body) {
    switch (Below(3)) {
      case 0: {  // flip one to four bits
        if (body.empty()) return body;
        for (size_t n = 1 + Below(4); n > 0; --n) {
          body[Below(body.size())] ^= static_cast<char>(1u << Below(8));
        }
        return body;
      }
      case 1:  // truncate
        return body.substr(0, Below(body.size() + 1));
      default: {  // replace a range with a chunk of a donor body
        const std::string& donor = donors_[Below(donors_.size())];
        const size_t from = Below(donor.size() + 1);
        const size_t take =
            Below(std::min<size_t>(donor.size() - from, 64) + 1);
        const size_t at = Below(body.size() + 1);
        const size_t drop = Below(std::min<size_t>(body.size() - at, 64) + 1);
        return body.substr(0, at) + donor.substr(from, take) +
               body.substr(at + drop);
      }
    }
  }

 private:
  size_t Below(size_t n) { return n == 0 ? 0 : rng_() % n; }

  std::mt19937_64 rng_;
  std::vector<std::string> donors_;
};

class StorageFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::ScratchDir();
    recorded_ = Record(dir_);
    std::vector<std::string> donors = {recorded_.manifest_body, recorded_.rows,
                                       recorded_.packed};
    for (const auto& p : recorded_.wal_payloads) donors.push_back(p);
    for (const auto& scope : recorded_.manifest.tables) {
      for (const auto& ref : scope.chain) {
        donors.push_back(ReadFile(dir_ + "/" + ref.file).substr(kFrame));
      }
    }
    mutator_ = std::make_unique<Mutator>(20260501, std::move(donors));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Runs `decode` on a mutated input of `size` bytes: it must succeed or
  // throw `CorruptionError`, and allocate nothing much larger than its
  // input (decoded rows cost a few dozen bytes per encoded byte).
  template <typename Fn>
  void ExpectDecodesOrCorruption(const std::string& what, size_t size,
                                 Fn&& decode) {
    largest_allocation.store(0);
    try {
      decode();
      ++decoded_;
    } catch (const CorruptionError&) {
      ++rejected_;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": not a CorruptionError: " << e.what();
    }
    EXPECT_LE(largest_allocation.load(), 64 * size + (64 << 10)) << what;
  }

  // Both outcomes must occur, or the mutations never reached the decoder.
  void ExpectBothOutcomes() {
    EXPECT_GT(decoded_, 0);
    EXPECT_GT(rejected_, 0);
  }

  std::string dir_;
  Recorded recorded_;
  std::unique_ptr<Mutator> mutator_;
  int64_t decoded_ = 0;
  int64_t rejected_ = 0;
};

TEST_F(StorageFuzzTest, RowCodec) {
  const ColumnTypes types = {ValueType::kInt64, ValueType::kString,
                             ValueType::kInt64};
  for (int64_t i = 0; i < 4 * Iterations(); ++i) {
    const std::string body = mutator_->Mutate(recorded_.rows);
    ExpectDecodesOrCorruption("rows", body.size(), [&] {
      wire::Reader r(body);
      ColumnTypes header = r.GetRowHeader();
      r.GetRows(header);
      wire::Reader again(body);
      again.GetRowHeader();
      again.GetRows(types);
    });
  }
  ExpectBothOutcomes();
}

TEST_F(StorageFuzzTest, PackedBlock) {
  const ColumnTypes types = {ValueType::kInt64, ValueType::kString,
                             ValueType::kInt64};
  for (int64_t i = 0; i < 4 * Iterations(); ++i) {
    const std::string body = mutator_->Mutate(recorded_.packed);
    ExpectDecodesOrCorruption("packed", body.size(), [&] {
      for (const bool counted : {true, false}) {
        wire::Reader r(body);
        ColumnTypes header = r.GetRowHeader();
        wire::PackedReader block(&r, counted ? header : types, counted);
        while (block.Next()) {
        }
      }
    });
  }
  ExpectBothOutcomes();
}

TEST_F(StorageFuzzTest, WalRecords) {
  ASSERT_GE(recorded_.wal_payloads.size(), 10u);
  const std::string path = dir_ + "/fuzz_wal.mv";
  UnsyncedFileSystem unsynced;
  ScopedFileSystem no_fsync(&unsynced);
  WalOptions options;
  for (size_t k = 0; k < recorded_.wal_payloads.size(); ++k) {
    for (int64_t i = 0; i < Iterations(); ++i) {
      std::string log = recorded_.wal_header;
      size_t size = 0;
      for (size_t j = 0; j < recorded_.wal_payloads.size(); ++j) {
        std::string payload = recorded_.wal_payloads[j];
        if (j == k) {
          payload = mutator_->Mutate(std::move(payload));
          size = payload.size();
        }
        wire::PutU32(&log, static_cast<uint32_t>(payload.size()));
        wire::PutU32(&log, Crc32(payload.data(), payload.size()));
        log += payload;
      }
      WriteFile(path, log);
      ExpectDecodesOrCorruption("wal record " + std::to_string(k), size, [&] {
        Wal wal(path, options, [](WalRecord&&) {});
      });
    }
  }
  ExpectBothOutcomes();
}

TEST_F(StorageFuzzTest, ManifestWithChains) {
  bool has_delta = false;
  for (const auto& scope : recorded_.manifest.tables) {
    has_delta |= scope.chain.size() > 1;
  }
  ASSERT_TRUE(has_delta) << "the workload left no chain to mutate";
  bool has_backlog = false;
  for (const auto& view : recorded_.manifest.views) {
    for (const auto& log : view.pending) has_backlog |= !log.inserts.empty();
  }
  ASSERT_TRUE(has_backlog) << "the workload left no pending backlog";
  const std::string framed = Frame("MVMANIF5", recorded_.manifest_body);
  for (int64_t i = 0; i < 8 * Iterations(); ++i) {
    // Odd rounds mutate the frame too (magic, CRC, length): the reader
    // must not trust the length field either.
    const std::string file =
        i % 2 == 0 ? Frame("MVMANIF5",
                           mutator_->Mutate(recorded_.manifest_body))
                   : mutator_->Mutate(framed);
    WriteFile(dir_ + "/manifest.mv", file);
    ExpectDecodesOrCorruption("manifest", file.size(),
                              [&] { ReadManifest(dir_); });
  }
  ExpectBothOutcomes();
}

TEST_F(StorageFuzzTest, BaseAndDeltaSegments) {
  int64_t deltas = 0;
  for (const ScopeImage& scope : recorded_.manifest.tables) {
    for (size_t pos = 0; pos < scope.chain.size(); ++pos) {
      deltas += pos > 0 ? 1 : 0;
      const std::string path = dir_ + "/" + scope.chain[pos].file;
      const std::string original = ReadFile(path);
      for (int64_t i = 0; i < Iterations(); ++i) {
        const std::string file =
            i % 2 == 0 ? Frame("MVSEG004",
                               mutator_->Mutate(original.substr(kFrame)))
                       : mutator_->Mutate(original);
        WriteFile(path, file);
        // The manifest's size entry follows the mutation, so the
        // decoder — not the size check — meets every input.
        ScopeImage mutated = scope;
        mutated.chain[pos].bytes = file.size();
        ExpectDecodesOrCorruption(path, file.size(), [&] {
          ScanImage(dir_, mutated, [](const Tuple&) {});
        });
      }
      WriteFile(path, original);
    }
  }
  EXPECT_GT(deltas, 0) << "the workload left no delta segment to mutate";
  ExpectBothOutcomes();
}

// A segment or manifest with a byte after its last field is corrupt.
TEST_F(StorageFuzzTest, TrailingBytesAfterPackedBlocksAreCorrupt) {
  const ScopeImage& scope = recorded_.manifest.tables[0];
  const std::string path = dir_ + "/" + scope.chain[0].file;
  const std::string file = Frame(
      "MVSEG004", ReadFile(path).substr(kFrame) + std::string(1, '\0'));
  WriteFile(path, file);
  ScopeImage grown = scope;
  grown.chain[0].bytes = file.size();
  EXPECT_THROW(ScanImage(dir_, grown, [](const Tuple&) {}), CorruptionError);

  WriteFile(dir_ + "/manifest.mv",
            Frame("MVMANIF5", recorded_.manifest_body + std::string(1, '\0')));
  EXPECT_THROW(ReadManifest(dir_), CorruptionError);
}

// Recovery derives every view from the manifest's tables, so a view over a
// table the manifest lacks is corrupt — found by the decoder, before
// anything is evaluated.  The recorded manifest is re-encoded without one
// of the tables its views read.
TEST_F(StorageFuzzTest, ViewOverAMissingTableIsCorrupt) {
  const CheckpointManifest& m = recorded_.manifest;
  ASSERT_FALSE(m.views.empty());
  for (size_t drop = 0; drop < m.tables.size(); ++drop) {
    std::string body;
    wire::PutU64(&body, m.lsn);
    wire::PutU64(&body, m.generation);
    wire::PutVarint(&body, m.tables.size() - 1);
    for (size_t t = 0; t < m.tables.size(); ++t) {
      if (t == drop) continue;
      wire::PutString(&body, m.tables[t].name);
      wire::PutSchema(&body, m.tables[t].schema);
      wire::PutVarint(&body, m.tables[t].chain.size());
      for (const SegmentRef& ref : m.tables[t].chain) {
        wire::PutString(&body, ref.file);
        wire::PutVarint(&body, ref.bytes);
      }
    }
    // The views with their backlogs, as recorded.
    wire::Reader r(recorded_.manifest_body);
    r.GetU64();
    r.GetU64();
    for (uint64_t t = r.GetVarCount(); t > 0; --t) {
      r.GetString();
      wire::GetSchema(&r);
      for (uint64_t n = r.GetVarCount(); n > 0; --n) {
        r.GetString();
        r.GetVarint();
      }
    }
    body += recorded_.manifest_body.substr(recorded_.manifest_body.size() -
                                           r.Remaining());
    const std::string file = Frame("MVMANIF5", body);
    WriteFile(dir_ + "/manifest.mv", file);
    bool rejected = false;
    ExpectDecodesOrCorruption("manifest without " + m.tables[drop].name,
                              file.size(), [&] {
                                try {
                                  ReadManifest(dir_);
                                } catch (const CorruptionError&) {
                                  rejected = true;
                                  throw;
                                }
                              });
    EXPECT_TRUE(rejected) << m.tables[drop].name;
  }
}

// Hand-built packed blocks that each break one rule of the format.  Every
// one must raise `CorruptionError` — from the constructor when the layout
// is bad, from `Next` when a row is — and allocate nothing sized from the
// bad field.
class PackedDecoderTest : public ::testing::Test {
 protected:
  // A packed column header: zigzag FOR base, width byte.
  static std::string Column(int64_t base, uint8_t width) {
    std::string out;
    wire::PutZigzag(&out, base);
    wire::PutU8(&out, width);
    return out;
  }
  static std::string Count(uint64_t n) {
    std::string out;
    wire::PutVarint(&out, n);
    return out;
  }

  // Where a block is rejected: by the constructor, before any row is
  // read, or by `Next`.
  enum class At { kLayout, kRow };

  static void ExpectCorrupt(const std::string& what, At at,
                            const std::string& block,
                            const ColumnTypes& types, bool counted) {
    largest_allocation.store(0);
    At reached = At::kLayout;
    try {
      wire::Reader r(block);
      wire::PackedReader reader(&r, types, counted);
      reached = At::kRow;
      while (reader.Next()) {
      }
      ADD_FAILURE() << what << ": decoded";
    } catch (const CorruptionError&) {
      EXPECT_EQ(reached, at) << what;
    }
    EXPECT_LE(largest_allocation.load(), 1u << 10) << what;
  }

  const ColumnTypes one_int_ = {ValueType::kInt64};
  const ColumnTypes two_ints_ = {ValueType::kInt64, ValueType::kInt64};
};

TEST_F(PackedDecoderTest, WidthAbove64) {
  ExpectCorrupt("width 65", At::kLayout,
                Count(2) + Column(0, 65) + std::string(17, '\xff'), one_int_,
                false);
  ExpectCorrupt("count width 255", At::kLayout,
                Count(1) + Column(0, 0) + Column(0, 255) + std::string(32, 0),
                one_int_, true);
}

TEST_F(PackedDecoderTest, RowCountTheBytesCannotHold) {
  // 1000 8-bit values in 10 bytes.
  ExpectCorrupt("1000 rows", At::kLayout,
                Count(1000) + Column(0, 8) + std::string(10, 1), one_int_,
                false);
  // 2^58 + 1 64-bit values: the bit count wraps to 64 in 64-bit
  // arithmetic, which the 8 bytes present would hold.
  ExpectCorrupt("wrapping bit count", At::kLayout,
                Count((uint64_t{1} << 58) + 1) + Column(0, 64) +
                    std::string(8, 1),
                one_int_, false);
  // The second column runs out where the first did not.
  ExpectCorrupt("second column", At::kLayout,
                Count(16) + Column(0, 1) + std::string(2, 1) + Column(0, 64) +
                    std::string(8, 1),
                two_ints_, false);
  // Every width 0: every row equal, which cannot ascend — rejected before
  // 2^40 rows are walked.
  ExpectCorrupt("zero widths", At::kLayout,
                Count(uint64_t{1} << 40) + Column(5, 0), one_int_, false);
  ExpectCorrupt("zero widths, counted", At::kLayout,
                Count(uint64_t{1} << 40) + Column(5, 0) + Column(1, 0),
                one_int_, true);
  ExpectCorrupt("empty strings", At::kLayout,
                Count(uint64_t{1} << 40) + Column(0, 0), {ValueType::kString},
                false);
  // String lengths beyond the bytes; lengths -4 and 8, whose sum wraps to
  // the 4 bytes present; and a constant length 4 times 2^62 + 2 rows,
  // which wraps to the 8 bytes present.
  ExpectCorrupt("long strings", At::kLayout,
                Count(2) + Column(1000, 1) + std::string(1, 2) + "abc",
                {ValueType::kString}, false);
  ExpectCorrupt("negative length", At::kLayout,
                Count(2) + Column(-4, 4) + std::string(1, '\xc0') + "abcd",
                {ValueType::kString}, false);
  ExpectCorrupt("length times count", At::kLayout,
                Count((uint64_t{1} << 62) + 2) + Column(4, 0) + "abcdefgh",
                {ValueType::kString}, false);
}

TEST_F(PackedDecoderTest, ValueLeavingInt64) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  // Column 1: base INT64_MAX - 1, offsets 0 and 2.
  ExpectCorrupt("offset", At::kRow,
                Count(2) + Column(0, 1) + std::string(1, 2) +
                    Column(max - 1, 2) + std::string(1, 0x08),
                two_ints_, false);
  // The multiplicity column likewise.
  ExpectCorrupt("count offset", At::kRow,
                Count(1) + Column(0, 0) + Column(max, 1) + std::string(1, 1),
                one_int_, true);
  // A 64-bit offset from a negative base reaches past INT64_MAX too; a
  // string length is checked with the layout.
  ExpectCorrupt("64-bit offset", At::kLayout,
                Count(1) + Column(-1, 64) + std::string(8, '\xff'),
                {ValueType::kString}, false);
}

TEST_F(PackedDecoderTest, RunningSumLeavingInt64) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  // Column 0 from INT64_MAX - 1 with gaps 1 and 1.
  ExpectCorrupt("running sum", At::kRow,
                Count(2) + Column(max - 1, 1) + std::string(1, 0x03),
                one_int_, false);
  // A full 64-bit gap from INT64_MIN lands on INT64_MAX; one more cannot.
  ExpectCorrupt("64-bit gaps", At::kRow,
                Count(2) + Column(std::numeric_limits<int64_t>::min(), 64) +
                    std::string(16, '\xff'),
                one_int_, false);
}

TEST_F(PackedDecoderTest, RowsNotStrictlyAscending) {
  // (0, 1) then (0, 0).
  ExpectCorrupt("descending", At::kRow,
                Count(2) + Column(0, 1) + std::string(1, 0) + Column(0, 1) +
                    std::string(1, 0x01),
                two_ints_, false);
  // (0, 1) twice.
  ExpectCorrupt("equal", At::kRow,
                Count(2) + Column(0, 1) + std::string(1, 0) + Column(1, 1) +
                    std::string(1, 0),
                two_ints_, false);
  // Strings: "b" then "a".
  ExpectCorrupt("strings", At::kRow, Count(2) + Column(1, 0) + "ba",
                {ValueType::kString}, false);
}

}  // namespace
}  // namespace mview::storage
