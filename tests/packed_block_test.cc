// Round-trip property of the packed block codec (`wire::PutPackedRows` /
// `wire::PackedReader`): over seeded random schemas of int64 and string
// columns, random strictly ascending row sets (0, 1 or many rows, with
// negative values, 0, INT64_MIN and INT64_MAX, inline and heap strings)
// and random multiplicities (0 as in a delta, above 1 as in a view), the
// decoded rows and counts equal the encoded ones, in order, and the reader
// consumes the block exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "storage/codec.h"

namespace mview::storage {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

struct Block {
  ColumnTypes types;
  std::vector<Tuple> rows;  // strictly ascending
  std::vector<int64_t> counts;
};

/// Encodes `block`, decodes it back and checks both match.
void ExpectRoundTrip(const Block& block, bool counted) {
  std::vector<wire::CountedRow> in;
  for (size_t i = 0; i < block.rows.size(); ++i) {
    in.emplace_back(&block.rows[i], counted ? block.counts[i] : 1);
  }
  std::string bytes;
  wire::PutPackedRows(&bytes, block.types, in, counted);
  bytes += "tail";  // the reader must stop at the block's end

  wire::Reader r(bytes);
  wire::PackedReader reader(&r, block.types, counted);
  EXPECT_EQ(r.Remaining(), 4u);
  for (size_t i = 0; i < block.rows.size(); ++i) {
    ASSERT_TRUE(reader.Next()) << "row " << i;
    EXPECT_EQ(reader.row(), block.rows[i]) << "row " << i;
    EXPECT_EQ(reader.count(), counted ? block.counts[i] : 1) << "row " << i;
  }
  EXPECT_FALSE(reader.Next());
}

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Block Make() {
    Block block;
    const size_t arity = 1 + Below(5);
    for (size_t c = 0; c < arity; ++c) {
      block.types.push_back(Below(3) == 0 ? ValueType::kString
                                          : ValueType::kInt64);
    }
    const size_t sizes[] = {0, 1, 2, 3, 17, 64, 300};
    const size_t target = sizes[Below(std::size(sizes))];
    // Each column draws from one value range per block, as real columns do.
    std::vector<int> ranges(arity);
    for (int& range : ranges) range = static_cast<int>(Below(5));
    for (size_t i = 0; i < target * 2; ++i) {
      block.rows.push_back(Tuple::Build(arity, [&](size_t c) {
        return block.types[c] == ValueType::kString ? Value(String())
                                                    : Value(Int(ranges[c]));
      }));
    }
    std::sort(block.rows.begin(), block.rows.end());
    block.rows.erase(std::unique(block.rows.begin(), block.rows.end()),
                     block.rows.end());
    block.rows.resize(std::min(block.rows.size(), target));
    // Counts as in a delta (0 or 1), a view (1 to 5), or anything.
    const int count_range = static_cast<int>(Below(3));
    for (size_t i = 0; i < block.rows.size(); ++i) {
      const auto small = static_cast<int64_t>(Below(5));
      block.counts.push_back(count_range == 0   ? small % 2
                             : count_range == 1 ? 1 + small
                                                : Int(4));
    }
    return block;
  }

 private:
  uint64_t Below(uint64_t n) { return rng_() % n; }

  int64_t Int(int range) {
    switch (range) {
      case 0:  // narrow, like a region code
        return static_cast<int64_t>(Below(16));
      case 1:  // around zero, both signs
        return static_cast<int64_t>(Below(2001)) - 1000;
      case 2:  // the extremes and their neighbours
        return std::vector<int64_t>{kMin, kMin + 1, -1, 0, 1, kMax - 1,
                                    kMax}[Below(7)];
      case 3:  // a constant column
        return -7;
      default:  // anything
        return static_cast<int64_t>(rng_());
    }
  }

  std::string String() {
    // Empty, inline (at most 15 bytes) and heap-held strings.
    const size_t lengths[] = {0, 1, 3, 15, 16, 40};
    std::string s(lengths[Below(std::size(lengths))], 'a');
    for (char& ch : s) ch = static_cast<char>(Below(256));
    return s;
  }

  std::mt19937_64 rng_;
};

TEST(PackedBlockTest, RandomBlocksRoundTrip) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Generator gen(seed);
    const Block block = gen.Make();
    ExpectRoundTrip(block, /*counted=*/false);
    ExpectRoundTrip(block, /*counted=*/true);
    if (::testing::Test::HasFailure()) return;
  }
}

// Column 0 spanning all of int64 needs a 64-bit gap; the other columns and
// the counts reach both ends too.
TEST(PackedBlockTest, ExtremesRoundTrip) {
  Block block;
  block.types = {ValueType::kInt64, ValueType::kInt64, ValueType::kString};
  block.rows = {Tuple({Value(kMin), Value(kMax), Value("")}),
                Tuple({Value(kMin), Value(kMax), Value("x")}),
                Tuple({Value(0), Value(kMin), Value(std::string(300, 'y'))}),
                Tuple({Value(kMax), Value(0), Value("")})};
  block.counts = {kMax, 0, kMin, 1};
  ExpectRoundTrip(block, /*counted=*/false);
  ExpectRoundTrip(block, /*counted=*/true);
}

// An empty block is the row count and a zero-width column per column.
TEST(PackedBlockTest, EmptyBlockIsItsColumnHeaders) {
  std::string bytes;
  wire::PutPackedRows(&bytes, {ValueType::kInt64, ValueType::kString}, {},
                      /*counted=*/true);
  EXPECT_EQ(bytes, std::string("\x00" "\x00\x00" "\x00\x00" "\x00\x00", 7));
}

}  // namespace
}  // namespace mview::storage
