#include "relational/csv.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"
#include "util/error.h"

namespace mview {
namespace {

using ::mview::testing::Fill;
using ::mview::testing::T;

TEST(CsvTest, WriteIntRelation) {
  Relation r(Schema::OfInts({"A", "B"}));
  Fill(&r, {{2, 20}, {1, 10}});
  std::ostringstream out;
  WriteCsv(r, out);
  EXPECT_EQ(out.str(), "A:int64,B:int64\n1,10\n2,20\n");
}

TEST(CsvTest, RoundTripIntRelation) {
  Relation r(Schema::OfInts({"A", "B"}));
  Fill(&r, {{1, 10}, {2, 20}, {-3, 30}});
  std::ostringstream out;
  WriteCsv(r, out);
  std::istringstream in(out.str());
  Relation back = ReadCsv(in);
  EXPECT_EQ(back.schema(), r.schema());
  EXPECT_EQ(back.ToSortedVector(), r.ToSortedVector());
}

TEST(CsvTest, RoundTripStrings) {
  Relation r(Schema({{"id", ValueType::kInt64},
                     {"name", ValueType::kString}}));
  r.Insert(Tuple({Value(1), Value("plain")}));
  r.Insert(Tuple({Value(2), Value("with,comma")}));
  r.Insert(Tuple({Value(3), Value("with \"quotes\"")}));
  r.Insert(Tuple({Value(4), Value("multi\nline")}));
  r.Insert(Tuple({Value(5), Value("")}));
  std::ostringstream out;
  WriteCsv(r, out);
  std::istringstream in(out.str());
  Relation back = ReadCsv(in);
  EXPECT_EQ(back.ToSortedVector(), r.ToSortedVector());
}

// Counted CSV is an export format (COPY of a view); nothing reads it back.
TEST(CsvTest, WriteCountedRelation) {
  CountedRelation r(Schema::OfInts({"A"}));
  r.Add(T({1}), 3);
  r.Add(T({2}), 1);
  std::ostringstream out;
  WriteCsv(r, out);
  EXPECT_EQ(out.str(), "A:int64,#count\n1,3\n2,1\n");
  std::istringstream in(out.str());
  EXPECT_THROW(ReadCsv(in), Error);
}

TEST(CsvTest, EmptyRelation) {
  Relation r(Schema::OfInts({"A"}));
  std::ostringstream out;
  WriteCsv(r, out);
  std::istringstream in(out.str());
  EXPECT_TRUE(ReadCsv(in).empty());
}

TEST(CsvTest, MalformedInputs) {
  {
    std::istringstream in("");
    EXPECT_THROW(ReadCsv(in), Error);
  }
  {
    std::istringstream in("A\n1\n");  // header missing type
    EXPECT_THROW(ReadCsv(in), Error);
  }
  {
    std::istringstream in("A:float\n1\n");  // unknown type
    EXPECT_THROW(ReadCsv(in), Error);
  }
  {
    std::istringstream in("A:int64\n1,2\n");  // arity mismatch
    EXPECT_THROW(ReadCsv(in), Error);
  }
  {
    std::istringstream in("A:int64\nxyz\n");  // bad integer
    EXPECT_THROW(ReadCsv(in), Error);
  }
  {
    std::istringstream in("A:int64,#count\n1,1\n");  // plain on counted
    EXPECT_THROW(ReadCsv(in), Error);
  }
  {
    std::istringstream in("name:string\n\"unterminated\n");
    EXPECT_THROW(ReadCsv(in), Error);
  }
}

TEST(CsvTest, FileRoundTrip) {
  Relation r(Schema::OfInts({"A"}));
  Fill(&r, {{7}, {8}});
  const std::string path = testing::ScratchDir() + "/r.csv";
  WriteCsvFile(r, path);
  Relation back = ReadCsvFile(path);
  EXPECT_EQ(back.ToSortedVector(), r.ToSortedVector());
  EXPECT_THROW(ReadCsvFile("/nonexistent/dir/x.csv"), Error);
}

TEST(CsvTest, CrlfTolerated) {
  std::istringstream in("A:int64\r\n1\r\n2\r\n");
  Relation r = ReadCsv(in);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T({1})));
}

}  // namespace
}  // namespace mview
