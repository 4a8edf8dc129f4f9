#ifndef MVIEW_TESTS_TEST_UTIL_H_
#define MVIEW_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "db/database.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace mview::testing {

/// Builds an integer tuple.
inline Tuple T(std::initializer_list<int64_t> values) {
  std::vector<Value> vals;
  for (int64_t v : values) vals.emplace_back(v);
  return Tuple(std::move(vals));
}

/// Fills a relation with integer tuples.
inline void Fill(Relation* rel,
                 std::initializer_list<std::initializer_list<int64_t>> rows) {
  for (const auto& row : rows) rel->Insert(T(row));
}

/// Creates and fills an all-int relation in `db`.
inline Relation& MakeRelation(
    Database* db, const std::string& name,
    const std::vector<std::string>& attrs,
    std::initializer_list<std::initializer_list<int64_t>> rows) {
  Relation& rel = db->CreateRelation(name, Schema::OfInts(attrs));
  Fill(&rel, rows);
  return rel;
}

/// Collects a counted relation as sorted (tuple, count) pairs for EXPECT_EQ.
inline std::vector<std::pair<Tuple, int64_t>> Rows(const CountedRelation& r) {
  return r.ToSortedVector();
}

/// Shorthand for a (tuple, count) pair.
inline std::pair<Tuple, int64_t> TC(std::initializer_list<int64_t> values,
                                    int64_t count) {
  return {T(values), count};
}

/// Returns a fresh, empty scratch directory for the running test:
/// `TempDir()/mview_<suite>_<test>_<pid>`.  The suite, test and process
/// id make it unique, so two build trees running the same suite at once
/// never share one.  Any earlier contents are removed.
inline std::string ScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("mview_") + info->test_suite_name() + "_" +
                     info->name() + "_" + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized suite and test names
  }
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace mview::testing

#endif  // MVIEW_TESTS_TEST_UTIL_H_
