// Randomized recovery property: views are derived state, so a reopen —
// tables decoded from the checkpoint, every view re-derived from them, the
// WAL tail replayed — must give back exactly the views the engine had
// before the crash.  Each seed draws a schema of two or three tables and
// five to seven views over them (selections, projections with duplicate
// counts, equi-joins with an inequality, inequality-only joins, cross
// products with a local filter, and random conditions of the
// Rosenkrantz–Hunt class over one or two tables — `x op c`, `x op y + c`
// and disjunctions, so the irrelevance screen drops tuples at every base;
// immediate, DEFERRED, RECOMPUTED and PARTITIONS > 1), then interleaves
// DML, REFRESH, REPAIR, CHECKPOINT, commits that quarantine a view, and
// crash-reopens at random points.
// After every reopen, every base table and every view equals its
// pre-crash snapshot, stale DEFERRED contents and backlogs included, and
// each view's health (quarantined or not) is the same.  After every step,
// every healthy view but the DEFERRED ones equals `testing::NaiveEvaluate`,
// the independent oracle.
//
// MVIEW_RESTORE_SEEDS sets the number of seeds (default 24: each of the
// four views whose mode cycles with the seed meets every mode six times).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ivm/view_manager.h"
#include "ivm_test_util.h"
#include "sql/engine.h"
#include "storage/file.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/status.h"

namespace mview {
namespace {

using sql::Engine;

int Seeds() {
  const char* env = std::getenv("MVIEW_RESTORE_SEEDS");
  return env == nullptr ? 24 : std::max(1, std::atoi(env));
}

/// What a view looked like before a crash.
struct ViewState {
  CountedRelation rows;
  bool quarantined = false;
  bool stale = false;
  size_t pending_tuples = 0;
};

/// One seed's schema, views and operation stream.
class Scenario {
 public:
  explicit Scenario(int seed)
      : seed_(seed), rng_(static_cast<uint64_t>(seed) * 7919 + 1) {
    const int tables = Uniform(2, 3);
    for (int t = 0; t < tables; ++t) {
      const std::string name = "t" + std::to_string(t);
      std::vector<std::string> cols;
      for (int c = 0; c < Uniform(2, 3); ++c) {
        cols.push_back(name + static_cast<char>('a' + c));
      }
      tables_[name] = cols;
    }
  }

  /// DDL for the schema and the views.
  std::string Ddl() {
    std::string ddl;
    for (const auto& [name, cols] : tables_) {
      ddl += "CREATE TABLE " + name + " (";
      for (size_t c = 0; c < cols.size(); ++c) {
        ddl += (c == 0 ? "" : ", ") + cols[c] + " INT64";
      }
      ddl += ");";
    }
    // v0 is immediate, so every seed has one for the oracle.  v1 and v2 are
    // the two shapes with a cross-join step, v3 and v4 random conditions
    // over two tables and over one, in modes that cycle with the seed, so
    // any four consecutive seeds draw each in every mode.
    const int views = Uniform(5, 7);
    ddl += ViewDdl(RandomShape(), Mode::kImmediate);
    ddl += ViewDdl(Shape::kInequalityJoin, static_cast<Mode>(seed_ % 4));
    ddl += ViewDdl(Shape::kFilteredProduct, static_cast<Mode>((seed_ + 1) % 4));
    ddl += ViewDdl(Shape::kRhJoin, static_cast<Mode>((seed_ + 2) % 4));
    ddl += ViewDdl(Shape::kRhSelect, static_cast<Mode>((seed_ + 3) % 4));
    for (int v = 5; v < views; ++v) ddl += ViewDdl(RandomShape(), RandomMode());
    return ddl;
  }

  /// A few INSERTs and DELETEs, as one statement or one transaction.
  std::string Dml() {
    std::string sql;
    const int statements = Uniform(1, 4);
    for (int i = 0; i < statements; ++i) {
      const auto& [name, cols] = Table();
      if (Uniform(0, 2) > 0) {
        sql += "INSERT INTO " + name + " VALUES ";
        for (int r = Uniform(1, 4); r > 0; --r) {
          sql += "(";
          for (size_t c = 0; c < cols.size(); ++c) {
            sql += (c == 0 ? "" : ", ") + std::to_string(Uniform(0, 9));
          }
          sql += r > 1 ? "), " : ")";
        }
        sql += ";";
      } else {
        sql += "DELETE FROM " + name + " WHERE " + Pick(cols) + " = " +
               std::to_string(Uniform(0, 9)) + ";";
      }
    }
    return statements > 1 && Uniform(0, 1) == 0 ? "BEGIN;" + sql + "COMMIT;"
                                                  : sql;
  }

  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  template <typename T>
  const T& Pick(const std::vector<T>& from) {
    return from[static_cast<size_t>(
        Uniform(0, static_cast<int>(from.size()) - 1))];
  }

  std::vector<std::string> views;     // every view's name
  std::vector<std::string> deferred;  // the DEFERRED ones

 private:
  using Tables = std::map<std::string, std::vector<std::string>>;

  const Tables::value_type& Table() {
    auto it = tables_.begin();
    std::advance(it, Uniform(0, static_cast<int>(tables_.size()) - 1));
    return *it;
  }

  // Equi-joins are probed through an index at every step; an inequality
  // join and a filtered product meet their second table at a cross-join
  // step instead.  An RH condition over one table or two is drawn by
  // `testing::RandomRhCondition`.
  enum class Shape {
    kSelect,
    kEquiJoin,
    kInequalityJoin,
    kFilteredProduct,
    kRhSelect,
    kRhJoin
  };
  enum class Mode { kImmediate, kDeferred, kPartitioned, kRecomputed };

  Shape RandomShape() {
    switch (Uniform(0, 7)) {
      case 0:
      case 1:
        return Shape::kEquiJoin;
      case 2:
        return Shape::kInequalityJoin;
      case 3:
        return Shape::kFilteredProduct;
      case 4:
        return Shape::kRhSelect;
      case 5:
        return Shape::kRhJoin;
      default:
        return Shape::kSelect;
    }
  }

  Mode RandomMode() {
    switch (Uniform(0, 5)) {
      case 0:
      case 1:
        return Mode::kDeferred;
      case 2:
        return Mode::kPartitioned;
      case 3:
        return Mode::kRecomputed;
      default:
        return Mode::kImmediate;
    }
  }

  std::string ViewDdl(Shape shape, Mode mode) {
    const std::string name = "v" + std::to_string(views.size());
    views.push_back(name);
    std::string suffix;
    switch (mode) {
      case Mode::kDeferred:
        suffix = " DEFERRED";
        deferred.push_back(name);
        break;
      case Mode::kPartitioned:
        suffix = " PARTITIONS " + std::to_string(Uniform(2, 4));
        break;
      case Mode::kRecomputed:
        suffix = " RECOMPUTED";
        break;
      case Mode::kImmediate:
        break;
    }
    const auto& [left, lcols] = Table();
    std::string select = "SELECT " + lcols[0] + ", " + lcols[1];
    std::string from = " FROM " + left;
    std::string where =
        " WHERE " + lcols[0] + " < " + std::to_string(Uniform(3, 10));
    if (shape == Shape::kRhSelect || shape == Shape::kRhJoin) {
      std::vector<std::string> vars = lcols;
      if (shape == Shape::kRhJoin) {
        const auto* right = &Table();
        while (right->first == left) right = &Table();
        from += ", " + right->first;
        select = "SELECT " + lcols[1] + ", " + right->second.back();
        vars.insert(vars.end(), right->second.begin(), right->second.end());
      }
      where = " WHERE " + Sql(testing::RandomRhCondition(
                              [&](int64_t lo, int64_t hi) {
                                return Uniform(static_cast<int>(lo),
                                               static_cast<int>(hi));
                              },
                              vars, 9));
    } else if (shape == Shape::kSelect) {
      if (Uniform(0, 1) == 0) {
        select = "SELECT " + lcols[1];  // a projection: duplicate counts
      }
    } else {
      const auto* right = &Table();
      while (right->first == left) right = &Table();
      const auto& rcols = right->second;
      from += ", " + right->first;
      const int offset = Uniform(-3, 3);
      const std::string inequality =
          lcols[0] + " > " + rcols.back() + (offset < 0 ? " - " : " + ") +
          std::to_string(std::abs(offset));
      switch (shape) {
        case Shape::kEquiJoin:  // sometimes with an inequality
          select = "SELECT " + lcols[1] + ", " + rcols.back();
          where = " WHERE " + lcols[1] + " = " + rcols[0];
          if (Uniform(0, 1) == 0) where += " AND " + inequality;
          break;
        case Shape::kInequalityJoin:
          select = "SELECT " + lcols[1] + ", " + rcols.back();
          where = " WHERE " + inequality;
          break;
        default:  // a cross product; `where` keeps the left-side filter
          select = "SELECT " + lcols[1] + ", " + rcols[0];
          break;
      }
    }
    return "CREATE MATERIALIZED VIEW " + name + suffix + " AS " + select +
           from + where + ";";
  }

  // The condition in SQL's spelling.
  static std::string Sql(const Condition& cond) {
    std::string text = cond.ToString();
    for (size_t at; (at = text.find("&&")) != std::string::npos;) {
      text.replace(at, 2, "AND");
    }
    for (size_t at; (at = text.find("||")) != std::string::npos;) {
      text.replace(at, 2, "OR");
    }
    return text;
  }

  int seed_;
  std::mt19937_64 rng_;
  Tables tables_;
};

class RestorePropertyTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { dir_ = testing::ScratchDir(); }
  void TearDown() override {
    engine_.reset();
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Open() {
    Storage::Options options;
    options.checkpoint_on_close = false;
    storage_ = Storage::Open(dir_, options);
    engine_ = std::make_unique<Engine>(storage_.get());
    engine_->mutable_views().SetParallelism(2);
  }

  // Runs `sql`, which must succeed.
  void Run(const std::string& sql) {
    const Status status = engine_->TryExecuteScript(sql, nullptr);
    ASSERT_TRUE(status.ok) << sql << ": " << status.message;
  }

  std::map<std::string, ViewState> Capture() const {
    std::map<std::string, ViewState> out;
    const ViewManager& views = engine_->views();
    for (const std::string& name : views.ViewNames()) {
      const ViewInfo info = views.Describe(name);
      ViewState state{views.Materialization(name), info.quarantined,
                      info.stale, info.pending_tuples};
      out.emplace(name, std::move(state));
    }
    return out;
  }

  std::map<std::string, std::vector<Tuple>> Tables() const {
    std::map<std::string, std::vector<Tuple>> out;
    for (const std::string& name : engine_->database().Names()) {
      out[name] = engine_->database().Get(name).ToSortedVector();
    }
    return out;
  }

  // Crashes (no checkpoint) and reopens, then checks the properties.
  void CrashAndCheck(const std::string& where) {
    SCOPED_TRACE(where);
    const auto before = Capture();
    const auto tables = Tables();
    engine_.reset();
    storage_.reset();
    Open();
    EXPECT_EQ(Tables(), tables);
    const auto after = Capture();
    ASSERT_EQ(after.size(), before.size());
    for (const auto& [name, was] : before) {
      const ViewState& now = after.at(name);
      EXPECT_EQ(now.quarantined, was.quarantined) << name;
      EXPECT_EQ(now.stale, was.stale) << name;
      EXPECT_EQ(now.pending_tuples, was.pending_tuples) << name;
      if (was.quarantined) continue;  // untrusted contents, by definition
      EXPECT_TRUE(now.rows.SameContents(was.rows))
          << name << " differs from its pre-crash snapshot";
    }
    ExpectNaive();
  }

  // View `name` equals `testing::NaiveEvaluate` of its definition.
  void ExpectNaive(const std::string& name) {
    const ViewManager& views = engine_->views();
    EXPECT_TRUE(views.Materialization(name).SameContents(testing::NaiveEvaluate(
        views.Describe(name).definition, engine_->database())))
        << name << " differs from the naive evaluation";
    ++checked_;
  }

  // So does every healthy view that is kept current (all but DEFERRED
  // ones, which are checked after each REFRESH).
  void ExpectNaive() {
    for (const std::string& name : engine_->views().ViewNames()) {
      const ViewInfo info = engine_->views().Describe(name);
      if (!info.quarantined && info.mode != MaintenanceMode::kDeferred) {
        ExpectNaive(name);
      }
    }
  }

  std::string dir_;
  // The reopens model process crashes, whose written bytes all survive:
  // no fsync is needed.  Declared first so it outlives the storage.
  storage::UnsyncedFileSystem unsynced_;
  storage::ScopedFileSystem no_fsync_{&unsynced_};
  std::unique_ptr<Storage> storage_;
  std::unique_ptr<Engine> engine_;
  int checked_ = 0;  // view states checked against the oracle
};

TEST_P(RestorePropertyTest, ReopenedViewsEqualTheirPreCrashState) {
  Scenario sc(GetParam());
  Open();
  ASSERT_NO_FATAL_FAILURE(Run(sc.Ddl()));
  for (int i = 0; i < 20; ++i) ASSERT_NO_FATAL_FAILURE(Run(sc.Dml()));
  for (int step = 0; step < 60 && !HasFatalFailure(); ++step) {
    switch (sc.Uniform(0, 11)) {
      case 0:
        Run("CHECKPOINT;");
        break;
      case 1:
        if (!sc.deferred.empty()) {
          const std::string& view = sc.Pick(sc.deferred);
          // A quarantined view's REFRESH is an error: REPAIR heals it.
          if (!engine_->views().IsQuarantined(view)) {
            Run("REFRESH VIEW " + view + ";");
            ExpectNaive(view);
          }
        }
        break;
      case 2:
        Run("REPAIR VIEW " + sc.Pick(sc.views) + ";");
        break;
      case 3: {
        // A commit whose maintenance fails quarantines a view (sticky);
        // the bases and the other views still commit.
        util::FaultSpec spec;
        spec.kind = util::FaultKind::kCorruption;
        util::ScopedFault fault("viewmgr.differential.pre_apply", spec);
        Run(sc.Dml());
        break;
      }
      case 4:
      case 5:
        CrashAndCheck("step " + std::to_string(step));
        break;
      default:
        Run(sc.Dml());
        break;
    }
    ExpectNaive();
  }
  // Always end on a checkpoint with no tail, so the derivation alone is
  // checked once per seed, with the immediate first view healthy.
  if (engine_->views().IsQuarantined(sc.views[0])) {
    Run("REPAIR VIEW " + sc.views[0] + ";");
  }
  Run("CHECKPOINT;");
  CrashAndCheck("final checkpoint");
  EXPECT_GT(checked_, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestorePropertyTest,
                         ::testing::Range(1, Seeds() + 1));

}  // namespace
}  // namespace mview
