// Experiment E23: the ingest path, stage by stage.
//
// A bulk load is the SQL front end's worst case: every byte of every row
// is lexed, parsed into a tuple, type-checked, normalized against the base
// (Section 3's net effect) and written to the log.  This bench builds the
// load the end-to-end `ops_cycle` workload sets up — 1 000 customers,
// 8 000 orders and 16 000 items (25 000 integer rows) in 50 INSERT
// statements of 500 rows — and times, over repeated samples (median and
// IQR):
//   - lex:        every token of every statement through `sql::Lexer`;
//   - parse:      `sql::Parse` (lexing included);
//   - normalize:  `Transaction::Normalize` of each statement's rows against
//                 the empty tables (the rows are built before timing);
//   - load_mem:   the statements through an in-memory engine;
//   - load_disk:  the statements through a durable engine (WAL with an
//                 fsync per commit), as the workload's set-up runs them.
// The host it ran on is printed with the table.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "db/transaction.h"
#include "sql/engine.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "storage/storage.h"
#include "util/random.h"

namespace mview {
namespace {

struct Table {
  const char* name;
  const char* ddl;
  int64_t rows;
};

const std::vector<Table>& Tables() {
  static const std::vector<Table> tables = {
      {"customers", "CREATE TABLE customers (cid INT64, region INT64, "
                    "tier INT64)", 1000},
      {"orders", "CREATE TABLE orders (oid INT64, cid INT64, amt INT64, "
                 "status INT64)", 8000},
      {"items", "CREATE TABLE items (iid INT64, oid INT64, qty INT64, "
                "price INT64)", 16000},
  };
  return tables;
}

// The load: keys ascending, other columns drawn like the workload's.
std::vector<std::string> LoadStatements(double scale) {
  Rng rng(7);
  std::vector<std::string> out;
  for (const Table& t : Tables()) {
    const int64_t n = static_cast<int64_t>(t.rows * scale);
    for (int64_t first = 0; first < n; first += 500) {
      std::string sql = std::string("INSERT INTO ") + t.name + " VALUES ";
      for (int64_t k = first; k < std::min(n, first + 500); ++k) {
        if (k > first) sql += ",";
        sql += "(" + std::to_string(2 * k);
        if (std::string(t.name) == "customers") {
          sql += "," + std::to_string(rng.Uniform(0, 15)) + "," +
                 std::to_string(rng.Uniform(0, 3));
        } else if (std::string(t.name) == "orders") {
          sql += "," + std::to_string(rng.Uniform(0, 999)) + "," +
                 std::to_string(rng.Uniform(0, 9999)) + "," +
                 std::to_string(rng.Uniform(0, 7));
        } else {
          sql += "," + std::to_string(rng.Uniform(0, 15999)) + "," +
                 std::to_string(rng.Uniform(1, 10)) + "," +
                 std::to_string(rng.Uniform(0, 9999));
        }
        sql += ")";
      }
      out.push_back(std::move(sql));
    }
  }
  return out;
}

std::string DataDir() {
  return (std::filesystem::temp_directory_path() / "mview_bench_ingest")
      .string();
}

// Seconds for one run of `fn`.
template <typename Fn>
double Time(Fn&& fn) {
  Stopwatch timer;
  fn();
  return timer.ElapsedSeconds();
}

double LoadSeconds(const std::vector<std::string>& load, bool durable) {
  std::filesystem::remove_all(DataDir());
  std::unique_ptr<Storage> storage;
  if (durable) storage = Storage::Open(DataDir());
  double seconds = 0;
  {
    sql::Engine engine(storage.get());
    for (const Table& t : Tables()) engine.Execute(t.ddl);
    seconds = Time([&] {
      for (const std::string& sql : load) engine.Execute(sql);
    });
  }
  storage.reset();
  std::filesystem::remove_all(DataDir());
  return seconds;
}

void BM_ParseLoad(benchmark::State& state) {
  const std::vector<std::string> load = LoadStatements(1.0);
  for (auto _ : state) {
    for (const std::string& sql : load) {
      benchmark::DoNotOptimize(sql::Parse(sql));
    }
  }
}
BENCHMARK(BM_ParseLoad)->Unit(benchmark::kMillisecond);

void PrintSummary() {
  using bench::FormatSeconds;
  using bench::Spread;
  using bench::SpreadOf;
  const int reps = bench::Options().smoke ? 1 : 9;
  const std::vector<std::string> load =
      LoadStatements(bench::Options().smoke ? 0.02 : 1.0);
  size_t bytes = 0;
  size_t tokens = 0;
  for (const std::string& sql : load) {
    bytes += sql.size();
    tokens += sql::Lex(sql).size();
  }

  // The transactions Normalize replays, built once.
  Database db;
  for (const Table& t : Tables()) {
    sql::Statement create = sql::Parse(t.ddl).front();
    db.CreateRelation(t.name, Schema(create.columns));
  }
  std::vector<Transaction> txns;
  size_t rows = 0;
  for (const std::string& sql : load) {
    sql::Statement stmt = sql::Parse(sql).front();
    rows += stmt.rows.size();
    Transaction txn;
    txn.InsertAll(stmt.name, std::move(stmt.rows));
    txns.push_back(std::move(txn));
  }

  struct Stage {
    const char* name;
    std::function<double()> run;
  };
  const std::vector<Stage> stages = {
      {"lex", [&] {
         return Time([&] {
           sql::Token token;
           for (const std::string& sql : load) {
             sql::Lexer lexer(sql);
             do {
               lexer.Next(&token);
             } while (token.kind != sql::TokenKind::kEnd);
           }
           benchmark::DoNotOptimize(token);
         });
       }},
      {"parse", [&] {
         return Time([&] {
           for (const std::string& sql : load) {
             benchmark::DoNotOptimize(sql::Parse(sql));
           }
         });
       }},
      {"normalize", [&] {
         return Time([&] {
           for (const Transaction& txn : txns) {
             benchmark::DoNotOptimize(txn.Normalize(db));
           }
         });
       }},
      {"load_mem", [&] { return LoadSeconds(load, false); }},
      {"load_disk", [&] { return LoadSeconds(load, true); }},
  };

  bench::SummaryTable table(
      "E23: ingest of the ops_cycle load (" + std::to_string(rows) +
          " rows, " + std::to_string(load.size()) + " INSERTs, " +
          std::to_string(bytes) + " B, " + std::to_string(tokens) +
          " tokens), median and IQR over " + std::to_string(reps) +
          " reps; host: " + bench::HostFingerprint(),
      {"stage", "per load", "IQR", "per row"});
  bench::JsonRows json;
  for (size_t s = 0; s < stages.size(); ++s) {
    stages[s].run();  // warm-up
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) times.push_back(stages[s].run());
    const Spread t = SpreadOf(times);
    table.AddRow({stages[s].name, FormatSeconds(t.median),
                  FormatSeconds(t.iqr),
                  FormatSeconds(t.median / static_cast<double>(rows))});
    json.Add({{"stage", static_cast<double>(s)},
              {"rows", static_cast<double>(rows)},
              {"median_seconds", t.median},
              {"iqr_seconds", t.iqr}});
  }
  table.Print();
  std::printf("stage ids in the JSON rows: 0 lex, 1 parse, 2 normalize, "
              "3 load_mem, 4 load_disk\n");
  json.WriteIfRequested();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
