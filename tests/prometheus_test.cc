#include "obs/prometheus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ivm/metrics.h"
#include "sql/engine.h"
#include "storage/storage.h"
#include "test_util.h"

namespace mview {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Splits the exposition into lines and checks the 0.0.4 grammar: every
// sample line is `name[{labels}] value`, and every family name that appears
// in a sample was introduced by `# HELP` and `# TYPE` lines first.
void CheckExpositionGrammar(const std::string& text) {
  std::set<std::string> declared;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::string rest = line.substr(7);
      declared.insert(rest.substr(0, rest.find(' ')));
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    EXPECT_EQ(name.rfind("mview_", 0), 0)
        << "sample without mview_ prefix: " << line;
    // Histogram series share their family's HELP/TYPE declaration.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      size_t n = family.size(), s = std::string(suffix).size();
      if (n > s && family.compare(n - s, s, suffix) == 0 &&
          declared.count(family.substr(0, n - s))) {
        family = family.substr(0, n - s);
        break;
      }
    }
    EXPECT_TRUE(declared.count(family)) << "undeclared family: " << line;
    if (line[name_end] == '{') {
      size_t close = line.find('}', name_end);
      ASSERT_NE(close, std::string::npos) << line;
      ASSERT_EQ(line[close + 1], ' ') << line;
      name_end = close + 1;
    }
    // The value must parse as a number.
    std::string value = line.substr(name_end + 1);
    ASSERT_FALSE(value.empty()) << line;
    size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << "trailing junk in value: " << line;
  }
}

// Collects `name{labels}` -> numeric value for exact-value assertions.
std::map<std::string, double> Samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

TEST(PrometheusTest, CountersGaugesAndLabelsFromHandBuiltRegistry) {
  MetricsRegistry registry;
  registry.commit().commits = 7;
  registry.commit().normalize_nanos = 1'500'000'000;  // 1.5 s
  registry.pool().workers = 4;
  registry.pool().queue_depth = 2;
  registry.storage().wal_appends = 11;
  registry.storage().restore_nanos = 2'000'000;    // 2 ms
  registry.storage().derive_nanos = 30'000'000;    // 30 ms
  registry.storage().replay_nanos = 500'000'000;   // 0.5 s
  registry.row_store().bases.mapped = 1 << 20;
  registry.row_store().views.live = 4000;
  ViewMetrics& v = registry.ForView("v");
  v.stats.transactions = 5;
  v.stats.updates_filtered = 3;
  v.stats.arena_bytes = 4096;
  registry.ForView("w").stats.transactions = 1;

  std::string text = obs::ExportPrometheus(registry);
  CheckExpositionGrammar(text);
  auto samples = Samples(text);

  EXPECT_EQ(samples.at("mview_commits_total"), 7);
  EXPECT_DOUBLE_EQ(samples.at("mview_normalize_seconds_total"), 1.5);
  EXPECT_EQ(samples.at("mview_pool_workers"), 4);
  EXPECT_EQ(samples.at("mview_pool_queue_depth"), 2);
  EXPECT_EQ(samples.at("mview_wal_appends_total"), 11);
  EXPECT_DOUBLE_EQ(samples.at("mview_open_seconds{step=\"restore\"}"), 0.002);
  EXPECT_DOUBLE_EQ(samples.at("mview_open_seconds{step=\"derive\"}"), 0.03);
  EXPECT_DOUBLE_EQ(samples.at("mview_open_seconds{step=\"replay\"}"), 0.5);
  EXPECT_EQ(samples.at("mview_view_transactions_total{view=\"v\"}"), 5);
  EXPECT_EQ(samples.at("mview_view_transactions_total{view=\"w\"}"), 1);
  EXPECT_EQ(samples.at("mview_view_updates_filtered_total{view=\"v\"}"), 3);
  EXPECT_EQ(samples.at("mview_view_arena_bytes{view=\"v\"}"), 4096);
  EXPECT_EQ(samples.at("mview_row_store_mapped_bytes{owner=\"bases\"}"),
            1 << 20);
  EXPECT_EQ(samples.at("mview_row_store_mapped_bytes{owner=\"spares\"}"), 0);
  EXPECT_EQ(samples.at("mview_row_store_live_bytes{owner=\"views\"}"), 4000);
  EXPECT_TRUE(Contains(text, "# TYPE mview_row_store_live_bytes gauge"));
  EXPECT_TRUE(Contains(text, "# TYPE mview_pool_workers gauge"));
  EXPECT_TRUE(Contains(text, "# TYPE mview_commits_total counter"));
}

TEST(PrometheusTest, HistogramSeriesAreCumulativeAndConsistent) {
  MetricsRegistry registry;
  obs::LatencyHistogram& h = registry.commit().commit_latency;
  h.Record(100);        // ~1e-7 s
  h.Record(100);
  h.Record(1'000'000);  // 1 ms
  std::string text = obs::ExportPrometheus(registry);
  CheckExpositionGrammar(text);

  // Walk the commit-latency bucket series: counts must be cumulative and
  // the +Inf bucket must equal _count.
  std::istringstream in(text);
  std::string line;
  double prev = 0;
  double inf = -1, count = -1, sum = -1;
  while (std::getline(in, line)) {
    if (line.rfind("mview_commit_latency_seconds_bucket{le=", 0) == 0) {
      double value = std::stod(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(value, prev) << "non-cumulative bucket: " << line;
      prev = value;
      if (Contains(line, "le=\"+Inf\"")) inf = value;
    } else if (line.rfind("mview_commit_latency_seconds_sum ", 0) == 0) {
      sum = std::stod(line.substr(line.rfind(' ') + 1));
    } else if (line.rfind("mview_commit_latency_seconds_count ", 0) == 0) {
      count = std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  EXPECT_EQ(count, 3);
  EXPECT_EQ(inf, 3);
  EXPECT_NEAR(sum, (100 + 100 + 1'000'000) * 1e-9, 1e-12);
  // `le` bounds are rendered in seconds: the 1 ms sample is inside a
  // bucket whose upper bound is ~0.00104 s, far below 1.
  EXPECT_TRUE(Contains(text, "le=\"1.28e-07\""))
      << "expected power-of-two nanosecond bound rendered in seconds";
}

TEST(PrometheusTest, PerViewHistogramsCarryViewLabelInsideBuckets) {
  MetricsRegistry registry;
  registry.ForView("v").differential_latency.Record(5000);
  std::string text = obs::ExportPrometheus(registry);
  CheckExpositionGrammar(text);
  EXPECT_TRUE(Contains(
      text, "mview_view_differential_latency_seconds_count{view=\"v\"} 1"));
  EXPECT_TRUE(
      Contains(text, "mview_view_differential_latency_seconds_bucket{"
                     "view=\"v\",le=\"+Inf\"} 1"));
}

TEST(PrometheusTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.ForView("odd\"name\\here").stats.transactions = 1;
  std::string text = obs::ExportPrometheus(registry);
  EXPECT_TRUE(Contains(text, "{view=\"odd\\\"name\\\\here\"}"));
}

TEST(PrometheusTest, EngineEndToEndExport) {
  const std::string dir = testing::ScratchDir();
  {
    auto storage = Storage::Open(dir);
    sql::Engine engine(storage.get());
    engine.ExecuteScript(
        "CREATE TABLE r (a INT64, b INT64);"
        "CREATE TABLE s (b INT64, c INT64);"
        "CREATE MATERIALIZED VIEW v AS SELECT * FROM r, s WHERE r.b = s.b;"
        "INSERT INTO s VALUES (1, 10);"
        "INSERT INTO r VALUES (1, 1), (2, 1);"
        "CHECKPOINT;");

    std::string text = engine.ExportMetricsText();
    CheckExpositionGrammar(text);
    auto samples = Samples(text);
    EXPECT_GE(samples.at("mview_commits_total"), 2);
    EXPECT_GE(samples.at("mview_wal_appends_total"), 2);
    EXPECT_GE(samples.at("mview_checkpoints_total"), 1);
    EXPECT_GT(samples.at("mview_checkpoint_base_bytes_total"), 0);
    EXPECT_EQ(samples.at("mview_checkpoint_delta_bytes_total"), 0);
    EXPECT_LT(samples.at("mview_checkpoint_base_bytes_total"),
              samples.at("mview_checkpoint_bytes_total"));
    EXPECT_GE(samples.at("mview_fsync_latency_seconds_count"), 2);
    EXPECT_GE(samples.at("mview_view_transactions_total{view=\"v\"}"), 2);
    EXPECT_GE(samples.at("mview_commit_latency_seconds_count"), 2);
    // Three 2-int base rows (48 B slots) and two 4-int view rows (header,
    // count and four values: 88 B slots), all in unmapped first chunks.
    EXPECT_EQ(samples.at("mview_row_store_live_bytes{owner=\"bases\"}"),
              3 * 48);
    EXPECT_EQ(samples.at("mview_row_store_live_bytes{owner=\"views\"}"),
              2 * 88);
    EXPECT_EQ(samples.at("mview_row_store_mapped_bytes{owner=\"bases\"}"),
              0);

    // Storage-level export matches the engine-level one.
    EXPECT_EQ(storage->ExportMetricsText(), engine.ExportMetricsText());
  }
  {
    // Reopened over the checkpoint: the table is decoded and the view
    // derived from it, each step timed.
    auto storage = Storage::Open(dir);
    sql::Engine engine(storage.get());
    auto samples = Samples(engine.ExportMetricsText());
    EXPECT_GT(samples.at("mview_open_seconds{step=\"restore\"}"), 0);
    EXPECT_GT(samples.at("mview_open_seconds{step=\"derive\"}"), 0);
    EXPECT_GE(samples.at("mview_open_seconds{step=\"replay\"}"), 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(PrometheusTest, InMemoryEngineExportsWithoutStorageCounters) {
  sql::Engine engine;
  engine.ExecuteScript(
      "CREATE TABLE t (a INT64);"
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t WHERE a < 10;"
      "INSERT INTO t VALUES (1);");
  std::string text = engine.ExportMetricsText();
  CheckExpositionGrammar(text);
  auto samples = Samples(text);
  EXPECT_EQ(samples.at("mview_wal_appends_total"), 0);
  EXPECT_GE(samples.at("mview_view_transactions_total{view=\"v\"}"), 1);
}

}  // namespace
}  // namespace mview
