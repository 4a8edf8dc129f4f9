#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "json_test_util.h"
#include "sql/engine.h"
#include "sql/session.h"
#include "storage/storage.h"
#include "test_util.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace mview::obs {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

// The tracer is a process-global singleton; every test starts from a clean
// enabled state and leaves it disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  void TearDown() override { Tracer::Global().Disable(); }
};

TEST_F(TraceTest, DisabledSpanRecordsNothing) {
  Tracer::Global().Disable();
  const uint32_t id = Tracer::Global().InternName("off");
  { TraceSpan span(id); }
  for (const auto& ev : Tracer::Global().Snapshot()) {
    EXPECT_NE(ev.name, "off");
  }
}

TEST_F(TraceTest, SpanRecordsNameDurationAndArg) {
  const uint32_t id = Tracer::Global().InternName("unit_span");
  const uint32_t arg_id = Tracer::Global().InternName("rows");
  const int64_t before = Stopwatch::NowNanos();
  {
    TraceSpan span(id);
    span.SetArg(arg_id, 42);
  }
  const int64_t after = Stopwatch::NowNanos();
  bool found = false;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name != "unit_span") continue;
    found = true;
    EXPECT_GE(ev.start_nanos, before);
    EXPECT_LE(ev.start_nanos + ev.dur_nanos, after);
    EXPECT_GE(ev.dur_nanos, 0);
    EXPECT_EQ(ev.arg_name, "rows");
    EXPECT_EQ(ev.arg, 42);
    EXPECT_GT(ev.tid, 0);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, EndStopsTheSpanEarlyAndOnce) {
  const uint32_t id = Tracer::Global().InternName("ended_early");
  {
    TraceSpan span(id);
    span.End();
    span.End();  // idempotent; the destructor must not double-record
  }
  int count = 0;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name == "ended_early") ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST_F(TraceTest, ClearDropsOldSpansButKeepsNewOnes) {
  const uint32_t id = Tracer::Global().InternName("epoch_span");
  { TraceSpan span(id); }
  Tracer::Global().Clear();
  { TraceSpan span(id); }
  int count = 0;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name == "epoch_span") ++count;
  }
  EXPECT_EQ(count, 1);
}

TEST_F(TraceTest, InternNameIsStable) {
  const uint32_t a = Tracer::Global().InternName("stable_name");
  const uint32_t b = Tracer::Global().InternName("stable_name");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);  // 0 is reserved for "no name"
}

TEST_F(TraceTest, RingOverwritesOldestBeyondCapacity) {
  const uint32_t id = Tracer::Global().InternName("flood");
  const size_t n = Tracer::kSlotCapacity + 100;
  const int64_t now = Stopwatch::NowNanos();
  for (size_t i = 0; i < n; ++i) {
    Tracer::Global().Record(id, now + static_cast<int64_t>(i), 1);
  }
  size_t count = 0;
  int64_t min_start = 0;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name != "flood") continue;
    ++count;
    min_start = min_start == 0 ? ev.start_nanos
                               : std::min(min_start, ev.start_nanos);
  }
  EXPECT_LE(count, Tracer::kSlotCapacity);
  EXPECT_GT(count, 0u);
  // The survivors are the *newest* pushes: the first 100 were overwritten.
  EXPECT_GE(min_start, now + 100);
}

// Writers on several threads with a concurrent reader: exercises the
// seqlock slots and buffer registry under tsan.
TEST_F(TraceTest, ConcurrentWritersAndSnapshotters) {
  const uint32_t id = Tracer::Global().InternName("mt_span");
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)Tracer::Global().Snapshot();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Tracer::Global().SetCurrentThreadName("writer-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span(id);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  std::vector<int64_t> tids;
  size_t count = 0;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name != "mt_span") continue;
    ++count;
    if (std::find(tids.begin(), tids.end(), ev.tid) == tids.end()) {
      tids.push_back(ev.tid);
    }
  }
  // Every span fits: the writers have exited, and the shared ring their
  // spans retired into holds more than kThreads * kSpansPerThread.
  EXPECT_EQ(count, static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

// --- Ring lifecycle: rings follow the threads that record. ---

bool SameRings(const Tracer::RingCounts& a, const Tracer::RingCounts& b) {
  return a.live == b.live && a.retired == b.retired;
}

TEST_F(TraceTest, UntracedPoolWorkersAllocateNoRings) {
  Tracer::Global().Disable();
  const Tracer::RingCounts before = Tracer::Global().ring_counts();
  for (int cycle = 0; cycle < 20; ++cycle) {
    util::ThreadPool pool(4);  // each worker names itself, then exits
  }
  const Tracer::RingCounts after = Tracer::Global().ring_counts();
  EXPECT_TRUE(SameRings(before, after))
      << "live " << before.live << " -> " << after.live << ", retired "
      << before.retired << " -> " << after.retired;
}

TEST_F(TraceTest, UntracedEngineOpensAllocateNoRings) {
  Tracer::Global().Disable();
  const std::string dir = testing::ScratchDir();
  const Tracer::RingCounts before = Tracer::Global().ring_counts();
  for (int cycle = 0; cycle < 20; ++cycle) {
    // A fresh thread per open, as a server connection would have.
    std::thread opener([&] {
      auto storage = Storage::Open(dir);
      sql::EngineCore core(storage.get());
      core.SetMaintenanceParallelism(2);
      std::unique_ptr<sql::Session> session = core.CreateSession();
      if (cycle == 0) {
        session->Execute("CREATE TABLE r (a INT64, b INT64)");
        session->Execute("CREATE TABLE s (b INT64, c INT64)");
        session->Execute(
            "CREATE MATERIALIZED VIEW v AS SELECT * FROM r, s "
            "WHERE r.b = s.b");
      }
      session->Execute("INSERT INTO r VALUES (" + std::to_string(cycle) +
                       ", 1)");
      session->Execute("INSERT INTO s VALUES (1, " + std::to_string(cycle) +
                       ")");
    });
    opener.join();
  }
  const Tracer::RingCounts after = Tracer::Global().ring_counts();
  EXPECT_TRUE(SameRings(before, after))
      << "live " << before.live << " -> " << after.live << ", retired "
      << before.retired << " -> " << after.retired;
  std::filesystem::remove_all(dir);
}

TEST_F(TraceTest, ExitedThreadsShareOneRetiredRing) {
  const uint32_t id = Tracer::Global().InternName("exiting_span");
  const size_t live_before = Tracer::Global().ring_counts().live;
  constexpr int kThreads = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([id, t] {
      Tracer::Global().SetCurrentThreadName("exiting-" + std::to_string(t));
      TraceSpan span(id);
    });
  }
  for (auto& thread : threads) thread.join();
  const Tracer::RingCounts after = Tracer::Global().ring_counts();
  EXPECT_EQ(after.live, live_before);
  EXPECT_LE(after.retired, 1u);

  std::vector<std::string> names;
  std::vector<int64_t> tids;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name != "exiting_span") continue;
    names.push_back(ev.thread_name);
    tids.push_back(ev.tid);
    EXPECT_GT(ev.tid, 0);
  }
  ASSERT_EQ(names.size(), static_cast<size_t>(kThreads));
  std::sort(names.begin(), names.end());
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(std::binary_search(names.begin(), names.end(),
                                   "exiting-" + std::to_string(t)))
        << t;
  }
}

TEST_F(TraceTest, RenameAfterFirstSpanRelabelsTheThread) {
  const uint32_t id = Tracer::Global().InternName("renamed_span");
  std::thread worker([id] {
    Tracer::Global().SetCurrentThreadName("before");
    { TraceSpan span(id); }
    Tracer::Global().SetCurrentThreadName("after");
    { TraceSpan span(id); }
    for (const auto& ev : Tracer::Global().Snapshot()) {
      if (ev.name != "renamed_span") continue;
      EXPECT_EQ(ev.thread_name, "after");
    }
  });
  worker.join();
  // Retirement keeps the label the thread last gave itself.
  int count = 0;
  for (const auto& ev : Tracer::Global().Snapshot()) {
    if (ev.name != "renamed_span") continue;
    ++count;
    EXPECT_EQ(ev.thread_name, "after");
  }
  EXPECT_EQ(count, 2);
}

// --- End-to-end: the commit path's span tree through SQL. ---

bool Contains(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.start_nanos <= inner.start_nanos &&
         inner.start_nanos + inner.dur_nanos <=
             outer.start_nanos + outer.dur_nanos;
}

const TraceEvent* FindSpan(const std::vector<TraceEvent>& events,
                           const std::string& name) {
  for (const auto& ev : events) {
    if (ev.name == name) return &ev;
  }
  return nullptr;
}

TEST_F(TraceTest, CommitPathSpanTreeNestsCorrectly) {
  const std::string dir = testing::ScratchDir();
  {
    auto storage = Storage::Open(dir);
    sql::Engine engine(storage.get());
    engine.Execute("CREATE TABLE r (a INT64, b INT64)");
    engine.Execute("CREATE TABLE s (b INT64, c INT64)");
    engine.Execute(
        "CREATE MATERIALIZED VIEW v AS SELECT * FROM r, s WHERE r.b = s.b");
    // Pre-populate s so the commit below produces a non-empty view delta
    // (the maintain span's delta_rows argument requires one).
    engine.Execute("INSERT INTO s VALUES (10, 100), (20, 200)");
    Tracer::Global().Clear();  // trace only the commit below
    engine.Execute("INSERT INTO r VALUES (1, 10), (2, 20)");

    std::vector<TraceEvent> events = Tracer::Global().Snapshot();
    const TraceEvent* execute = FindSpan(events, "execute");
    const TraceEvent* parse = FindSpan(events, "parse");
    const TraceEvent* commit = FindSpan(events, "commit");
    const TraceEvent* normalize = FindSpan(events, "normalize");
    const TraceEvent* wal_append = FindSpan(events, "wal_append");
    const TraceEvent* wal_fsync = FindSpan(events, "wal_fsync");
    const TraceEvent* maintain = FindSpan(events, "maintain:v");
    const TraceEvent* screen = FindSpan(events, "irrelevance_screen");
    const TraceEvent* differential = FindSpan(events, "differential");
    const TraceEvent* base_apply = FindSpan(events, "base_apply");
    const TraceEvent* serial_apply = FindSpan(events, "serial_apply");
    ASSERT_NE(execute, nullptr);
    ASSERT_NE(parse, nullptr);
    ASSERT_NE(commit, nullptr);
    ASSERT_NE(normalize, nullptr);
    ASSERT_NE(wal_append, nullptr);
    ASSERT_NE(wal_fsync, nullptr);
    ASSERT_NE(maintain, nullptr);
    ASSERT_NE(screen, nullptr);
    ASSERT_NE(differential, nullptr);
    ASSERT_NE(base_apply, nullptr);
    ASSERT_NE(serial_apply, nullptr);

    // The tree: execute ⊃ {parse, commit}; commit ⊃ {normalize,
    // wal_append ⊇ wal_fsync, maintain:v ⊃ {screen, differential},
    // base_apply, serial_apply}.
    EXPECT_TRUE(Contains(*execute, *parse));
    EXPECT_TRUE(Contains(*execute, *commit));
    EXPECT_TRUE(Contains(*commit, *normalize));
    EXPECT_TRUE(Contains(*commit, *wal_append));
    EXPECT_TRUE(Contains(*wal_append, *wal_fsync));
    EXPECT_TRUE(Contains(*commit, *maintain));
    EXPECT_TRUE(Contains(*maintain, *screen));
    EXPECT_TRUE(Contains(*maintain, *differential));
    EXPECT_TRUE(Contains(*commit, *base_apply));
    EXPECT_TRUE(Contains(*commit, *serial_apply));
    // Phases are ordered: parse before commit, screen before differential.
    EXPECT_LE(parse->start_nanos + parse->dur_nanos, commit->start_nanos);
    EXPECT_LE(screen->start_nanos + screen->dur_nanos,
              differential->start_nanos);
    // Real OS thread ids, and the engine thread is labelled.
    EXPECT_GT(execute->tid, 0);
    EXPECT_EQ(execute->thread_name, "engine");
    // The maintenance span carries its delta size.
    EXPECT_EQ(maintain->arg_name, "delta_rows");
    EXPECT_GT(maintain->arg, 0);
    // CHECKPOINT gets its own span.
    engine.Execute("CHECKPOINT");
    events = Tracer::Global().Snapshot();
    EXPECT_NE(FindSpan(events, "checkpoint"), nullptr);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(TraceTest, ChromeJsonExportIsValidAndComplete) {
  sql::Engine engine;
  engine.Execute("CREATE TABLE t (a INT64)");
  Tracer::Global().Clear();
  engine.Execute("INSERT INTO t VALUES (1)");

  sql::Engine::Result result = engine.Execute("SHOW TRACE JSON");
  JsonValue doc = JsonParser::Parse(result.message);
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue& events = doc.At("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events.array.empty());
  bool saw_execute = false;
  bool saw_thread_meta = false;
  for (const JsonValue& ev : events.array) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const std::string& ph = ev.At("ph").string;
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    EXPECT_GT(ev.At("tid").number, 0);
    EXPECT_EQ(ev.At("pid").number, 1);
    if (ph == "M") {
      EXPECT_EQ(ev.At("name").string, "thread_name");
      saw_thread_meta = true;
      continue;
    }
    EXPECT_GE(ev.At("ts").number, 0);
    EXPECT_GE(ev.At("dur").number, 0);
    EXPECT_EQ(ev.At("cat").string, "mview");
    if (ev.At("name").string == "execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_thread_meta);
}

TEST_F(TraceTest, DumpTraceWritesTheJsonFile) {
  sql::Engine engine;
  engine.Execute("CREATE TABLE t (a INT64)");
  engine.Execute("INSERT INTO t VALUES (7)");
  const std::string dir = testing::ScratchDir();
  const std::string path = dir + "/trace.json";
  engine.DumpTrace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  JsonValue doc = JsonParser::Parse(text);
  EXPECT_TRUE(doc.Has("traceEvents"));
  std::filesystem::remove_all(dir);
}

TEST_F(TraceTest, TraceOnOffStatements) {
  sql::Engine engine;
  Tracer::Global().Disable();
  EXPECT_EQ(engine.Execute("TRACE ON").message, "tracing on");
  EXPECT_TRUE(Tracer::Global().enabled());
  engine.Execute("CREATE TABLE t (a INT64)");
  EXPECT_EQ(engine.Execute("TRACE OFF").message, "tracing off");
  EXPECT_FALSE(Tracer::Global().enabled());
  // The plain SHOW TRACE table renders one row per span.
  sql::Engine::Result rows = engine.Execute("SHOW TRACE");
  EXPECT_EQ(rows.kind, sql::Engine::Result::Kind::kRows);
  EXPECT_FALSE(rows.rows.empty());
}

}  // namespace
}  // namespace mview::obs
