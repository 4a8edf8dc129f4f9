// Experiment E19: non-blocking snapshot reads under concurrent writes.
// Claim to reproduce: the session API's epoch-snapshot read path keeps
// view reads out of the writer's way — with a writer committing
// maintained transactions as fast as it can, concurrent readers' p99
// SELECT latency stays within 2x of the no-writer baseline, because a
// view SELECT is one atomic epoch load plus a scan of an immutable
// buffer (no engine lock).
//
// Two frontends over the same engine core:
//  - "sessions": N threads each driving an in-process `sql::Session`.
//  - "tcp": N connections through the line-protocol server on loopback
//    (adds wire encoding + a round trip; same lock-free read path).
//
// Each frontend runs two phases of equal duration: baseline (readers
// only) and contended (readers + 1 writer alternating INSERT/DELETE so
// the view stays the same size and read cost is comparable).  The
// summary reports read QPS, p50/p99 latency, the contended/baseline p99
// ratio, and writer commits during the contended phase.
//
// `--json <path>` writes the summary rows (BENCH_E19.json in
// EXPERIMENTS.md).  `--smoke` shrinks the phases to prove the binary
// runs.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/histogram.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/session.h"
#include "util/stopwatch.h"

namespace mview {
namespace {

constexpr int kReaders = 4;
constexpr size_t kViewRows = 1'000;

int64_t PhaseNanos() {
  return bench::Options().smoke ? 30'000'000 : 1'500'000'000;  // 30ms / 1.5s
}

// A filter view over kViewRows+ base rows; the writer's churn key kChurn
// flips in and out so view size stays within one row of constant.
constexpr int64_t kChurn = 1'000'000;

void Setup(sql::Engine* engine) {
  engine->Execute("CREATE TABLE t (a INT64)");
  engine->Execute(
      "CREATE MATERIALIZED VIEW v AS SELECT * FROM t WHERE a >= 0");
  for (size_t i = 0; i < kViewRows; i += 100) {
    std::string values;
    for (size_t j = i; j < i + 100 && j < kViewRows; ++j) {
      values += (values.empty() ? "(" : ", (") + std::to_string(j) + ")";
    }
    engine->Execute("INSERT INTO t VALUES " + values);
  }
}

struct PhaseResult {
  obs::LatencyHistogram latency;
  int64_t reads = 0;
  int64_t writes = 0;
  double seconds = 0;

  double Qps() const { return seconds > 0 ? reads / seconds : 0; }
};

// Runs one phase: `read` called per iteration in each of kReaders
// threads, plus one writer cycling INSERT/DELETE when `with_writer`.
PhaseResult RunPhase(sql::Engine* engine,
                     const std::function<void(int)>& read, bool with_writer) {
  PhaseResult result;
  std::atomic<bool> stop{false};
  std::vector<obs::LatencyHistogram> histograms(kReaders);
  std::vector<int64_t> reads(kReaders, 0);
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        Stopwatch timer;
        read(r);
        histograms[r].Record(timer.ElapsedNanos());
        ++reads[r];
      }
    });
  }

  Stopwatch phase;
  if (with_writer) {
    const std::string insert =
        "INSERT INTO t VALUES (" + std::to_string(kChurn) + ")";
    const std::string remove =
        "DELETE FROM t WHERE a = " + std::to_string(kChurn);
    bool in = false;
    while (phase.ElapsedNanos() < PhaseNanos()) {
      engine->Execute(in ? remove : insert);
      in = !in;
      ++result.writes;
    }
    if (in) engine->Execute(remove);  // leave the view at its base size
  } else {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(PhaseNanos()));
  }
  result.seconds = phase.ElapsedNanos() * 1e-9;
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < kReaders; ++r) {
    result.latency += histograms[r];
    result.reads += reads[r];
  }
  return result;
}

struct ModeResult {
  PhaseResult baseline;
  PhaseResult contended;

  double P99Ratio() const {
    const int64_t base = baseline.latency.Quantile(0.99);
    return base > 0
               ? static_cast<double>(contended.latency.Quantile(0.99)) / base
               : 0;
  }
};

ModeResult RunSessionsMode() {
  sql::Engine engine;
  Setup(&engine);
  std::vector<std::unique_ptr<sql::Session>> sessions;
  for (int r = 0; r < kReaders; ++r) {
    sessions.push_back(engine.CreateSession());
  }
  auto read = [&sessions](int r) {
    sessions[r]->Execute("SELECT * FROM v WHERE a < 0");
  };
  ModeResult result;
  result.baseline = RunPhase(&engine, read, /*with_writer=*/false);
  result.contended = RunPhase(&engine, read, /*with_writer=*/true);
  return result;
}

ModeResult RunTcpMode() {
  sql::Engine engine;
  Setup(&engine);
  server::Server srv(&engine.core(), server::Server::Options{});
  srv.Start();
  std::vector<server::Client> clients(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    clients[r].Connect("127.0.0.1", srv.port());
  }
  auto read = [&clients](int r) {
    clients[r].Execute("SELECT * FROM v WHERE a < 0");
  };
  ModeResult result;
  result.baseline = RunPhase(&engine, read, /*with_writer=*/false);
  result.contended = RunPhase(&engine, read, /*with_writer=*/true);
  for (auto& c : clients) c.Close();
  srv.Shutdown();
  return result;
}

void Report(bench::SummaryTable* table, bench::JsonRows* json,
            const std::string& mode, bool tcp, const ModeResult& result) {
  const PhaseResult* phases[2] = {&result.baseline, &result.contended};
  for (int p = 0; p < 2; ++p) {
    const PhaseResult& phase = *phases[p];
    table->AddRow(
        {mode, p == 0 ? "baseline" : "contended",
         std::to_string(phase.reads),
         std::to_string(static_cast<int64_t>(phase.Qps())),
         bench::FormatSeconds(phase.latency.Quantile(0.50) * 1e-9),
         bench::FormatSeconds(phase.latency.Quantile(0.99) * 1e-9),
         p == 0 ? std::string("-") : std::to_string(phase.writes),
         p == 0 ? std::string("-")
                : bench::FormatSpeedup(result.P99Ratio())});
    // Counts are reported as rates over the phase, so every field but the
    // three configuration ones names a metric and its direction for
    // scripts/bench_diff.py.
    json->Add({{"tcp", tcp ? 1.0 : 0.0},
               {"writer", p == 0 ? 0.0 : 1.0},
               {"readers", static_cast<double>(kReaders)},
               {"reads_per_sec", phase.Qps()},
               {"p50_ns", static_cast<double>(phase.latency.Quantile(0.50))},
               {"p99_ns", static_cast<double>(phase.latency.Quantile(0.99))},
               {"writes_per_sec",
                phase.seconds > 0 ? phase.writes / phase.seconds : 0},
               {"p99_slowdown", p == 0 ? 1.0 : result.P99Ratio()}});
  }
}

}  // namespace
}  // namespace mview

int main(int argc, char** argv) {
  mview::bench::ParseBenchOptions(&argc, argv);
  benchmark::Initialize(&argc, argv);

  mview::bench::SummaryTable table(
      "E19: concurrent-session reads (4 readers, 1 writer)",
      {"mode", "phase", "reads", "qps", "p50", "p99", "writes",
       "p99 vs baseline"});
  mview::bench::JsonRows json;

  mview::ModeResult sessions = mview::RunSessionsMode();
  mview::Report(&table, &json, "sessions", false, sessions);
  mview::ModeResult tcp = mview::RunTcpMode();
  mview::Report(&table, &json, "tcp", true, tcp);

  table.Print();
  if (!json.WriteIfRequested()) return 1;
  return 0;
}
