// Experiment E15: durable-commit throughput vs. group-commit policy.
//
// The write-ahead log makes every commit wait for an fsync; group commit
// amortizes that wait by letting one fsync cover a batch of concurrent
// commits.  Claims to reproduce: per-commit fsync throughput is bounded by
// fsync rate regardless of client count; group commit recovers most of the
// no-durability throughput once a batch covers the concurrent clients; a
// positive window (≥ 1 ms) with a batch bound sized to the client count
// sustains ≥ 3× the per-commit-fsync rate.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "db/transaction.h"
#include "ivm/metrics.h"
#include "relational/schema.h"
#include "storage/file.h"
#include "storage/wal.h"

namespace mview {
namespace {

std::string WalPath() {
  static const std::string dir =
      (std::filesystem::temp_directory_path() / "mview_bench_wal").string();
  std::filesystem::create_directories(dir);
  return dir + "/wal.mv";
}

// A small but realistic commit: three inserts and one delete on one
// relation, distinct tuples per commit index.
TransactionEffect MakeEffect(int64_t i) {
  TransactionEffect effect;
  RelationEffect& r = effect.Mutable("orders", Schema::OfInts({"id", "qty"}));
  r.inserts.Insert(Tuple({Value(3 * i), Value(i % 100)}));
  r.inserts.Insert(Tuple({Value(3 * i + 1), Value(i % 100)}));
  r.inserts.Insert(Tuple({Value(3 * i + 2), Value(i % 100)}));
  r.deletes.Insert(Tuple({Value(-i - 1), Value(int64_t{0})}));
  return effect;
}

struct RunResult {
  double seconds = 0;
  storage::WalStats stats;
  double mean_batch = 0;
};

// `threads` clients each append `per_thread` commits through one log.
RunResult Run(const storage::WalOptions& base_options, int threads,
              int per_thread) {
  std::filesystem::remove(WalPath());
  storage::Wal wal(WalPath(), base_options);

  std::vector<TransactionEffect> effects;
  effects.reserve(static_cast<size_t>(threads) * per_thread);
  for (int i = 0; i < threads * per_thread; ++i) effects.push_back(MakeEffect(i));

  Stopwatch timer;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < per_thread; ++i) {
        wal.Append(effects[static_cast<size_t>(t) * per_thread + i]);
      }
    });
  }
  for (auto& c : clients) c.join();

  RunResult result;
  result.seconds = timer.ElapsedSeconds();
  result.stats = wal.stats();
  const SizeHistogram& batches = result.stats.batch_commits;
  result.mean_batch =
      batches.total_samples() == 0
          ? 0.0
          : static_cast<double>(result.stats.records_appended) /
                static_cast<double>(batches.total_samples());
  return result;
}

void BM_AppendDurable(benchmark::State& state) {
  std::filesystem::remove(WalPath());
  storage::Wal wal(WalPath(), storage::WalOptions{});
  int64_t i = 0;
  for (auto _ : state) wal.Append(MakeEffect(i++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendDurable)->Unit(benchmark::kMicrosecond);

void PrintSummary() {
  using bench::FormatSpeedup;
  const int kThreads = static_cast<int>(bench::Scaled(8, 4));
  const int kPerThread = static_cast<int>(bench::Scaled(250, 10));
  const int kTotal = kThreads * kPerThread;

  struct Config {
    std::string label;
    storage::WalOptions options;
    bool durable = true;  // false: every fsync skipped
  };
  auto window_config = [kThreads](const std::string& label, int64_t micros) {
    Config c{label, {}};
    c.options.group_commit_window = std::chrono::microseconds(micros);
    // Bound the batch at the client count: the window closes as soon as
    // every in-flight commit has joined, instead of sleeping it out.
    c.options.max_batch = kThreads;
    return c;
  };

  std::vector<Config> configs;
  {
    Config none{"no durability (fsync off)", {}};
    none.durable = false;
    configs.push_back(none);
    Config per_commit{"per-commit fsync (batch=1)", {}};
    per_commit.options.max_batch = 1;
    configs.push_back(per_commit);
    configs.push_back(window_config("group commit, window 0 (natural)", 0));
    configs.back().options.max_batch = 64;
    configs.push_back(window_config("group commit, window 500us", 500));
    configs.push_back(window_config("group commit, window 1ms", 1000));
    configs.push_back(window_config("group commit, window 2ms", 2000));
  }

  bench::SummaryTable table(
      "E15: durable commit throughput — " + std::to_string(kThreads) +
          " client threads, " + std::to_string(kTotal) + " commits",
      {"policy", "commits/sec", "fsyncs", "mean batch",
       "speedup vs per-commit"});

  double per_commit_rate = 0;
  char buf[64];
  for (const Config& config : configs) {
    storage::UnsyncedFileSystem unsynced;
    std::optional<storage::ScopedFileSystem> no_fsync;
    if (!config.durable) no_fsync.emplace(&unsynced);
    RunResult r = Run(config.options, kThreads, kPerThread);
    double rate = kTotal / r.seconds;
    if (config.label.rfind("per-commit", 0) == 0) per_commit_rate = rate;
    std::snprintf(buf, sizeof(buf), "%.0f", rate);
    std::string rate_str = buf;
    std::snprintf(buf, sizeof(buf), "%.1f", r.mean_batch);
    table.AddRow({config.label, rate_str, std::to_string(r.stats.fsyncs),
                  buf,
                  per_commit_rate > 0
                      ? FormatSpeedup(rate / per_commit_rate)
                      : "-"});
  }
  table.Print();
}

}  // namespace
}  // namespace mview

MVIEW_BENCH_MAIN()
