// The traced run: per-layer numbers measured from outside the program.
//
// The workload runs twice over TCP — an untraced half and a traced half
// whose client calls are recorded as spans — and the traced half's
// statements are then replayed in process, one layer at a time, each call
// into a module's public API wrapped in a span with the statement's
// request id:
//
//   tcp.commit            client round trip on the durable server
//     session.durable     sql::Session::Execute, in process, durable core
//       session.memory    the same on an in-memory core
//         sql.parse       sql::Parse
//         ivm.apply       ViewManager::Apply on a standalone Database
//           db.normalize  Transaction::Normalize
//           ivm.view:<v>  DifferentialMaintainer::ComputeDelta per view,
//                         split by its PhaseBreakdown into screen* and
//                         differential* (derived spans)
//
// A span's self time is its duration minus its children's: server.wire_us
// is tcp.commit's self time, storage.wal_us session.durable's, and
// unattributed_us what session.memory leaves after parse and apply.
// Counters come from the program's own SHOW STATS JSON / SHOW WAL /
// ViewManager::Describe.  Nothing here adds instrumentation to the program.
#include <atomic>
#include <filesystem>
#include <iostream>
#include <thread>

#include "harness.h"
#include "ivm/differential.h"
#include "ivm/view_manager.h"
#include "sql/parser.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

/// An in-process engine (durable when `dir` is non-empty) loaded with
/// `load` rows and the benchmark schema.
struct LocalEngine {
  std::unique_ptr<mview::Storage> storage;
  std::unique_ptr<mview::sql::EngineCore> core;
  std::unique_ptr<mview::sql::Session> session;

  LocalEngine(const std::string& dir, size_t parallelism,
              const std::vector<std::string>& load, Tally* tally) {
    if (!dir.empty()) {
      fs::remove_all(dir);
      mview::Storage::Options options;
      options.checkpoint_on_close = false;
      storage = mview::Storage::Open(dir, options);
    }
    core = std::make_unique<mview::sql::EngineCore>(storage.get());
    core->SetMaintenanceParallelism(parallelism);
    session = core->CreateSession();
    for (const std::string& sql : TableDdl()) Exec(sql, tally);
    for (const std::string& sql : load) Exec(sql, tally);
    for (const std::string& sql : ViewDdl()) Exec(sql, tally);
  }
  ~LocalEngine() {
    session.reset();
    core.reset();
    storage.reset();
  }
  void Exec(const std::string& sql, Tally* tally) {
    mview::sql::Result r;
    mview::Status st = session->TryExecute(sql, &r);
    tally->Check(st.ok, "in-process replay of [" + sql.substr(0, 60) +
                              "]: " + st.message);
  }
  Json Stats() {
    return ParseJson(session->Execute("SHOW STATS JSON").message);
  }
};

/// A standalone copy of `core`'s tables and view definitions.
struct Standalone {
  mview::Database db;
  std::unique_ptr<mview::ViewManager> views;
  std::vector<std::unique_ptr<mview::DifferentialMaintainer>> maintainers;
  std::vector<std::string> names;  // of `maintainers`

  Standalone(const mview::sql::EngineCore& core, size_t parallelism,
             bool with_views) {
    for (const std::string& table : core.database().Names()) {
      const mview::Relation& src = core.database().Get(table);
      mview::Relation& dst = db.CreateRelation(table, src.schema());
      src.Scan([&dst](const mview::Tuple& t) { dst.Insert(t); });
    }
    for (const std::string& name : ViewNames()) {
      mview::ViewInfo info = core.views().Describe(name);
      const mview::MaintenanceOptions& options =
          core.views().Maintainer(name).options();
      if (with_views) {
        if (!views) {
          views = std::make_unique<mview::ViewManager>(&db, parallelism);
        }
        views->RegisterView(info.definition, info.mode, options);
      } else if (info.mode == mview::MaintenanceMode::kImmediate) {
        maintainers.push_back(std::make_unique<mview::DifferentialMaintainer>(
            info.definition, &db, options));
        names.push_back(name);
      }
    }
  }
};

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

/// Samples the standalone ViewManager's thread-pool gauges from a thread
/// of its own while `ViewManager::Apply` runs (`applying`), through the
/// public `SyncPoolMetrics()` + `metrics().pool()`.  The replay thread
/// never reads the pool metrics, so the sampler is their only user.
class PoolSampler {
 public:
  std::atomic<bool> applying{false};

  void Start(mview::ViewManager* views) {
    thread_ = std::thread([this, views] {
      // Sleeps between polls, so the sampler does not take a CPU from the
      // replays being timed.
      while (!stop_.load(std::memory_order_relaxed)) {
        if (applying.load(std::memory_order_relaxed)) {
          views->SyncPoolMetrics();
          const mview::PoolMetrics& g = views->metrics().pool();
          queued_ += static_cast<double>(g.queue_depth);
          active_ += static_cast<double>(g.active_workers);
          ++samples_;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  ~PoolSampler() { Stop(); }
  /// Mean gauges over the samples taken inside `Apply`.
  double MeanQueued() const { return Div(queued_, samples_); }
  double MeanActive() const { return Div(active_, samples_); }
  double samples() const { return samples_; }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
  double queued_ = 0, active_ = 0, samples_ = 0;
};

/// Counter deltas between two SHOW STATS JSON payloads.
struct StatsDelta {
  const Json& a;
  const Json& b;
  double Global(const char* k) const {
    return Num(b, {"global", k}) - Num(a, {"global", k});
  }
  double Top(const char* k) const { return Num(b, {k}) - Num(a, {k}); }
  double Storage(const char* k) const {
    return Num(b, {"storage", k}) - Num(a, {"storage", k});
  }
};

std::vector<double> Durations(const SpanLog& spans, const std::string& name) {
  std::vector<double> v;
  for (const auto& [req, d] : spans.ByRequest(name)) v.push_back(d);
  return v;
}

}  // namespace

int RunTraced(const RunOptions& opt) {
  const WorkloadSpec& spec = *opt.spec;
  const std::string dir = opt.work_dir + "/db";
  Tally tally;
  SpanLog spans;
  std::unique_ptr<Instance> inst;
  std::unique_ptr<Generator> gen;
  SetUp(spec, opt.seed, dir, &inst, &gen, &tally);
  auto conn = std::make_unique<Conn>(inst->port(), &tally);
  RunMainPhase(spec, *inst, *gen, &conn, &tally, 1.0, opt.seed + 1, false);

  // Untraced and traced halves of the main phase: their commit p50s give
  // the tracing overhead.
  const double half = std::max(1.0, opt.seconds / 2);
  PhaseResult untraced = RunMainPhase(spec, *inst, *gen, &conn, &tally, half,
                                      opt.seed, false);
  const std::vector<std::string> pre_state = gen->LoadStatements();
  const Json live0 = inst->StatsJson();
  PhaseResult traced = RunMainPhase(spec, *inst, *gen, &conn, &tally, half,
                                    opt.seed + 2, true, &spans);
  const Json live1 = inst->StatsJson();
  if (spec.name == "commit_stream") {
    RunReadProbe(*conn, *gen, opt.seed, 300, &traced, &spans);
  }
  std::vector<CycleTimes> cycles = traced.cycles;
  for (int i = 0; spec.name != "ops_cycle" && i < 2; ++i) {
    CycleHooks hooks;
    hooks.spans = &spans;
    hooks.request = i;
    hooks.measure_restore = true;
    PhaseResult scratch;
    cycles.push_back(
        RunCycle(spec, *inst, *gen, &conn, &tally, &scratch, hooks));
  }
  CheckScrub(*inst, &tally);
  CheckBases(inst->core(), *gen, &tally);
  conn.reset();
  inst.reset();
  fs::remove_all(dir);

  const std::vector<WriteOp>& writes = traced.writes;
  const int64_t n_writes = static_cast<int64_t>(writes.size());

  // Durable in-process replay (+ the traced phase's reads).
  Json replay0, replay1;
  {
    LocalEngine durable(opt.work_dir + "/replay", spec.parallelism,
                        pre_state, &tally);
    replay0 = durable.Stats();
    for (int64_t i = 0; i < n_writes; ++i) {
      const std::vector<std::string>& stmts = writes[i].stmts;
      for (size_t s = 0; s + 1 < stmts.size(); ++s) {
        durable.Exec(stmts[s], &tally);
      }
      Clock::time_point t0 = Clock::now();
      durable.Exec(stmts.back(), &tally);
      spans.Record("session.durable", i, "tcp.commit", t0, Clock::now());
    }
    replay1 = durable.Stats();
    for (size_t i = 0; i < traced.reads.size(); ++i) {
      Clock::time_point t0 = Clock::now();
      durable.Exec(traced.reads[i], &tally);
      spans.Record("session.read", static_cast<int64_t>(i), "tcp.read", t0,
                   Clock::now());
    }
  }
  fs::remove_all(opt.work_dir + "/replay");

  // In-memory replay, parse, and the standalone maintenance layers.
  std::vector<double> parse_all;
  double rows_max = 0, rows_total = 0;  // partitioned views' slices
  double pool_queued = 0, pool_active = 0, pool_samples = 0;
  {
    LocalEngine memory("", spec.parallelism, pre_state, &tally);
    Standalone apply(*memory.core, spec.parallelism, /*with_views=*/true);
    Standalone parts(*memory.core, spec.parallelism, /*with_views=*/false);
    PoolSampler pool;
    pool.Start(apply.views.get());
    for (int64_t i = 0; i < n_writes; ++i) {
      const WriteOp& op = writes[i];
      for (size_t s = 0; s + 1 < op.stmts.size(); ++s) {
        memory.Exec(op.stmts[s], &tally);
      }
      Clock::time_point t0 = Clock::now();
      memory.Exec(op.stmts.back(), &tally);
      spans.Record("session.memory", i, "session.durable", t0, Clock::now());

      for (size_t s = 0; s < op.stmts.size(); ++s) {
        Clock::time_point p0 = Clock::now();
        const size_t parsed = mview::sql::Parse(op.stmts[s]).size();
        Clock::time_point p1 = Clock::now();
        tally.Check(parsed == 1, "one statement in [" + op.stmts[s] + "]");
        parse_all.push_back(MicrosSince(p0, p1));
        if (s + 1 == op.stmts.size()) {
          spans.Record("sql.parse", i, "session.memory", p0, p1);
        }
      }

      t0 = Clock::now();
      const mview::TransactionEffect normalized = op.txn.Normalize(apply.db);
      spans.Record("db.normalize", i, "ivm.apply", t0, Clock::now());
      tally.Check(!normalized.Empty() || op.cells == 0,
                  "write " + std::to_string(i) + " has an effect");
      t0 = Clock::now();
      pool.applying = true;
      apply.views->Apply(op.txn);
      pool.applying = false;
      spans.Record("ivm.apply", i, "session.memory", t0, Clock::now());

      mview::TransactionEffect effect = op.txn.Normalize(parts.db);
      for (size_t v = 0; v < parts.maintainers.size(); ++v) {
        const std::string span = "ivm.view:" + parts.names[v];
        mview::MaintenanceStats stats;
        mview::PhaseBreakdown phases;
        Clock::time_point v0 = Clock::now();
        parts.maintainers[v]->ComputeDelta(effect, &stats, &phases);
        spans.Record(span, i, "ivm.apply", v0, Clock::now());
        spans.RecordDerived("ivm.screen:" + parts.names[v], i, span, v0,
                            phases.filter_nanos / 1e3);
        spans.RecordDerived("ivm.differential:" + parts.names[v], i, span,
                            v0, phases.differential_nanos / 1e3);
        rows_max += static_cast<double>(stats.partition_rows_max);
        rows_total += static_cast<double>(stats.partition_rows_total);
      }
      effect.ApplyTo(&parts.db);
    }
    pool.Stop();
    pool_queued = pool.MeanQueued();
    pool_active = pool.MeanActive();
    pool_samples = pool.samples();
    for (const std::string& read : traced.reads) {
      Clock::time_point p0 = Clock::now();
      mview::sql::Parse(read);
      parse_all.push_back(MicrosSince(p0, Clock::now()));
    }
    // Full evaluation of every immediate view over the final state.
    for (size_t v = 0; v < parts.maintainers.size(); ++v) {
      for (int rep = 0; rep < 3; ++rep) {
        Clock::time_point t0 = Clock::now();
        mview::CountedRelation full = parts.maintainers[v]->FullEvaluate();
        spans.Record("ra.full_eval:" + parts.names[v], rep, "", t0,
                     Clock::now());
        tally.Check(full.SameContents(
                        apply.views->Materialization(parts.names[v])),
                    "standalone differential == full evaluation for " +
                        parts.names[v]);
      }
    }
  }

  // No span may be lost: one per operation issued at every layer.
  const size_t n = static_cast<size_t>(n_writes);
  std::vector<std::pair<std::string, size_t>> expected = {
      {"tcp.commit", n},   {"session.durable", n}, {"session.memory", n},
      {"sql.parse", n},    {"db.normalize", n},    {"ivm.apply", n},
      {"tcp.read", traced.reads.size()},
      {"session.read", traced.reads.size()}};
  for (size_t v = 0; v < ViewNames().size() - 1; ++v) {
    expected.push_back({"ivm.view:" + ViewNames()[v], n});
  }
  size_t lost = 0;
  for (const auto& [name, count] : expected) {
    const size_t got = spans.Count(name);
    lost += got > count ? got - count : count - got;
    tally.Check(got == count, "span count for " + name + ": " +
                                  std::to_string(got) + " of " +
                                  std::to_string(count));
  }

  // ---- per-layer metrics ----
  const bool ops = spec.name == "ops_cycle";
  // Commit-path counters: the live server's (no reopen in between), or the
  // durable replay's when the traced phase reopened the database.
  const StatsDelta d{ops ? replay0 : live0, ops ? replay1 : live1};
  const double commits = static_cast<double>(n_writes);
  const double seen = d.Global("updates_seen");
  const double hits = d.Global("cache_hits");
  const double lookups = hits + d.Global("cache_misses");
  const double fsyncs = d.Storage("wal_fsyncs");
  const std::map<std::string, double> self = spans.MedianSelfTimes();
  auto self_of = [&self](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto mean_per_commit = [&](const std::string& name) {
    double sum = 0;
    for (const auto& [req, dur] : spans.ByRequest(name)) sum += dur;
    return Div(sum, commits);
  };
  auto cycle_median = [&cycles](auto field) {
    std::vector<double> v;
    for (const CycleTimes& c : cycles) {
      v.push_back(static_cast<double>(c.*field));
    }
    return Median(v);
  };
  std::vector<double> repair_per_view;
  for (const CycleTimes& c : cycles) {
    for (double ms : c.repair_ms) repair_per_view.push_back(ms);
  }
  double skipped = 0, written = 0;
  for (const CycleTimes& c : cycles) {
    skipped += static_cast<double>(c.partitions_skipped);
    written += static_cast<double>(c.segments_written);
  }
  const double wire_us =
      self_of(spec.name == "view_reads" ? "tcp.read" : "tcp.commit");
  const double untraced_p50 = Quantile(untraced.commit_us, 0.5);
  const double restore_s = cycle_median(&CycleTimes::restore_s);

  std::vector<Metric> m = {
      {"server.wire_us", wire_us, "us"},
      {"server.response_bytes_per_read",
       Div(static_cast<double>(traced.response_bytes),
           static_cast<double>(traced.reads.size())),
       "B"},
      {"sql.parse_us", Median(parse_all), "us"},
      {"sql.session_us", Median(Durations(spans, "session.memory")), "us"},
      {"db.normalize_us", Median(Durations(spans, "db.normalize")), "us"},
      {"ivm.apply_us", Median(Durations(spans, "ivm.apply")), "us"},
  };
  for (size_t v = 0; v + 1 < ViewNames().size(); ++v) {
    const std::string& view = ViewNames()[v];
    m.push_back({"ivm.screen_us." + view,
                 mean_per_commit("ivm.screen:" + view + "*"), "us"});
    m.push_back({"ivm.differential_us." + view,
                 mean_per_commit("ivm.differential:" + view + "*"), "us"});
  }
  std::vector<Metric> more = {
      {"ivm.screened_frac", Div(d.Global("updates_filtered"), seen), "ratio"},
      {"ivm.skipped_txn_frac",
       Div(d.Global("skipped_irrelevant"), d.Global("transactions")), "ratio"},
      {"ivm.rows_enumerated_per_commit",
       Div(d.Global("rows_enumerated"), commits), "count"},
      {"ivm.rows_evaluated_per_commit",
       Div(d.Global("rows_evaluated"), commits), "count"},
      {"ivm.delta_rows_per_commit",
       Div(d.Global("delta_inserts") + d.Global("delta_deletes"), commits),
       "count"},
      {"ivm.partition_jobs_per_commit",
       Div(d.Global("partition_jobs"), commits), "count"},
      {"ivm.partition_skew", Div(rows_max, rows_total), "ratio"},
      {"ivm.epoch_copies_per_commit", Div(d.Top("snapshot_copies"), commits),
       "count"},
      {"ivm.epoch_reuses_per_commit", Div(d.Top("snapshot_reuses"), commits),
       "count"},
      {"ivm.repair_ms_per_view", Median(repair_per_view), "ms"},
  };
  m.insert(m.end(), more.begin(), more.end());
  for (size_t v = 0; v + 1 < ViewNames().size(); ++v) {
    const std::string& view = ViewNames()[v];
    m.push_back({"ra.full_eval_ms." + view,
                 Median(Durations(spans, "ra.full_eval:" + view)) / 1e3,
                 "ms"});
  }
  more = {
      {"ra.cache_hit_frac", Div(hits, lookups), "ratio"},
      {"ra.cache_bytes", Num(ops ? replay1 : live1, {"global", "cache_bytes"}),
       "B"},
      {"ra.cache_evictions", d.Global("cache_evictions"), "count"},
      {"ra.batch_rows_per_commit", Div(d.Global("batch_rows"), commits),
       "count"},
      {"ra.arena_high_water_bytes",
       Num(ops ? replay1 : live1, {"global", "arena_high_water"}), "B"},
      {"storage.wal_us",
       self_of("session.durable"), "us"},
      {"storage.fsync_us", Div(d.Storage("fsync_nanos"), fsyncs) / 1e3, "us"},
      {"storage.fsyncs_per_commit", Div(fsyncs, commits), "count"},
      {"storage.commits_per_fsync_batch", Div(d.Storage("wal_appends"), fsyncs),
       "count"},
      {"storage.wal_bytes_per_commit", Div(d.Storage("wal_bytes"), commits),
       "B"},
      {"storage.checkpoint_bytes",
       cycle_median(&CycleTimes::checkpoint_bytes) / kCheckpoints, "B"},
      {"storage.segments_written",
       cycle_median(&CycleTimes::segments_written) / kCheckpoints, "count"},
      {"storage.partitions_skipped_frac", Div(skipped, skipped + written),
       "ratio"},
      {"storage.restore_s", restore_s, "s"},
      {"storage.replay_s", cycle_median(&CycleTimes::recovery_s) - restore_s,
       "s"},
      {"storage.replayed_records", cycle_median(&CycleTimes::replayed_records),
       "count"},
      {"pool.queue_depth", pool_queued, "count"},
      {"pool.active_workers", pool_active, "count"},
      {"gen.late_p99_us", Quantile(traced.late_us, 0.99), "us"},
      {"gen.backlog_max", static_cast<double>(traced.backlog_max), "count"},
      {"obs.trace_overhead_frac",
       Div(Quantile(traced.commit_us, 0.5) - untraced_p50, untraced_p50),
       "ratio"},
      {"obs.spans_lost", static_cast<double>(lost), "count"},
      {"unattributed_us",
       self_of("session.memory"), "us"},
  };
  m.insert(m.end(), more.begin(), more.end());

  std::vector<Metric> info;
  for (const char* name : {"tcp.commit", "session.durable", "session.memory",
                           "tcp.read", "session.read"}) {
    info.push_back({std::string("p50.") + name,
                    Median(Durations(spans, name)), "us"});
  }
  for (const char* name : {"tcp.commit", "tcp.read", "ivm.apply"}) {
    info.push_back({std::string("self.") + name, self_of(name), "us"});
  }
  info.push_back({"spans", static_cast<double>(spans.size()), "count"});
  info.push_back({"pool.samples", pool_samples, "count"});
  const std::string trace_path =
      opt.work_dir + "/trace_" + spec.name + ".json";
  spans.WriteChromeTrace(trace_path);
  std::cout << "chrome trace: " << trace_path << "\n";
  return Report(opt, tally, m, info);
}

}  // namespace e2e
