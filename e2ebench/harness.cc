#include "harness.h"

#include <sys/resource.h>

#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

namespace e2e {

namespace fs = std::filesystem;

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kSpecs = [] {
    std::vector<WorkloadSpec> specs;
    WorkloadSpec commit;
    commit.name = "commit_stream";
    commit.sizes = {500, 4000, 8000};
    commit.parallelism = 2;
    // Cheap INSERTs and costlier key DELETEs form separate latency
    // modes; with most commits in transactions the median falls inside
    // the transactions' mode instead of in the gap between the two.
    commit.txn_share = 0.6;
    commit.cycle_commits = 20;
    commit.cycle_reads = 99;
    commit.tail_cycles = 10;
    specs.push_back(commit);

    WorkloadSpec reads;
    reads.name = "view_reads";
    reads.sizes = {500, 4000, 8000};
    reads.parallelism = 0;
    reads.txn_share = 0.6;
    reads.cycle_commits = 20;
    reads.cycle_reads = 99;
    reads.tail_cycles = 10;
    reads.writer_rate = 50;
    reads.reader_rate = 500;
    reads.readers = 2;
    specs.push_back(reads);

    WorkloadSpec ops;
    ops.name = "ops_cycle";
    ops.sizes = {1000, 8000, 16000};
    ops.parallelism = 0;
    ops.cycle_commits = 20;
    ops.cycle_reads = 300;
    ops.cycle_period_s = 1.5;
    specs.push_back(ops);
    return specs;
  }();
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "check failed: " << what << "\n";
  }
}

Conn::Conn(uint16_t port, Tally* tally) : tally_(tally) {
  client_.Connect("127.0.0.1", port);
}

mview::server::WireResponse Conn::Exec(const std::string& sql) {
  ++tally_->attempted;
  mview::server::WireResponse r = client_.Execute(sql);
  if (!r.ok) {
    ++tally_->failed;
    std::cerr << "non-ok response to [" << sql.substr(0, 80)
              << "]: " << r.message << "\n";
  }
  return r;
}

Instance::Instance(std::string dir, size_t parallelism)
    : dir_(std::move(dir)), parallelism_(parallelism) {}

Instance::~Instance() { CrashClose(); }

double Instance::Open() {
  mview::Storage::Options options;  // fsync on: the default
  options.checkpoint_on_close = false;
  Clock::time_point t0 = Clock::now();
  storage_ = mview::Storage::Open(dir_, options);
  core_ = std::make_unique<mview::sql::EngineCore>(storage_.get());
  double recovery_s = MicrosSince(t0, Clock::now()) / 1e6;
  core_->SetMaintenanceParallelism(parallelism_);
  control_ = core_->CreateSession();
  server_ = std::make_unique<mview::server::Server>(
      core_.get(), mview::server::Server::Options{});
  server_->Start();
  return recovery_s;
}

void Instance::CrashClose() {
  if (server_) server_->Shutdown();
  server_.reset();
  control_.reset();
  core_.reset();
  storage_.reset();
}

mview::sql::Result Instance::Control(const std::string& sql) {
  return control_->Execute(sql);
}

Json Instance::StatsJson() {
  return ParseJson(Control("SHOW STATS JSON").message);
}

int64_t Instance::Wal(const std::string& metric) {
  mview::sql::Result r = Control("SHOW WAL");
  for (const auto& [row, count] : r.rows) {
    if (row.at(0).AsString() == metric) return row.at(1).AsInt64();
  }
  throw std::runtime_error("SHOW WAL has no " + metric);
}

int64_t Instance::DiskBytes() const {
  int64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

ViewState CaptureViews(mview::sql::EngineCore& core) {
  ViewState out;
  std::shared_ptr<const mview::EpochSnapshot> snap = core.Snapshot();
  for (const std::string& name : snap->ViewNames()) {
    out[name] = snap->Find(name)->data;
  }
  return out;
}

void CheckBases(mview::sql::EngineCore& core, const Generator& gen,
                Tally* tally) {
  for (const char* table : {"customers", "orders", "items"}) {
    const mview::Relation& rel = core.database().Get(table);
    std::vector<Generator::Row> rows = gen.LiveRows(table);
    bool ok = rel.size() == rows.size();
    const int arity = static_cast<int>(rel.schema().size());
    for (const Generator::Row& r : rows) {
      if (!ok) break;
      std::vector<mview::Value> v;
      for (int i = 0; i < arity; ++i) v.emplace_back(r[i]);
      ok = rel.Contains(mview::Tuple(std::move(v)));
    }
    tally->Check(ok, std::string("base table ") + table +
                         " matches every acknowledged commit");
  }
}

void CheckScrub(Instance& inst, Tally* tally) {
  mview::sql::Result r = inst.Control("SCRUB ALL");
  bool ok = r.NumRows() == ViewNames().size();
  const size_t status = r.ColumnIndex("status").value_or(1);
  for (size_t i = 0; ok && i < r.NumRows(); ++i) {
    ok = r.ValueAt(i, status).AsString() == "clean";
  }
  tally->Check(ok, "SCRUB ALL reports zero drift:\n" + r.ToString());
}

double SetUp(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             std::unique_ptr<Instance>* inst, std::unique_ptr<Generator>* gen,
             Tally* tally) {
  inst->reset();
  fs::remove_all(dir);
  Clock::time_point t0 = Clock::now();
  *gen = std::make_unique<Generator>(spec.sizes, seed);
  *inst = std::make_unique<Instance>(dir, spec.parallelism);
  (*inst)->Open();
  Conn conn((*inst)->port(), tally);
  for (const std::string& sql : TableDdl()) conn.Exec(sql);
  for (const std::string& sql : (*gen)->LoadStatements()) conn.Exec(sql);
  for (const std::string& sql : ViewDdl()) conn.Exec(sql);
  return MicrosSince(t0, Clock::now()) / 1e6;
}

void RunWrites(Conn& conn, Generator& gen, double txn_share, int k,
               PhaseResult* out, SpanLog* spans) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < k; ++i) {
    WriteOp op = gen.NextWrite(txn_share);
    const int64_t request = out->commits;
    for (size_t s = 0; s < op.stmts.size(); ++s) {
      const bool commits = s + 1 == op.stmts.size();
      Clock::time_point t0 = Clock::now();
      conn.Exec(op.stmts[s]);
      Clock::time_point t1 = Clock::now();
      if (commits) out->commit_us.push_back(MicrosSince(t0, t1));
      if (spans != nullptr) {
        spans->Record(commits ? "tcp.commit" : "tcp.stage", request, "", t0,
                      t1);
      }
    }
    ++out->commits;
    out->cells += op.cells;
    if (out->record) out->writes.push_back(std::move(op));
  }
  out->write_s += MicrosSince(start, Clock::now()) / 1e6;
}

namespace {

// Operator cycles write the same mix on every workload, so their REFRESHes
// have comparable pending work.
constexpr double kCycleTxnShare = 0.6;

// Repetitions of the single-shot operations of one ops cycle; each is
// reported as the median of its repetitions.
constexpr int kReopens = 2;
constexpr int kRefreshes = 5;
constexpr int kRepairRounds = 2;
constexpr int kAdhocRuns = 5;

/// A cumulative counter of SHOW STATS JSON's "storage" object.
int64_t StorageCounter(const Json& stats, const char* name) {
  return static_cast<int64_t>(Num(stats, {"storage", name}));
}

void Timed(SpanLog* spans, const std::string& name, int64_t request,
           Clock::time_point t0) {
  if (spans != nullptr) spans->Record(name, request, "", t0, Clock::now());
}

}  // namespace

CycleTimes RunCycle(const WorkloadSpec& spec, Instance& inst, Generator& gen,
                    std::unique_ptr<Conn>* conn, Tally* tally,
                    PhaseResult* out, const CycleHooks& hooks) {
  CycleTimes t;
  SpanLog* spans = hooks.spans;
  const int64_t req = hooks.request;
  // Commit spans pair with in-process replays, so only recorded writes
  // get them.
  SpanLog* write_spans = out->record ? spans : nullptr;
  int64_t wal0 = inst.Wal("bytes_appended");
  std::vector<double> reps, space;
  for (int c = 0; c < kCheckpoints; ++c) {
    RunWrites(**conn, gen, kCycleTxnShare, spec.cycle_commits, out,
              write_spans);
    const Json before = inst.StatsJson();
    Clock::time_point t0 = Clock::now();
    (*conn)->Exec("CHECKPOINT");
    reps.push_back(MicrosSince(t0, Clock::now()) / 1e6);
    Timed(spans, "cycle.checkpoint", req, t0);
    const Json after = inst.StatsJson();
    for (auto [field, name] :
         {std::pair{&CycleTimes::checkpoint_bytes, "checkpoint_bytes"},
          std::pair{&CycleTimes::segments_written, "segments_written"},
          std::pair{&CycleTimes::partitions_skipped, "partitions_skipped"}}) {
      t.*field += StorageCounter(after, name) - StorageCounter(before, name);
    }
    space.push_back(static_cast<double>(inst.DiskBytes()) /
                    static_cast<double>(8 * gen.LiveCells()));
  }
  t.checkpoint_s = Median(reps);
  t.space_amp = Median(space);
  out->checkpoint_bytes += t.checkpoint_bytes;

  auto reopen = [&]() {
    out->wal_bytes += inst.Wal("bytes_appended") - wal0;
    ViewState before = CaptureViews(inst.core());
    conn->reset();
    inst.CrashClose();
    double s = inst.Open();
    ViewState after = CaptureViews(inst.core());
    bool same = before.size() == after.size();
    for (const auto& [name, rel] : before) {
      auto it = after.find(name);
      same = same && it != after.end() && rel->SameContents(*it->second);
    }
    tally->Check(same, "views equal their pre-reopen snapshots");
    CheckBases(inst.core(), gen, tally);
    *conn = std::make_unique<Conn>(inst.port(), tally);
    // A health check: the reopened server answers a catalog read.
    (*conn)->Exec("SHOW VIEWS");
    wal0 = inst.Wal("bytes_appended");
    return s;
  };
  if (hooks.measure_restore) t.restore_s = reopen();

  RunWrites(**conn, gen, kCycleTxnShare, spec.cycle_commits, out,
            write_spans);

  // A reopen does not checkpoint, so each one replays the same WAL tail.
  reps.clear();
  for (int r = 0; r < kReopens; ++r) {
    Clock::time_point t0 = Clock::now();
    reps.push_back(reopen());
    Timed(spans, "cycle.reopen", req, t0);
  }
  t.recovery_s = Median(reps);
  t.replayed_records = inst.Wal("records_replayed");

  // Snapshot reads, a third on each of three states: freshly recovered
  // (as after a restart), refreshed, and repaired.  A scan's cost varies
  // with the state (by up to 2.5x between cycles of one run), so more
  // states per run make the read median steadier.
  auto read_probe = [&]() {
    RunReadProbe(**conn, gen, gen.rng().Next(), spec.cycle_reads / 3, out,
                 out->record ? spans : nullptr);
  };
  read_probe();

  // The first refresh brings the snapshot up to the reopened state; the
  // later ones each follow K/2 more commits.
  reps.clear();
  for (int r = 0; r < kRefreshes; ++r) {
    if (r > 0) {
      RunWrites(**conn, gen, kCycleTxnShare, spec.cycle_commits / 2, out,
                write_spans);
    }
    Clock::time_point t0 = Clock::now();
    (*conn)->Exec(std::string("REFRESH VIEW ") + kDeferredView);
    reps.push_back(MicrosSince(t0, Clock::now()) / 1e3);
    Timed(spans, "cycle.refresh", req, t0);
  }
  t.refresh_ms = Median(reps);
  read_probe();

  reps.clear();
  for (int r = 0; r < kRepairRounds; ++r) {
    Clock::time_point t0 = Clock::now();
    for (const std::string& view : ViewNames()) {
      Clock::time_point v0 = Clock::now();
      (*conn)->Exec("REPAIR VIEW " + view);
      t.repair_ms.push_back(MicrosSince(v0, Clock::now()) / 1e3);
    }
    reps.push_back(MicrosSince(t0, Clock::now()) / 1e6);
    Timed(spans, "cycle.repair_all", req, t0);
  }
  t.repair_s = Median(reps);
  read_probe();

  reps.clear();
  const std::string adhoc = gen.AdhocJoin();
  for (int r = 0; r < kAdhocRuns; ++r) {
    Clock::time_point t0 = Clock::now();
    (*conn)->Exec(adhoc);
    reps.push_back(MicrosSince(t0, Clock::now()) / 1e3);
    Timed(spans, "cycle.adhoc", req, t0);
  }
  t.adhoc_ms = Median(reps);

  // The WAL bytes of the writes since the last reopen.
  out->wal_bytes += inst.Wal("bytes_appended") - wal0;

  return t;
}

void RunReadProbe(Conn& conn, const Generator& gen, uint64_t seed, int n,
                  PhaseResult* out, SpanLog* spans) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::string sql = gen.Read(rng, i);
    Clock::time_point t0 = Clock::now();
    mview::server::WireResponse r = conn.Exec(sql);
    Clock::time_point t1 = Clock::now();
    out->read_us.push_back(MicrosSince(t0, t1));
    out->response_bytes += static_cast<int64_t>(r.raw.size());
    if (spans != nullptr) {
      spans->Record("tcp.read", static_cast<int64_t>(out->reads.size()), "",
                    t0, t1);
    }
    if (out->record || spans != nullptr) out->reads.push_back(std::move(sql));
  }
}

namespace {

/// One open-loop client: request `i` is due at `start + i / rate`; each is
/// sent when due (or as soon as the previous reply arrives, when late) and
/// timed from its due time, so a stall also charges the requests queued
/// behind it.
struct OpenLoopClient {
  double rate = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  int64_t backlog_max = 0;
  // Traced: (t0, t1) of every request, in order.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> calls;

  template <typename Fn>
  void Run(Clock::time_point start, Clock::time_point end, bool keep_calls,
           Fn&& send) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    for (int64_t i = 0;; ++i) {
      Clock::time_point due = start + period * i;
      if (due >= end) break;
      // Sleep to just short of the due time, then spin: a sleeping
      // thread's wake-up on a virtual CPU costs ~150 µs of host-dependent
      // noise that is the client's, not the server's.
      std::this_thread::sleep_until(due - std::chrono::microseconds(300));
      while (Clock::now() < due) {
      }
      Clock::time_point t0 = Clock::now();
      const int64_t overdue = (t0 - start) / period - i;
      backlog_max = std::max(backlog_max, overdue);
      send(i);
      Clock::time_point t1 = Clock::now();
      latency_us.push_back(MicrosSince(due, t1));
      late_us.push_back(MicrosSince(due, t0));
      if (keep_calls) calls.emplace_back(t0, t1);
    }
  }
};

void RunOpenLoop(const WorkloadSpec& spec, Instance& inst, Generator& gen,
                 Conn& writer, Tally* tally, double seconds, uint64_t seed,
                 PhaseResult* out, SpanLog* spans) {
  const bool keep = spans != nullptr || out->record;
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<OpenLoopClient> readers(spec.readers);
  std::vector<std::vector<std::string>> read_sql(spec.readers);
  std::vector<int64_t> read_bytes(spec.readers, 0);
  std::vector<std::thread> threads;
  for (int r = 0; r < spec.readers; ++r) {
    threads.emplace_back([&, r] {
      Conn conn(inst.port(), tally);
      Rng rng(seed * 1000003ULL + static_cast<uint64_t>(r) + 1);
      OpenLoopClient& c = readers[r];
      c.rate = spec.reader_rate;
      c.Run(start, end, keep, [&](int64_t i) {
        std::string sql = gen.Read(rng, i);
        read_bytes[r] += static_cast<int64_t>(conn.Exec(sql).raw.size());
        if (keep) read_sql[r].push_back(std::move(sql));
      });
    });
  }
  OpenLoopClient w;
  w.rate = spec.writer_rate;
  std::vector<WriteOp> ops;
  double write_us = 0;
  w.Run(start, end, keep, [&](int64_t) {
    WriteOp op = gen.NextWrite(spec.txn_share);
    Clock::time_point t0 = Clock::now();
    for (const std::string& sql : op.stmts) writer.Exec(sql);
    write_us += MicrosSince(t0, Clock::now());
    out->cells += op.cells;
    ops.push_back(std::move(op));
  });
  for (std::thread& t : threads) t.join();

  const int64_t first_write = out->commits;
  out->commits += static_cast<int64_t>(ops.size());
  out->write_s += write_us / 1e6;
  out->commit_us.insert(out->commit_us.end(), w.latency_us.begin(),
                        w.latency_us.end());
  out->backlog_max = std::max(out->backlog_max, w.backlog_max);
  out->late_us.insert(out->late_us.end(), w.late_us.begin(), w.late_us.end());
  for (size_t i = 0; spans != nullptr && i < w.calls.size(); ++i) {
    spans->Record("tcp.commit", first_write + static_cast<int64_t>(i), "",
                  w.calls[i].first, w.calls[i].second);
  }
  if (out->record) {
    for (WriteOp& op : ops) out->writes.push_back(std::move(op));
  }
  for (int r = 0; r < spec.readers; ++r) {
    const OpenLoopClient& c = readers[r];
    out->read_us.insert(out->read_us.end(), c.latency_us.begin(),
                        c.latency_us.end());
    out->late_us.insert(out->late_us.end(), c.late_us.begin(),
                        c.late_us.end());
    out->backlog_max = std::max(out->backlog_max, c.backlog_max);
    out->response_bytes += read_bytes[r];
    for (size_t i = 0; keep && i < c.calls.size(); ++i) {
      if (spans != nullptr) {
        spans->Record("tcp.read", static_cast<int64_t>(out->reads.size()), "",
                      c.calls[i].first, c.calls[i].second);
      }
      out->reads.push_back(read_sql[r][i]);
    }
  }
}

}  // namespace

PhaseResult RunMainPhase(const WorkloadSpec& spec, Instance& inst,
                         Generator& gen, std::unique_ptr<Conn>* conn,
                         Tally* tally, double seconds, uint64_t seed,
                         bool record, SpanLog* spans) {
  PhaseResult out;
  out.record = record;
  const Clock::time_point t0 = Clock::now();
  const auto done = [&] {
    return MicrosSince(t0, Clock::now()) >= seconds * 1e6;
  };
  const int64_t wal0 = inst.Wal("bytes_appended");
  if (spec.name == "commit_stream") {
    while (!done()) RunWrites(**conn, gen, spec.txn_share, 10, &out, spans);
  } else if (spec.name == "view_reads") {
    RunOpenLoop(spec, inst, gen, **conn, tally, seconds, seed, &out, spans);
  }
  if (spec.name != "ops_cycle") {
    out.wal_bytes = inst.Wal("bytes_appended") - wal0;
  } else {
    // Cycles start on a fixed schedule, so every run does the same work
    // however fast the host is (a late cycle starts as soon as the one
    // before it ends).
    CycleHooks hooks;
    hooks.spans = spans;
    hooks.measure_restore = spans != nullptr;
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(spec.cycle_period_s));
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    for (int64_t i = 0; t0 + period * i < end; ++i) {
      std::this_thread::sleep_until(t0 + period * i);
      hooks.request = i;
      out.cycles.push_back(RunCycle(spec, inst, gen, conn, tally, &out,
                                    hooks));
    }
  }
  out.elapsed_s = MicrosSince(t0, Clock::now()) / 1e6;
  return out;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace e2e
