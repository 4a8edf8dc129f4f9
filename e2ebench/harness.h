// The system under test as users reach it: a durable `Storage` +
// `sql::EngineCore` served by an in-process `server::Server`, driven
// through `server::Client` connections — plus the workload phases shared by
// the untraced run (e2e_bench.cc) and the traced run (layers.cc).
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "gen.h"
#include "relational/relation.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/session.h"
#include "storage/storage.h"

namespace e2e {

/// One workload's fixed shape (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  Sizes sizes;
  size_t parallelism = 0;   // maintenance worker threads
  double txn_share = 0;     // BEGIN … COMMIT share of main-phase writes
  int cycle_commits = 0;    // K: commits per half ops cycle
  int cycle_reads = 0;      // closed-loop snapshot reads per ops cycle
  int tail_cycles = 0;      // ops cycles after the main phase
  double cycle_period_s = 0;  // ops_cycle: one cycle starts per period
  double writer_rate = 0;   // view_reads: writer ops/s (open loop)
  double reader_rate = 0;   // view_reads: per reader reads/s (open loop)
  int readers = 0;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Operations attempted and failed (non-ok responses plus failed checks);
/// shared by every connection of a run.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  void Check(bool ok, const std::string& what);
};

/// A client connection that counts every request in a `Tally`.
class Conn {
 public:
  Conn(uint16_t port, Tally* tally);
  /// Executes `sql`; a non-ok response counts as failed and is reported
  /// on stderr.  Returns the response.
  mview::server::WireResponse Exec(const std::string& sql);

 private:
  mview::server::Client client_;
  Tally* tally_;
};

/// A durable database directory opened and served over TCP.  Reopening
/// is crash-style: the storage never checkpoints on close, so a reopen
/// restores the last checkpoint and replays the WAL tail.
class Instance {
 public:
  Instance(std::string dir, size_t parallelism);
  ~Instance();

  /// Opens storage + core (recovering whatever the directory holds) and
  /// starts the server.  Returns the seconds spent in recovery
  /// (`Storage::Open` + `EngineCore` construction).
  double Open();
  /// Stops the server and drops the core and storage without a
  /// checkpoint.
  void CrashClose();

  uint16_t port() const { return server_->port(); }
  mview::sql::EngineCore& core() { return *core_; }
  /// An in-process session for control statements (SHOW STATS JSON,
  /// SHOW WAL, SCRUB ALL), issued only while the workload is idle.
  mview::sql::Result Control(const std::string& sql);
  Json StatsJson();
  /// A `SHOW WAL` metric.
  int64_t Wal(const std::string& metric);
  /// Total bytes of the files in the data directory.
  int64_t DiskBytes() const;

 private:
  std::string dir_;
  size_t parallelism_;
  std::unique_ptr<mview::Storage> storage_;
  std::unique_ptr<mview::sql::EngineCore> core_;
  std::unique_ptr<mview::sql::Session> control_;
  std::unique_ptr<mview::server::Server> server_;
};

/// Every view's published snapshot contents.
using ViewState =
    std::map<std::string, std::shared_ptr<const mview::CountedRelation>>;
ViewState CaptureViews(mview::sql::EngineCore& core);

/// Checks (into `tally`) that every live model row — hence every
/// acknowledged commit — is in the engine's base tables and nothing else.
void CheckBases(mview::sql::EngineCore& core, const Generator& gen,
                Tally* tally);
/// Checks that `SCRUB ALL` reports every view clean.
void CheckScrub(Instance& inst, Tally* tally);

/// Creates a fresh instance in `dir` and loads the workload's schema and
/// base rows over TCP.  Returns the set-up seconds.
double SetUp(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
             std::unique_ptr<Instance>* inst, std::unique_ptr<Generator>* gen,
             Tally* tally);

/// CHECKPOINTs per ops cycle, each after K writes.
constexpr int kCheckpoints = 2;

/// One ops cycle's timings.
struct CycleTimes {
  double checkpoint_s = 0;
  double recovery_s = 0;
  double repair_s = 0;
  double refresh_ms = 0;
  double adhoc_ms = 0;
  double space_amp = 0;
  std::vector<double> repair_ms;  // per view, in ViewNames() order
  // Summed over the cycle's CHECKPOINTs (SHOW STATS JSON around each), and
  // SHOW WAL after the reopen.
  int64_t checkpoint_bytes = 0;
  int64_t segments_written = 0;
  int64_t partitions_skipped = 0;
  int64_t replayed_records = 0;
  // Traced only: a reopen right after the checkpoint (empty WAL tail).
  double restore_s = 0;
};

/// Optional hooks for the traced run.
struct CycleHooks {
  SpanLog* spans = nullptr;
  int64_t request = 0;  // the cycle's span request id
  bool measure_restore = false;
};

/// What one measured phase observed.
struct PhaseResult {
  std::vector<double> commit_us;  // commit-statement latencies
  std::vector<double> read_us;    // read latencies (open loop: from due)
  std::vector<double> late_us;    // open loop: send time minus due time
  int64_t backlog_max = 0;        // open loop: most requests overdue
  int64_t commits = 0;
  int64_t cells = 0;              // INT64 cells inserted or deleted
  int64_t response_bytes = 0;     // bytes of read responses
  int64_t wal_bytes = 0;          // WAL bytes appended
  int64_t checkpoint_bytes = 0;   // checkpoint bytes written
  double elapsed_s = 0;
  double write_s = 0;             // time spent writing
  std::vector<CycleTimes> cycles;
  // Traced runs: the writes and reads issued, for in-process replays.
  bool record = false;
  std::vector<WriteOp> writes;
  std::vector<std::string> reads;
};

/// Runs `k` writes, appending commit-statement latencies (µs) and cells
/// to `out`.  With `spans`, each commit statement is a root span named
/// "tcp.commit" whose request id is the write's index in `out->writes`.
void RunWrites(Conn& conn, Generator& gen, double txn_share, int k,
               PhaseResult* out, SpanLog* spans = nullptr);

/// One ops cycle: (K writes → CHECKPOINT) × 2 → K writes → crash reopen
/// (the views must equal their pre-reopen snapshots and every acknowledged
/// commit must be present) → reads → REFRESH VIEW of the deferred view →
/// reads → REPAIR VIEW on every view → reads → an ad-hoc join SELECT,
/// where "reads" are a third of the cycle's closed-loop snapshot reads.  `conn` is replaced by a new connection to the reopened server.
/// Spans are recorded only when `out->record` is set.
CycleTimes RunCycle(const WorkloadSpec& spec, Instance& inst, Generator& gen,
                    std::unique_ptr<Conn>* conn, Tally* tally,
                    PhaseResult* out, const CycleHooks& hooks = {});

/// The workload's measured main phase, `seconds` long: closed-loop
/// writes (commit_stream), open-loop readers + writer (view_reads), or
/// ops cycles started every `cycle_period_s` (ops_cycle).  With `spans`, client calls are recorded.
PhaseResult RunMainPhase(const WorkloadSpec& spec, Instance& inst,
                         Generator& gen, std::unique_ptr<Conn>* conn,
                         Tally* tally, double seconds, uint64_t seed,
                         bool record, SpanLog* spans = nullptr);

/// `n` closed-loop snapshot reads on one connection, keys drawn from
/// `seed`; latencies to `out->read_us`.
void RunReadProbe(Conn& conn, const Generator& gen, uint64_t seed, int n,
                  PhaseResult* out, SpanLog* spans = nullptr);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Command-line settings of one benchmark run.
struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;   // data directories and the trace file go here
  bool inject_drift = false;
};

/// A metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result line (and a readable table before it) and returns
/// the exit code: 0 only when every check passed.
int Report(const RunOptions& opt, const Tally& tally,
           const std::vector<Metric>& metrics,
           const std::vector<Metric>& info);

/// The traced run (layers.cc): per-layer metrics.
int RunTraced(const RunOptions& opt);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
