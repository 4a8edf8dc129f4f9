#ifndef MVIEW_SQL_ENGINE_H_
#define MVIEW_SQL_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "ivm/integrity.h"
#include "ivm/scrubber.h"
#include "ivm/view_manager.h"
#include "obs/session_stats.h"
#include "sql/parser.h"
#include "sql/result.h"
#include "util/admission.h"
#include "util/status.h"

namespace mview::util {
class Cancellation;
}  // namespace mview::util

namespace mview {
class Storage;
namespace storage {
struct CatalogChange;
}  // namespace storage
}  // namespace mview

namespace mview::sql {

class Session;

/// The shared, thread-safe heart of a SQL engine: a `Database`, a
/// `ViewManager` keeping SQL-created materialized views consistent, and an
/// `IntegrityGuard` enforcing SQL-created assertions.
///
/// This is the substrate the paper presumes around its algorithms — a
/// relational system in which views are defined declaratively and updated
/// transactions flow through the maintenance machinery.  Clients do not
/// talk to the core directly; they execute SQL through `Session` objects
/// (`CreateSession`), each carrying its own BEGIN…COMMIT state.
///
/// Concurrency model (see DESIGN.md, "Sessions, epochs, and the server"):
///
///  - A SELECT over a single materialized view never takes the engine lock
///    at all: it reads the immutable `EpochSnapshot` most recently
///    published by the commit pipeline (one atomic load), so view reads
///    are wait-free with respect to writers.
///  - Read-only statements over base tables (ad-hoc SELECT, SHOW …,
///    EXPLAIN MAINTENANCE, COPY TO) share a reader-writer lock, as does
///    DML *staging* inside an explicit transaction (it only validates
///    against the catalog and appends to the session's pending
///    transaction).
///  - Everything that mutates shared state — commits, DDL, REFRESH/REPAIR/
///    SCRUB, CHECKPOINT, SHOW STATS (which syncs metrics) — takes the lock
///    exclusively and serializes through the existing commit path.
///  - BEGIN and ROLLBACK touch only session-local state and take no lock.
class EngineCore {
 public:
  EngineCore();

  /// A durable core: attaches `storage` (not owned; may be null for an
  /// in-memory engine, must outlive this core otherwise), which recovers
  /// the directory's checkpoint and WAL tail into this core — and
  /// republishes the recovered state as epoch 0 — before the constructor
  /// returns.  Afterwards every commit and every catalog change is logged
  /// durably before it is applied.
  explicit EngineCore(Storage* storage);

  /// Closes the attached storage (checkpointing per its options) while the
  /// core's state is still alive to snapshot.  Every `Session` must have
  /// been destroyed first.
  ~EngineCore();

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Opens a new client session.  Sessions are cheap, independently own
  /// their transaction state, and must not outlive the core.  Thread-safe.
  std::unique_ptr<Session> CreateSession();

  /// Executes one parsed statement on behalf of a session whose pending
  /// transaction is `*pending`, taking whatever lock the statement class
  /// requires (see the class comment).  Sets `*served_from_snapshot` when
  /// the statement was a view SELECT answered lock-free from the published
  /// epoch.  Throws like the former `Engine::Execute`.
  ///
  /// `cancel` (may be null) is polled before the engine lock is taken and
  /// at every evaluation poll point downstream; an expired token unwinds
  /// the statement with `DeadlineExceededError` before anything observable
  /// mutates.  When admission control is configured
  /// (`SetAdmissionControl`), statements that need the engine lock pass
  /// through the lane gate first: a saturated lane sheds the statement
  /// immediately with `OverloadedError` carrying a retry-after hint.  The
  /// snapshot fast path bypasses both — published-epoch reads stay
  /// wait-free even under overload.
  ///
  /// The statement is taken by value because executing it may consume it:
  /// an INSERT moves its parsed rows into the transaction it commits.
  Result ExecuteParsed(Statement stmt,
                       std::optional<Transaction>* pending,
                       bool* served_from_snapshot,
                       const util::Cancellation* cancel = nullptr);

  /// The latest published epoch of every materialized view — one atomic
  /// load, callable from any thread concurrently with commits.
  std::shared_ptr<const EpochSnapshot> Snapshot() const {
    return views_.Snapshot();
  }

  /// Const inspection of the engine's state.  These return references into
  /// live structures, so they are only meaningful when no other thread is
  /// writing (tests, tools, single-threaded embedding); concurrent
  /// programs read views through `Snapshot()` and everything else through
  /// SQL.
  const Database& database() const { return db_; }
  const ViewManager& views() const { return views_; }
  const IntegrityGuard& guard() const { return guard_; }

  /// Sets the number of maintenance worker threads the commit pipeline
  /// fans view maintenance over (0 = serial).  A startup/configuration
  /// knob: takes the engine lock exclusively, so it is safe against
  /// concurrent statements, but resizing the pool mid-load stalls commits
  /// while workers drain.
  void SetMaintenanceParallelism(size_t workers);

  /// Configures admission control (overload shedding).  Lane budgets of 0
  /// mean unlimited (the default: no gating, no overhead beyond a null
  /// check).  A startup/configuration knob like
  /// `SetMaintenanceParallelism`: call before the core is shared, not
  /// mid-load.
  void SetAdmissionControl(util::AdmissionController::Options options);

  /// The admission controller, or null when admission control is off.
  const util::AdmissionController* admission() const {
    return admission_.get();
  }

  /// TEST-ONLY mutable controller access (e.g. to occupy a lane slot and
  /// force a deterministic shed); same contract as `mutable_database`.
  util::AdmissionController* mutable_admission() { return admission_.get(); }

  /// Mutable escape hatches for TESTS ONLY (drift injection, direct view
  /// registration, scrubber construction).  They bypass the engine lock
  /// entirely: never call them while another thread is executing
  /// statements.  Production code mutates state through SQL; the storage
  /// facade uses its own friended surface below.
  Database& mutable_database() { return db_; }
  ViewManager& mutable_views() { return views_; }
  IntegrityGuard& mutable_guard() { return guard_; }

  /// The attached storage, or null for an in-memory core.
  Storage* storage() { return storage_; }

  /// Writes the current trace snapshot (Chrome `trace_event` JSON, the
  /// `SHOW TRACE JSON` payload) to `path` — loadable in chrome://tracing
  /// and Perfetto.  Throws `Error` when the file cannot be opened.
  void DumpTrace(const std::string& path) const;

  /// Prometheus text-format (exposition 0.0.4) rendering of the full
  /// metrics registry, WAL/pool/session gauges synced first (takes the
  /// lock exclusively).  Suitable as a `/metrics` scrape body.
  std::string ExportMetricsText();

 private:
  friend class Session;
  friend class ::mview::Storage;

  /// Narrow internal surface for the storage facade only: recovery install
  /// at `Attach` (which runs before the core is shared, single-threaded by
  /// contract), health-listener wiring at `Close`, and WAL/checkpoint
  /// metrics sync.  Private and friended so production code outside
  /// storage/ cannot grow new mutation paths; tests use the public
  /// `mutable_*` hatches above.
  Database& storage_database() { return db_; }
  ViewManager& storage_views() { return views_; }
  IntegrityGuard& storage_guard() { return guard_; }

  /// How much of the engine a statement needs (see the class comment).
  enum class LockClass { kNone, kShared, kExclusive };
  static LockClass Classify(const Statement& stmt, bool in_transaction);

  /// The statement dispatcher; the caller holds the lock `Classify`
  /// demanded.  `cancel` may be null; it reaches the maintenance poll
  /// points through `CommitTransaction`.  INSERT rows (also those under
  /// EXPLAIN MAINTENANCE) are moved out of `stmt`.
  Result ExecuteStatement(Statement& stmt,
                          std::optional<Transaction>* pending,
                          const util::Cancellation* cancel);
  Result ExecuteSelect(const SelectQuery& query);
  /// The lock-free fast path: serves `query` (single-FROM over a view
  /// present in `snap`) from the epoch's immutable buffer.
  Result ExecuteSelectFromSnapshot(const EpochSnapshot& snap,
                                   const SelectQuery& query);
  Result ExecuteCreateView(const Statement& stmt);
  Result ExecuteInsert(Statement& stmt,
                       std::optional<Transaction>* pending,
                       const util::Cancellation* cancel);
  Result ExecuteDelete(const Statement& stmt,
                       std::optional<Transaction>* pending,
                       const util::Cancellation* cancel);
  Result ExecuteUpdate(const Statement& stmt,
                       std::optional<Transaction>* pending,
                       const util::Cancellation* cancel);
  Result ExecuteExplainMaintenance(Statement& stmt);
  Result CommitTransaction(Transaction txn, const util::Cancellation* cancel);

  // Validate a DML statement against the catalog and return the
  // transaction it would commit (affected-row count via `rows`), applying
  // nothing — shared by the execution paths and EXPLAIN MAINTENANCE.
  // `BuildInsert` type-checks the parsed rows and moves them into the
  // transaction, leaving `stmt.rows` empty.
  Transaction BuildInsert(Statement& stmt, size_t* rows) const;
  Transaction BuildDelete(const Statement& stmt, size_t* rows) const;
  Transaction BuildUpdate(const Statement& stmt, size_t* rows) const;
  Transaction BuildDml(Statement& stmt, size_t* rows) const;
  void EnsureTableDroppable(const std::string& name) const;
  // DDL statements run in commit order: validate (and evaluate a new
  // view), then log the change here — with storage attached it returns
  // once the record is durable — and only then install and publish.  A
  // failed append thus rejects the statement with nothing changed.
  void LogCatalog(const storage::CatalogChange& change);
  Result ExecuteCreateTable(const Statement& stmt);
  Result ExecuteDropTable(const Statement& stmt);
  Result ExecuteDropView(const Statement& stmt);
  Result ExecuteCreateAssertion(const Statement& stmt);
  Result ExecuteDropAssertion(const Statement& stmt);

  // Builds a ViewDefinition (canonical attribute naming, resolved
  // condition and projection) from a SELECT body over base tables.
  ViewDefinition BuildDefinition(const std::string& name,
                                 const SelectQuery& query) const;

  // Session registry (guarded by `sessions_mu_`, which nests inside the
  // engine lock and outside the sessions' own stats mutexes).
  void UnregisterSession(Session* session);
  /// Folds closed-session totals plus a sample of every live session into
  /// `views_.metrics().sessions()`.  Caller holds the exclusive lock.
  void SyncSessionMetrics();
  /// Copies the admission controller's counters (and the deadline-abort
  /// counter) into `views_.metrics().admission()`.  Caller holds the
  /// exclusive lock.
  void SyncAdmissionMetrics();

  Database db_;
  ViewManager views_;
  IntegrityGuard guard_;
  Storage* storage_ = nullptr;  // not owned
  // Persistent so `SCRUB VIEW … PARTITION` cursors survive across
  // statements (each call verifies one slice); whole-view scrubs share it.
  // Guarded by the exclusive engine lock like every other mutation.
  Scrubber scrubber_{&views_, &views_.metrics().scrub()};

  // The engine lock: shared by read-only statements, exclusive for
  // anything that mutates shared state.  View SELECTs bypass it entirely.
  mutable std::shared_mutex mu_;

  // Admission control (null = off).  Set once at startup by
  // `SetAdmissionControl`; the controller itself is internally atomic, so
  // the gate runs before any engine lock is taken.
  std::unique_ptr<util::AdmissionController> admission_;
  // Statements unwound by an expired deadline (any lane, any phase).
  std::atomic<int64_t> deadline_exceeded_{0};

  mutable std::mutex sessions_mu_;
  std::set<Session*> sessions_;   // live sessions
  uint64_t next_session_id_ = 1;
  int64_t sessions_opened_ = 0;
  int64_t sessions_closed_ = 0;
  obs::SessionStats closed_session_totals_;
};

/// The embedded façade most callers use: an `EngineCore` plus one default
/// `Session`, preserving the historical single-object API (`Execute` on
/// the engine itself).  Additional concurrent clients call
/// `CreateSession`; the façade's own statement methods are *not*
/// thread-safe with each other (they share the default session), but they
/// are safe against statements on other sessions.
class Engine {
 public:
  /// Back-compat alias: this type was nested here before it was promoted
  /// to `sql::Result` (sql/result.h); `Engine::Result` keeps the old
  /// spelling working.  (The matching `Engine::Status` alias is retired —
  /// write `mview::Status` from util/status.h.)
  using Result = ::mview::sql::Result;

  Engine();

  /// A durable engine; see `EngineCore::EngineCore(Storage*)`.
  explicit Engine(Storage* storage);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes one statement (a trailing ';' is allowed) on the default
  /// session.  Throws `mview::Error` on syntax or semantic errors; failed
  /// assertion checks return a `kMessage` result describing the rejection
  /// instead.
  Result Execute(const std::string& sql);

  /// Non-throwing sibling of `Execute`: on success fills `*result` and
  /// returns an ok status; on failure leaves `*result` untouched and
  /// returns the classified error.  `result` may be null when the caller
  /// only cares about success.
  Status TryExecute(const std::string& sql, Result* result);

  /// Executes a ';'-separated script, stopping at the first error; the
  /// thrown `Error` names the 1-based index of the failing statement.
  std::vector<Result> ExecuteScript(const std::string& sql);

  /// Non-throwing sibling of `ExecuteScript`: appends one `Result` per
  /// successfully executed statement to `*results` (may be null), and on
  /// execution failure reports the 0-based index of the failing statement
  /// via `*failed_statement` (may be null; untouched on parse errors,
  /// which reject the whole script before anything runs).
  Status TryExecuteScript(const std::string& sql,
                          std::vector<Result>* results,
                          size_t* failed_statement = nullptr);

  /// Opens an additional, independent session over this engine's core.
  /// The session must be destroyed before the engine.
  std::unique_ptr<Session> CreateSession();

  /// The shared core, for callers (the server) that manage their own
  /// sessions.
  EngineCore& core() { return core_; }
  const EngineCore& core() const { return core_; }

  /// The latest published view epoch; see `EngineCore::Snapshot`.
  std::shared_ptr<const EpochSnapshot> Snapshot() const {
    return core_.Snapshot();
  }

  /// See `EngineCore::DumpTrace` / `ExportMetricsText`.
  void DumpTrace(const std::string& path) const { core_.DumpTrace(path); }
  std::string ExportMetricsText() { return core_.ExportMetricsText(); }

  /// Const inspection; see `EngineCore::database()` for the contract.
  /// (These were mutable before sessions existed — mutating callers must
  /// now say `mutable_…` and accept the single-threaded contract.)
  const Database& database() const { return core_.database(); }
  const ViewManager& views() const { return core_.views(); }
  const IntegrityGuard& guard() const { return core_.guard(); }

  /// TEST-ONLY mutable escape hatches; see `EngineCore::mutable_database`.
  /// Production callers configure through SQL or the core's dedicated
  /// setters (`SetMaintenanceParallelism`).
  Database& mutable_database() { return core_.mutable_database(); }
  ViewManager& mutable_views() { return core_.mutable_views(); }
  IntegrityGuard& mutable_guard() { return core_.mutable_guard(); }

  /// The attached storage, or null for an in-memory engine.
  Storage* storage() { return core_.storage(); }

  /// True while the *default* session is inside BEGIN … COMMIT/ROLLBACK.
  bool in_transaction() const;

 private:
  EngineCore core_;
  std::unique_ptr<Session> session_;  // the default session
};

}  // namespace mview::sql

#endif  // MVIEW_SQL_ENGINE_H_
