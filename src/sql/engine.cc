#include "sql/engine.h"

#include <algorithm>
#include <sstream>

#include <fstream>

#include "ivm/scrubber.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "ra/planner.h"
#include "relational/csv.h"
#include "sql/session.h"
#include "storage/storage.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace mview::sql {
namespace {

MaintenanceMode ToMode(ViewMode mode) {
  switch (mode) {
    case ViewMode::kImmediate:
      return MaintenanceMode::kImmediate;
    case ViewMode::kDeferred:
      return MaintenanceMode::kDeferred;
    case ViewMode::kFullReevaluation:
      return MaintenanceMode::kFullReevaluation;
  }
  return MaintenanceMode::kImmediate;
}

const char* ModeName(MaintenanceMode mode) {
  switch (mode) {
    case MaintenanceMode::kImmediate:
      return "immediate";
    case MaintenanceMode::kDeferred:
      return "deferred";
    case MaintenanceMode::kFullReevaluation:
      return "recomputed";
  }
  return "?";
}

// Resolves SELECT-body column references to the canonical attribute names
// used in the view/query's combined scheme: a column keeps its plain name
// when it is unique across the FROM list, and is qualified as
// `<alias>.<col>` otherwise.
class NameResolver {
 public:
  NameResolver(const Database& db, const std::vector<TableRef>& from) {
    MVIEW_CHECK(!from.empty(), "FROM list cannot be empty");
    for (const auto& ref : from) {
      const Relation& rel = db.Get(ref.table);
      MVIEW_CHECK(alias_index_.emplace(ref.alias, tables_.size()).second,
                  "duplicate table alias: ", ref.alias);
      tables_.push_back(&ref);
      schemas_.push_back(&rel.schema());
      for (const auto& attr : rel.schema().attributes()) {
        ++plain_count_[attr.name];
      }
    }
  }

  size_t num_tables() const { return tables_.size(); }

  // The canonical name of table `t`'s attribute `a`.
  std::string Canonical(size_t t, size_t a) const {
    const std::string& plain = schemas_[t]->attribute(a).name;
    if (plain_count_.at(plain) == 1) return plain;
    return tables_[t]->alias + "." + plain;
  }

  // Resolves a possibly-qualified reference; throws on unknown/ambiguous.
  std::string Resolve(const std::string& name) const {
    size_t dot = name.find('.');
    if (dot != std::string::npos) {
      std::string alias = name.substr(0, dot);
      std::string col = name.substr(dot + 1);
      auto it = alias_index_.find(alias);
      MVIEW_CHECK(it != alias_index_.end(), "unknown table alias: ", alias);
      auto idx = schemas_[it->second]->IndexOf(col);
      MVIEW_CHECK(idx.has_value(), "table ", alias, " has no column ", col);
      return Canonical(it->second, *idx);
    }
    auto count_it = plain_count_.find(name);
    MVIEW_CHECK(count_it != plain_count_.end(), "unknown column: ", name);
    MVIEW_CHECK(count_it->second == 1, "ambiguous column: ", name,
                " (qualify it as alias.column)");
    return name;
  }

  // Rewrites every variable of `condition` to its canonical name.
  Condition ResolveCondition(const Condition& condition) const {
    std::vector<Conjunction> disjuncts;
    for (const auto& d : condition.disjuncts()) {
      Conjunction out;
      for (const auto& atom : d.atoms) {
        Atom resolved = atom;
        resolved.lhs = Resolve(atom.lhs);
        if (resolved.rhs_var.has_value()) {
          resolved.rhs_var = Resolve(*atom.rhs_var);
        }
        out.atoms.push_back(std::move(resolved));
      }
      disjuncts.push_back(std::move(out));
    }
    return Condition(std::move(disjuncts));
  }

  // All canonical names in FROM order (for SELECT *).
  std::vector<std::string> AllColumns() const {
    std::vector<std::string> out;
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (size_t a = 0; a < schemas_[t]->size(); ++a) {
        out.push_back(Canonical(t, a));
      }
    }
    return out;
  }

  // BaseRefs with canonical aliases for a ViewDefinition.
  std::vector<BaseRef> MakeBaseRefs() const {
    std::vector<BaseRef> bases;
    for (size_t t = 0; t < tables_.size(); ++t) {
      BaseRef ref{tables_[t]->table, {}};
      for (size_t a = 0; a < schemas_[t]->size(); ++a) {
        ref.aliases.push_back(Canonical(t, a));
      }
      bases.push_back(std::move(ref));
    }
    return bases;
  }

 private:
  std::vector<const TableRef*> tables_;
  std::vector<const Schema*> schemas_;
  std::map<std::string, size_t> alias_index_;
  std::map<std::string, int> plain_count_;
};

Result RowsResult(Schema schema, std::vector<std::pair<Tuple, int64_t>> rows) {
  Result result;
  result.kind = Result::Kind::kRows;
  result.schema = std::move(schema);
  result.rows = std::move(rows);
  return result;
}

Result Message(std::string text) {
  Result result;
  result.kind = Result::Kind::kMessage;
  result.message = std::move(text);
  return result;
}

Result JsonMessage(std::string json) {
  Result result = Message(std::move(json));
  result.json_message = true;
  return result;
}

// SELECT-with-WHERE-and-projection over one materialization — the body
// shared by the locked view read and the lock-free snapshot read, so both
// produce byte-identical results by construction.
Result SelectFromMaterialization(const CountedRelation& view,
                                 const SelectQuery& query) {
  const Schema& schema = view.schema();
  Condition where = query.where;
  where.Validate(schema);
  std::vector<std::string> projection = query.columns;
  if (query.star) {
    for (const auto& attr : schema.attributes()) {
      projection.push_back(attr.name);
    }
  }
  std::vector<size_t> indices;
  Schema out_schema = schema.Project(projection, &indices);
  CountedRelation out(out_schema);
  view.Scan([&](const Tuple& t, int64_t c) {
    if (where.Evaluate(schema, t)) out.Add(t.Project(indices), c);
  });
  return RowsResult(out_schema, out.ToSortedVector());
}

}  // namespace

EngineCore::EngineCore() : views_(&db_), guard_(&db_) {
  // Label the session thread in trace exports; idempotent when several
  // engines share a thread.
  obs::Tracer::Global().SetCurrentThreadName("engine");
}

EngineCore::EngineCore(Storage* storage) : EngineCore() {
  if (storage != nullptr) {
    storage->Attach(*this);
    storage_ = storage;
  }
}

EngineCore::~EngineCore() {
  if (storage_ == nullptr) return;
  try {
    storage_->Close();
  } catch (const Error&) {
    // Destructors must not throw; the log already holds every commit, so
    // the next Open recovers without the final checkpoint.
  }
}

std::unique_ptr<Session> EngineCore::CreateSession() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::unique_ptr<Session> session(new Session(this, next_session_id_++));
  sessions_.insert(session.get());
  ++sessions_opened_;
  return session;
}

void EngineCore::UnregisterSession(Session* session) {
  obs::SessionStats stats = session->StatsSnapshot();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(session);
  ++sessions_closed_;
  closed_session_totals_ += stats;
}

void EngineCore::SyncSessionMetrics() {
  SessionMetrics& sm = views_.metrics().sessions();
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sm.opened = sessions_opened_;
  sm.closed = sessions_closed_;
  sm.active = static_cast<int64_t>(sessions_.size());
  obs::SessionStats totals = closed_session_totals_;
  for (Session* session : sessions_) totals += session->StatsSnapshot();
  sm.totals = std::move(totals);
}

EngineCore::LockClass EngineCore::Classify(const Statement& stmt,
                                           bool in_transaction) {
  using Kind = Statement::Kind;
  switch (stmt.kind) {
    case Kind::kBegin:
    case Kind::kRollback:
      // Session-local transaction state only; no shared state is touched.
      return LockClass::kNone;
    case Kind::kSelect:
    case Kind::kShowTables:
    case Kind::kShowViews:
    case Kind::kShowWal:
    case Kind::kShowAssertions:
    case Kind::kShowPartitions:
    case Kind::kShowTrace:
    case Kind::kExplainMaintenance:
    case Kind::kCopyTo:
      // Read-only against the catalog, base relations, and view state.
      return LockClass::kShared;
    case Kind::kInsert:
    case Kind::kDelete:
    case Kind::kUpdate:
    case Kind::kCopyFrom:
      // Inside BEGIN the statement only validates against the catalog and
      // stages into the session's pending transaction; the commit itself
      // happens at COMMIT under the exclusive lock.  Outside BEGIN it
      // auto-commits.
      return in_transaction ? LockClass::kShared : LockClass::kExclusive;
    default:
      // DDL, COMMIT, REFRESH/REPAIR/SCRUB, CHECKPOINT, TRACE, SHOW STATS
      // (which syncs metrics into the registry) — all mutate shared state.
      return LockClass::kExclusive;
  }
}

Result EngineCore::ExecuteParsed(Statement stmt,
                                 std::optional<Transaction>* pending,
                                 bool* served_from_snapshot,
                                 const util::Cancellation* cancel) {
  *served_from_snapshot = false;
  // The non-blocking read path: a SELECT over a single materialized view
  // is answered from the published epoch snapshot without touching the
  // engine lock — concurrent commits install later epochs, they never
  // mutate this one.  The snapshot (not `views_`) is the authority on
  // which views exist here, so the check itself is race-free.  The path
  // deliberately bypasses both the admission gate and the deadline poll:
  // it is wait-free and cheaper than either check, which is exactly why
  // view reads keep serving under write overload.
  if (stmt.kind == Statement::Kind::kSelect && stmt.query.from.size() == 1) {
    std::shared_ptr<const EpochSnapshot> snap = views_.Snapshot();
    if (snap->Find(stmt.query.from[0].table) != nullptr) {
      *served_from_snapshot = true;
      return ExecuteSelectFromSnapshot(*snap, stmt.query);
    }
  }
  const LockClass lock_class = Classify(stmt, pending->has_value());
  // The admission gate: statements that will take the engine lock pass
  // through their lane first, so a saturated lane sheds *before* queuing
  // on the lock.  BEGIN/ROLLBACK (kNone) touch only session state and are
  // exempt.  A shed is one fetch_add + compare — well under a millisecond
  // — and carries a retry-after hint from the lane's service-time EWMA.
  util::AdmissionController* gate =
      lock_class == LockClass::kNone ? nullptr : admission_.get();
  const util::AdmissionController::Lane lane =
      lock_class == LockClass::kExclusive
          ? util::AdmissionController::Lane::kWrite
          : util::AdmissionController::Lane::kRead;
  if (gate != nullptr && !gate->TryEnter(lane)) {
    const int64_t retry_ms = gate->RetryAfterMillis(lane);
    const bool write = lane == util::AdmissionController::Lane::kWrite;
    throw OverloadedError(std::string(write ? "write" : "read") +
                              " lane saturated (" +
                              std::to_string(write
                                                 ? admission_->options()
                                                       .write_slots
                                                 : admission_->options()
                                                       .read_slots) +
                              " in flight); retry after " +
                              std::to_string(retry_ms) + " ms",
                          retry_ms);
  }
  Stopwatch lane_timer;
  struct LaneExit {
    util::AdmissionController* gate;
    util::AdmissionController::Lane lane;
    Stopwatch* timer;
    ~LaneExit() {
      if (gate != nullptr) gate->Exit(lane, timer->ElapsedNanos());
    }
  } lane_exit{gate, lane, &lane_timer};
  try {
    // Polled before the lock so an already-expired deadline never queues
    // behind a writer; downstream poll points catch mid-statement expiry.
    if (cancel != nullptr) cancel->Check();
    switch (lock_class) {
      case LockClass::kNone:
        return ExecuteStatement(stmt, pending, cancel);
      case LockClass::kShared: {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return ExecuteStatement(stmt, pending, cancel);
      }
      case LockClass::kExclusive: {
        std::unique_lock<std::shared_mutex> lock(mu_);
        return ExecuteStatement(stmt, pending, cancel);
      }
    }
    internal::ThrowError("corrupt lock class");
  } catch (const DeadlineExceededError&) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

Result EngineCore::ExecuteSelectFromSnapshot(const EpochSnapshot& snap,
                                             const SelectQuery& query) {
  // `Read` applies the same health contract as the locked path: a
  // quarantined view throws `ViewQuarantinedError` with the same message.
  return SelectFromMaterialization(snap.Read(query.from[0].table), query);
}

ViewDefinition EngineCore::BuildDefinition(const std::string& name,
                                           const SelectQuery& query) const {
  for (const auto& ref : query.from) {
    MVIEW_CHECK(!views_.HasView(ref.table),
                "views over views are not supported: ", ref.table);
    MVIEW_CHECK(db_.Exists(ref.table), "unknown table: ", ref.table);
  }
  NameResolver resolver(db_, query.from);
  std::vector<std::string> projection;
  if (query.star) {
    projection = resolver.AllColumns();
  } else {
    for (const auto& col : query.columns) {
      projection.push_back(resolver.Resolve(col));
    }
  }
  return ViewDefinition(name, resolver.MakeBaseRefs(),
                        resolver.ResolveCondition(query.where), projection);
}

Result EngineCore::ExecuteSelect(const SelectQuery& query) {
  // SELECT over a single registered view reads the materialization.  (The
  // lock-free snapshot path normally answers these first; this branch
  // remains for in-process callers that reach the dispatcher directly.)
  if (query.from.size() == 1 && views_.HasView(query.from[0].table)) {
    return SelectFromMaterialization(views_.View(query.from[0].table), query);
  }
  // Otherwise evaluate an SPJ query over base tables.
  ViewDefinition def = BuildDefinition("__query", query);
  def.Validate(db_);
  CountedRelation out = EvaluateDefinition(def, db_);
  return RowsResult(out.schema(), out.ToSortedVector());
}

Result EngineCore::ExecuteCreateTable(const Statement& stmt) {
  storage::CatalogChange change;
  change.kind = storage::CatalogChange::Kind::kCreateTable;
  change.name = stmt.name;
  change.schema = Schema(stmt.columns);  // rejects duplicate columns
  MVIEW_CHECK(!db_.Exists(stmt.name), "relation already exists: ", stmt.name);
  LogCatalog(change);
  views_.CreateTable(stmt.name, std::move(change.schema));
  return Message("table " + stmt.name + " created");
}

Result EngineCore::ExecuteDropTable(const Statement& stmt) {
  EnsureTableDroppable(stmt.name);
  MVIEW_CHECK(db_.Exists(stmt.name), "unknown relation: ", stmt.name);
  storage::CatalogChange change;
  change.kind = storage::CatalogChange::Kind::kDropTable;
  change.name = stmt.name;
  LogCatalog(change);
  views_.DropTable(stmt.name);
  return Message("table " + stmt.name + " dropped");
}

Result EngineCore::ExecuteCreateView(const Statement& stmt) {
  MaintenanceOptions options;
  if (stmt.partitions > 0) options.partition_count = stmt.partitions;
  // Evaluated before the log append, installed (and published to snapshot
  // readers) only after it: a failed append leaves no trace of the view.
  ViewManager::PreparedView prepared = views_.PrepareView(
      BuildDefinition(stmt.name, stmt.query), ToMode(stmt.view_mode), options);
  storage::CatalogChange change;
  change.kind = storage::CatalogChange::Kind::kCreateView;
  change.name = stmt.name;
  change.view.name = stmt.name;
  change.view.mode = prepared.mode;
  change.view.options = prepared.maintainer->options();
  change.view.definition = prepared.maintainer->definition();
  LogCatalog(change);
  views_.InstallView(std::move(prepared));

  ViewInfo info = views_.Describe(stmt.name);
  std::string detail = std::string(ModeName(info.mode)) + ", " +
                       std::to_string(info.rows) + " rows";
  const uint32_t partitions = views_.Maintainer(stmt.name).partition_count();
  if (partitions > 1) {
    detail += ", " + std::to_string(partitions) + " partitions";
  }
  return Message("view " + stmt.name + " created (" + detail + ")");
}

Result EngineCore::ExecuteDropView(const Statement& stmt) {
  MVIEW_CHECK(views_.HasView(stmt.name), "unknown view: ", stmt.name);
  storage::CatalogChange change;
  change.kind = storage::CatalogChange::Kind::kDropView;
  change.name = stmt.name;
  LogCatalog(change);
  views_.DropView(stmt.name);
  return Message("view " + stmt.name + " dropped");
}

Result EngineCore::ExecuteCreateAssertion(const Statement& stmt) {
  std::vector<BaseRef> bases;
  for (const auto& t : stmt.tables) bases.push_back(BaseRef{t, {}});
  storage::CatalogChange change;
  change.kind = storage::CatalogChange::Kind::kCreateAssertion;
  change.name = stmt.name;
  change.assertion = ViewDefinition(stmt.name, bases, stmt.where);
  // The guard validates and evaluates as it registers.  Unlike a view, an
  // assertion is visible only under the engine lock, which this statement
  // holds exclusively — so registering first and withdrawing it when the
  // append fails is unobservable.
  guard_.AddAssertion(change.assertion);
  try {
    LogCatalog(change);
  } catch (...) {
    guard_.DropAssertion(stmt.name);
    throw;
  }
  for (const auto& v : guard_.CurrentViolations()) {
    if (v.assertion == stmt.name) {
      return Message("assertion " + stmt.name + " created (WARNING: " +
                     std::to_string(v.witnesses.size()) +
                     " pre-existing violation(s))");
    }
  }
  return Message("assertion " + stmt.name + " created");
}

Result EngineCore::ExecuteDropAssertion(const Statement& stmt) {
  guard_.Definition(stmt.name);  // throws for an unknown assertion
  storage::CatalogChange change;
  change.kind = storage::CatalogChange::Kind::kDropAssertion;
  change.name = stmt.name;
  LogCatalog(change);
  guard_.DropAssertion(stmt.name);
  return Message("assertion " + stmt.name + " dropped");
}

Transaction EngineCore::BuildInsert(Statement& stmt, size_t* rows) const {
  const Schema& schema = db_.Get(stmt.name).schema();
  for (const Tuple& row : stmt.rows) {
    MVIEW_CHECK(row.size() == schema.size(), "INSERT into ", stmt.name,
                " expects ", schema.size(), " values, got ", row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      MVIEW_CHECK(row.values()[i].type() == schema.attribute(i).type,
                  "INSERT into ", stmt.name, ": column ",
                  schema.attribute(i).name, " expects ",
                  ValueTypeName(schema.attribute(i).type));
    }
  }
  *rows = stmt.rows.size();
  Transaction txn;
  txn.InsertAll(stmt.name, std::move(stmt.rows));
  return txn;
}

Transaction EngineCore::BuildDelete(const Statement& stmt,
                                    size_t* rows) const {
  const Relation& rel = db_.Get(stmt.name);
  stmt.where.Validate(rel.schema());
  std::vector<Tuple> matches;
  rel.Scan([&](const Tuple& t) {
    if (stmt.where.Evaluate(rel.schema(), t)) matches.push_back(t);
  });
  *rows = matches.size();
  Transaction txn;
  txn.DeleteAll(stmt.name, std::move(matches));
  return txn;
}

Transaction EngineCore::BuildUpdate(const Statement& stmt,
                                    size_t* rows) const {
  const Relation& rel = db_.Get(stmt.name);
  const Schema& schema = rel.schema();
  stmt.where.Validate(schema);
  std::vector<std::pair<size_t, Value>> sets;
  for (const auto& [col, value] : stmt.assignments) {
    size_t idx = schema.MustIndexOf(col);
    MVIEW_CHECK(value.type() == schema.attribute(idx).type, "UPDATE ",
                stmt.name, ": column ", col, " expects ",
                ValueTypeName(schema.attribute(idx).type));
    sets.emplace_back(idx, value);
  }
  Transaction txn;
  size_t changed = 0;
  rel.Scan([&](const Tuple& t) {
    if (!stmt.where.Evaluate(schema, t)) return;
    Tuple updated = t;
    std::span<Value> values = updated.mutable_values();
    for (const auto& [idx, value] : sets) values[idx] = value;
    txn.Update(stmt.name, t, std::move(updated));
    ++changed;
  });
  *rows = changed;
  return txn;
}

Transaction EngineCore::BuildDml(Statement& stmt, size_t* rows) const {
  switch (stmt.kind) {
    case Statement::Kind::kInsert:
      return BuildInsert(stmt, rows);
    case Statement::Kind::kDelete:
      return BuildDelete(stmt, rows);
    case Statement::Kind::kUpdate:
      return BuildUpdate(stmt, rows);
    default:
      internal::ThrowError("not a DML statement");
  }
}

Result EngineCore::ExecuteInsert(Statement& stmt,
                                 std::optional<Transaction>* pending,
                                 const util::Cancellation* cancel) {
  size_t n = 0;
  Transaction txn = BuildInsert(stmt, &n);
  if (pending->has_value()) {
    (*pending)->Append(std::move(txn));
    return Message(std::to_string(n) + " row(s) staged");
  }
  Result result = CommitTransaction(std::move(txn), cancel);
  if (result.kind == Result::Kind::kMessage && result.message.empty()) {
    result.message = std::to_string(n) + " row(s) inserted";
  }
  return result;
}

Result EngineCore::ExecuteDelete(const Statement& stmt,
                                 std::optional<Transaction>* pending,
                                 const util::Cancellation* cancel) {
  size_t n = 0;
  Transaction txn = BuildDelete(stmt, &n);
  if (pending->has_value()) {
    (*pending)->Append(std::move(txn));
    return Message(std::to_string(n) + " row(s) staged");
  }
  Result result = CommitTransaction(std::move(txn), cancel);
  if (result.kind == Result::Kind::kMessage && result.message.empty()) {
    result.message = std::to_string(n) + " row(s) deleted";
  }
  return result;
}

Result EngineCore::ExecuteUpdate(const Statement& stmt,
                                 std::optional<Transaction>* pending,
                                 const util::Cancellation* cancel) {
  size_t n = 0;
  Transaction txn = BuildUpdate(stmt, &n);
  if (pending->has_value()) {
    (*pending)->Append(std::move(txn));
    return Message(std::to_string(n) + " row(s) staged");
  }
  Result result = CommitTransaction(std::move(txn), cancel);
  if (result.kind == Result::Kind::kMessage && result.message.empty()) {
    result.message = std::to_string(n) + " row(s) updated";
  }
  return result;
}

Result EngineCore::ExecuteExplainMaintenance(Statement& stmt) {
  Statement& dml = stmt.inner.front();
  size_t n = 0;
  Transaction txn = BuildDml(dml, &n);
  // Normalize is const against the database: the would-be net effect is
  // computed and audited, nothing is applied or logged.
  TransactionEffect effect = txn.Normalize(db_);
  std::ostringstream os;
  os << "EXPLAIN MAINTENANCE: " << n << " row(s) matched, net effect "
     << effect.TotalTuples() << " tuple(s)\n";
  if (effect.Empty()) {
    os << "net effect is empty; no view would be maintained\n";
    return Message(os.str());
  }
  size_t audited = 0;
  for (const auto& name : views_.ViewNames()) {
    const DifferentialMaintainer& maintainer = views_.Maintainer(name);
    const ViewDefinition& def = maintainer.definition();
    for (size_t i = 0; i < def.bases().size(); ++i) {
      const RelationEffect* rel = effect.Find(def.bases()[i].relation);
      if (rel == nullptr) continue;
      auto audit = [&](const Relation& side, const char* tag) {
        side.Scan([&](const Tuple& t) {
          obs::IrrelevanceExplanation ex = maintainer.filter().Explain(i, t);
          os << "\nview " << name << ", base #" << i << " ("
             << def.bases()[i].relation << "), " << tag << " "
             << t.ToString() << ":\n"
             << ex.ToString();
          ++audited;
        });
      };
      audit(rel->inserts, "insert");
      audit(rel->deletes, "delete");
    }
  }
  if (audited == 0) {
    os << "no registered view references the touched relation(s)\n";
  }
  return Message(os.str());
}

Result EngineCore::CommitTransaction(Transaction txn,
                                     const util::Cancellation* cancel) {
  static const uint32_t kCommitName =
      obs::Tracer::Global().InternName("commit");
  static const uint32_t kNormalizeName =
      obs::Tracer::Global().InternName("normalize");
  static const uint32_t kPrecheckName =
      obs::Tracer::Global().InternName("precheck");
  obs::TraceSpan commit_span(kCommitName);
  if (cancel != nullptr) cancel->Check();
  // Normalized here (not via ViewManager::Apply) because the integrity
  // precheck needs the effect before the views see it; credit the phase-1
  // timer so SQL commits report normalize_nanos like direct Apply calls.
  Stopwatch timer;
  obs::TraceSpan normalize_span(kNormalizeName);
  TransactionEffect effect = txn.Normalize(db_);
  normalize_span.End();
  views_.metrics().commit().normalize_nanos += timer.ElapsedNanos();
  if (effect.Empty()) return Message("");
  obs::TraceSpan precheck_span(kPrecheckName);
  IntegrityGuard::Precheck precheck = guard_.PrecheckEffect(effect);
  precheck_span.End();
  if (!precheck.ok) {
    std::ostringstream os;
    os << "rejected: transaction violates";
    for (const auto& v : precheck.violations) {
      os << " " << v.assertion << " (" << v.witnesses.size()
         << " witness(es))";
    }
    return Message(os.str());
  }
  // Phase split for cancellation: `PrepareCommit` runs the expensive delta
  // computation with `cancel` polled at every evaluation poll point, and
  // mutates nothing observable — an expired deadline unwinds here with the
  // engine exactly as it was.  After the final poll below the commit is
  // past its point of no return: the WAL append makes it durable (the
  // write-ahead rule — durable before any in-memory state changes, so an
  // I/O failure still aborts cleanly), and `CommitPrepared` applies the
  // precomputed deltas uncancellably.
  ViewManager::PreparedCommit prepared = views_.PrepareCommit(effect, cancel);
  if (cancel != nullptr) cancel->Check();
  if (storage_ != nullptr) storage_->LogCommit(effect);
  views_.CommitPrepared(std::move(prepared), effect);
  guard_.CommitPrecheck(std::move(precheck));
  return Message("");
}

void EngineCore::LogCatalog(const storage::CatalogChange& change) {
  if (storage_ != nullptr) storage_->LogCatalog(change);
}

void EngineCore::SetMaintenanceParallelism(size_t workers) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  views_.SetParallelism(workers);
}

void EngineCore::SetAdmissionControl(
    util::AdmissionController::Options options) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (options.read_slots == 0 && options.write_slots == 0) {
    admission_.reset();
    return;
  }
  admission_ = std::make_unique<util::AdmissionController>(options);
}

void EngineCore::SyncAdmissionMetrics() {
  AdmissionMetrics& am = views_.metrics().admission();
  am.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  if (admission_ == nullptr) {
    am.read_slots = 0;
    am.write_slots = 0;
    return;
  }
  const util::AdmissionController::Stats stats = admission_->snapshot();
  am.read_slots = admission_->options().read_slots;
  am.write_slots = admission_->options().write_slots;
  am.read_admitted = stats.read_admitted;
  am.read_shed = stats.read_shed;
  am.read_inflight = stats.read_inflight;
  am.write_admitted = stats.write_admitted;
  am.write_shed = stats.write_shed;
  am.write_inflight = stats.write_inflight;
  am.retry_after_ms = stats.retry_after_ms;
}

void EngineCore::DumpTrace(const std::string& path) const {
  std::ofstream out(path);
  MVIEW_CHECK(out.is_open(), "cannot open for writing: ", path);
  out << obs::Tracer::Global().ExportChromeJson();
  MVIEW_CHECK(out.good(), "error writing trace to ", path);
}

std::string EngineCore::ExportMetricsText() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (storage_ != nullptr) storage_->SyncWalMetrics();
  views_.SyncPoolMetrics();
  views_.SyncRowStoreMetrics();
  SyncSessionMetrics();
  SyncAdmissionMetrics();
  return obs::ExportPrometheus(views_.metrics());
}

void EngineCore::EnsureTableDroppable(const std::string& name) const {
  for (const auto& view : views_.ViewNames()) {
    const ViewInfo info = views_.Describe(view);
    for (const auto& base : info.definition.bases()) {
      MVIEW_CHECK(base.relation != name, "cannot drop ", name,
                  ": referenced by view ", view);
    }
  }
  for (const auto& assertion : guard_.AssertionNames()) {
    for (const auto& base : guard_.Definition(assertion).bases()) {
      MVIEW_CHECK(base.relation != name, "cannot drop ", name,
                  ": referenced by assertion ", assertion);
    }
  }
}

Result EngineCore::ExecuteStatement(Statement& stmt,
                                    std::optional<Transaction>* pending,
                                    const util::Cancellation* cancel) {
  using Kind = Statement::Kind;
  switch (stmt.kind) {
    case Kind::kCreateTable:
      return ExecuteCreateTable(stmt);
    case Kind::kDropTable:
      return ExecuteDropTable(stmt);
    case Kind::kCreateView:
      return ExecuteCreateView(stmt);
    case Kind::kDropView:
      return ExecuteDropView(stmt);
    case Kind::kCreateAssertion:
      return ExecuteCreateAssertion(stmt);
    case Kind::kDropAssertion:
      return ExecuteDropAssertion(stmt);
    case Kind::kInsert:
      return ExecuteInsert(stmt, pending, cancel);
    case Kind::kDelete:
      return ExecuteDelete(stmt, pending, cancel);
    case Kind::kUpdate:
      return ExecuteUpdate(stmt, pending, cancel);
    case Kind::kSelect:
      return ExecuteSelect(stmt.query);
    case Kind::kRefresh: {
      // Logged before it runs, like a commit: once it returns the refresh
      // is durable, and a failed append leaves the view untouched.  A
      // refresh with nothing to do (no backlog — only deferred views have
      // one — or a quarantined view) is not logged.
      const ViewInfo info = views_.Describe(stmt.name);
      if (storage_ != nullptr && info.stale && !info.quarantined) {
        storage_->LogRefresh(stmt.name);
      }
      views_.Refresh(stmt.name);
      return Message("view " + stmt.name + " refreshed (" +
                     std::to_string(views_.View(stmt.name).size()) +
                     " rows)");
    }
    case Kind::kRepair: {
      // A repair that consumes a deferred backlog is logged first, as
      // REFRESH is.  A quarantined view's repair is logged by the health
      // listener, and a healthy view without a backlog is recomputed to
      // exactly the rows replay rebuilds, so neither needs a record here.
      const ViewInfo info = views_.Describe(stmt.name);
      const bool was_quarantined = info.quarantined;
      if (storage_ != nullptr && info.stale && !was_quarantined) {
        storage_->LogRepair(stmt.name);
      }
      views_.Repair(stmt.name);
      return Message("view " + stmt.name +
                     (was_quarantined ? " repaired (" : " recomputed (") +
                     std::to_string(views_.View(stmt.name).size()) +
                     " rows)");
    }
    case Kind::kScrub: {
      ScrubOptions options;
      options.auto_repair = stmt.repair;
      ScrubReport report;
      if (stmt.name.empty()) {
        report = scrubber_.ScrubAll(options);
      } else if (stmt.partition) {
        report.views.push_back(
            scrubber_.ScrubViewPartition(stmt.name, options));
      } else {
        report.views.push_back(scrubber_.ScrubView(stmt.name, options));
      }
      Schema schema({{"view", ValueType::kString},
                     {"status", ValueType::kString},
                     {"missing", ValueType::kInt64},
                     {"extra", ValueType::kInt64},
                     {"action", ValueType::kString}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      for (const auto& r : report.views) {
        std::string status = !r.complete
                                 ? "partial " + std::to_string(r.slice) + "/" +
                                       std::to_string(r.slices)
                             : r.quarantined ? "quarantined"
                             : r.clean       ? "clean"
                                             : "drift";
        std::string action;
        if (r.repaired) {
          action = "repaired";
        } else if (!r.repair_error.empty()) {
          action = "repair failed: " + r.repair_error;
        }
        rows.emplace_back(Tuple({Value(r.view), Value(status),
                                 Value(r.missing), Value(r.extra),
                                 Value(action)}),
                          1);
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kShowTables: {
      Schema schema({{"table", ValueType::kString}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      for (const auto& name : db_.Names()) {
        rows.emplace_back(Tuple({Value(name)}), 1);
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kShowViews: {
      Schema schema({{"view", ValueType::kString},
                     {"mode", ValueType::kString},
                     {"rows", ValueType::kInt64},
                     {"stale", ValueType::kString},
                     {"health", ValueType::kString}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      for (const auto& name : views_.ViewNames()) {
        ViewInfo info = views_.Describe(name);
        std::string health = "ok";
        if (info.quarantined) {
          health = std::string("quarantined") +
                   (info.quarantine_sticky ? " (sticky): " : ": ") +
                   info.quarantine_reason;
        }
        rows.emplace_back(
            Tuple({Value(name), Value(ModeName(info.mode)),
                   Value(static_cast<int64_t>(info.rows)),
                   Value(info.stale ? "yes" : "no"), Value(health)}),
            1);
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kShowPartitions: {
      Schema schema({{"view", ValueType::kString},
                     {"partitions", ValueType::kInt64},
                     {"mode", ValueType::kString},
                     {"key", ValueType::kString},
                     {"partition_jobs", ValueType::kInt64},
                     {"partitions_pruned", ValueType::kInt64}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      for (const auto& name : views_.ViewNames()) {
        const DifferentialMaintainer& m = views_.Maintainer(name);
        const PartitionLayout& layout = m.partition_layout();
        const std::string mode = layout.count <= 1 ? "none"
                                 : layout.keyed    ? "keyed"
                                                   : "row-hash";
        // Keyed layouts co-partition on one equality class; name its
        // base-0 member (the deterministic representative the planner
        // picked).  Row-hash layouts have no key attribute.
        std::string key = "-";
        if (layout.keyed && !layout.key_attr.empty()) {
          key = m.definition()
                    .AliasedSchema(db_, 0)
                    .attribute(layout.key_attr[0])
                    .name;
        }
        const ViewMetrics* vm = views_.metrics().Find(name);
        const int64_t jobs = vm == nullptr ? 0 : vm->stats.partition_jobs;
        const int64_t pruned =
            vm == nullptr ? 0 : vm->stats.partitions_pruned;
        rows.emplace_back(
            Tuple({Value(name), Value(static_cast<int64_t>(layout.count)),
                   Value(mode), Value(key), Value(jobs), Value(pruned)}),
            1);
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kShowStats: {
      // Pull the WAL's counters (written behind its mutex by commit
      // leaders), the pool gauges, and the session totals into the
      // registry as one coherent snapshot first.
      if (storage_ != nullptr) storage_->SyncWalMetrics();
      views_.SyncPoolMetrics();
      views_.SyncRowStoreMetrics();
      SyncSessionMetrics();
      SyncAdmissionMetrics();
      if (stmt.json) return JsonMessage(views_.metrics().ToJson());
      // Long format: one (view, metric, value) row per counter, with the
      // cross-view aggregate and commit-scope timers under view "*".
      Schema schema({{"view", ValueType::kString},
                     {"metric", ValueType::kString},
                     {"value", ValueType::kInt64}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      auto emit = [&rows](const std::string& view, const char* metric,
                          int64_t value) {
        rows.emplace_back(
            Tuple({Value(view), Value(metric), Value(value)}), 1);
      };
      auto emit_view = [&emit](const std::string& view,
                               const ViewMetrics& m) {
        emit(view, "transactions", m.stats.transactions);
        emit(view, "skipped_irrelevant", m.stats.skipped_irrelevant);
        emit(view, "updates_seen", m.stats.updates_seen);
        emit(view, "updates_filtered", m.stats.updates_filtered);
        emit(view, "delta_inserts", m.stats.delta_inserts);
        emit(view, "delta_deletes", m.stats.delta_deletes);
        emit(view, "full_reevaluations", m.stats.full_reevaluations);
        emit(view, "refreshes", m.stats.refreshes);
        emit(view, "maintenance_nanos", m.stats.maintenance_nanos);
        emit(view, "filter_nanos", m.phases.filter_nanos);
        emit(view, "differential_nanos", m.phases.differential_nanos);
        emit(view, "apply_nanos", m.phases.apply_nanos);
        emit(view, "deltas_recorded", m.delta_sizes.total_samples());
        emit(view, "max_delta_size", m.delta_sizes.max_sample());
      };
      const MetricsRegistry& registry = views_.metrics();
      emit("*", "commits", registry.commit().commits);
      emit("*", "normalize_nanos", registry.commit().normalize_nanos);
      emit("*", "base_apply_nanos", registry.commit().base_apply_nanos);
      emit("*", "epochs_published", registry.commit().epochs_published);
      emit("*", "snapshot_reuses", registry.commit().snapshot_reuses);
      emit("*", "snapshot_copies", registry.commit().snapshot_copies);
      const StorageMetrics& storage = registry.storage();
      emit("*", "wal_appends", storage.wal_appends);
      emit("*", "wal_fsyncs", storage.wal_fsyncs);
      emit("*", "wal_bytes", storage.wal_bytes);
      emit("*", "fsync_nanos", storage.fsync_nanos);
      emit("*", "checkpoints", storage.checkpoints);
      emit("*", "checkpoint_nanos", storage.checkpoint_nanos);
      emit("*", "replayed_records", storage.replayed_records);
      emit("*", "max_commit_batch", storage.batch_commits.max_sample());
      const PoolMetrics& pool = registry.pool();
      emit("*", "pool_workers", pool.workers);
      emit("*", "pool_queue_depth", pool.queue_depth);
      emit("*", "pool_active_workers", pool.active_workers);
      const SessionMetrics& sessions = registry.sessions();
      emit("*", "sessions_opened", sessions.opened);
      emit("*", "sessions_closed", sessions.closed);
      emit("*", "sessions_active", sessions.active);
      emit("*", "session_statements", sessions.totals.statements);
      emit("*", "session_errors", sessions.totals.errors);
      emit("*", "session_rows_returned", sessions.totals.rows_returned);
      emit("*", "session_snapshot_reads", sessions.totals.snapshot_reads);
      const AdmissionMetrics& admission = registry.admission();
      emit("*", "admission_read_slots", admission.read_slots);
      emit("*", "admission_write_slots", admission.write_slots);
      emit("*", "admission_read_admitted", admission.read_admitted);
      emit("*", "admission_read_shed", admission.read_shed);
      emit("*", "admission_read_inflight", admission.read_inflight);
      emit("*", "admission_write_admitted", admission.write_admitted);
      emit("*", "admission_write_shed", admission.write_shed);
      emit("*", "admission_write_inflight", admission.write_inflight);
      emit("*", "admission_retry_after_ms", admission.retry_after_ms);
      emit("*", "deadline_exceeded", admission.deadline_exceeded);
      const RowStoreMetrics& row_store = registry.row_store();
      emit("*", "row_store_bases_mapped_bytes", row_store.bases.mapped);
      emit("*", "row_store_bases_live_bytes", row_store.bases.live);
      emit("*", "row_store_views_mapped_bytes", row_store.views.mapped);
      emit("*", "row_store_views_live_bytes", row_store.views.live);
      emit("*", "row_store_spares_mapped_bytes", row_store.spares.mapped);
      emit("*", "row_store_spares_live_bytes", row_store.spares.live);
      emit_view("*", registry.Aggregate());
      for (const auto& name : registry.ViewNames()) {
        emit_view(name, *registry.Find(name));
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kShowWal: {
      Schema schema({{"metric", ValueType::kString},
                     {"value", ValueType::kInt64}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      storage::WalStats stats =
          storage_ == nullptr ? storage::WalStats{} : storage_->wal_stats();
      auto emit = [&rows](const char* metric, int64_t value) {
        rows.emplace_back(Tuple({Value(metric), Value(value)}), 1);
      };
      emit("attached", storage_ != nullptr ? 1 : 0);
      emit("base_lsn", static_cast<int64_t>(stats.base_lsn));
      emit("durable_lsn", static_cast<int64_t>(stats.durable_lsn));
      emit("next_lsn", static_cast<int64_t>(stats.next_lsn));
      emit("records_appended", stats.records_appended);
      emit("bytes_appended", stats.bytes_appended);
      emit("fsyncs", stats.fsyncs);
      emit("records_replayed", stats.records_replayed);
      emit("truncated_bytes", stats.truncated_bytes);
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kTrace: {
      obs::Tracer& tracer = obs::Tracer::Global();
      if (stmt.trace_on) {
        // Each TRACE ON starts a fresh trace session: prior spans are
        // epoch-cleared so SHOW TRACE reflects only what follows.
        tracer.Clear();
        tracer.Enable();
        return Message("tracing on");
      }
      tracer.Disable();
      return Message("tracing off");
    }
    case Kind::kShowTrace: {
      if (stmt.json) {
        return JsonMessage(obs::Tracer::Global().ExportChromeJson());
      }
      Schema schema({{"span", ValueType::kString},
                     {"thread", ValueType::kString},
                     {"tid", ValueType::kInt64},
                     {"start_us", ValueType::kInt64},
                     {"dur_us", ValueType::kInt64},
                     {"arg", ValueType::kString}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
      const int64_t base = events.empty() ? 0 : events.front().start_nanos;
      for (const auto& ev : events) {
        std::string arg = ev.arg_name.empty()
                              ? ""
                              : ev.arg_name + "=" + std::to_string(ev.arg);
        rows.emplace_back(
            Tuple({Value(ev.name), Value(ev.thread_name), Value(ev.tid),
                   Value((ev.start_nanos - base) / 1000),
                   Value(ev.dur_nanos / 1000), Value(std::move(arg))}),
            1);
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kExplainMaintenance:
      return ExecuteExplainMaintenance(stmt);
    case Kind::kCheckpoint: {
      MVIEW_CHECK(storage_ != nullptr,
                  "CHECKPOINT requires an attached storage directory");
      storage_->Checkpoint();
      return Message("checkpoint written (LSN " +
                     std::to_string(storage_->wal_stats().base_lsn) + ")");
    }
    case Kind::kShowAssertions: {
      Schema schema({{"assertion", ValueType::kString},
                     {"holds", ValueType::kString}});
      std::vector<std::pair<Tuple, int64_t>> rows;
      auto violations = guard_.CurrentViolations();
      for (const auto& name : guard_.AssertionNames()) {
        bool violated = false;
        for (const auto& v : violations) violated |= v.assertion == name;
        rows.emplace_back(
            Tuple({Value(name), Value(violated ? "VIOLATED" : "yes")}), 1);
      }
      return RowsResult(std::move(schema), std::move(rows));
    }
    case Kind::kCopyTo: {
      std::ofstream out(stmt.path);
      MVIEW_CHECK(out.is_open(), "cannot open for writing: ", stmt.path);
      size_t rows;
      if (views_.HasView(stmt.name)) {
        const CountedRelation& view = views_.View(stmt.name);
        WriteCsv(view, out);
        rows = view.size();
      } else {
        const Relation& rel = db_.Get(stmt.name);
        WriteCsv(rel, out);
        rows = rel.size();
      }
      return Message(std::to_string(rows) + " row(s) copied to " + stmt.path);
    }
    case Kind::kCopyFrom: {
      const Relation& rel = db_.Get(stmt.name);
      std::ifstream in(stmt.path);
      MVIEW_CHECK(in.is_open(), "cannot open for reading: ", stmt.path);
      Relation loaded = ReadCsv(in);
      MVIEW_CHECK(loaded.schema() == rel.schema(), "CSV scheme ",
                  loaded.schema().ToString(), " does not match table ",
                  stmt.name, " ", rel.schema().ToString());
      size_t n = loaded.size();
      if (pending->has_value()) {
        loaded.Scan(
            [&](const Tuple& t) { (*pending)->Insert(stmt.name, t); });
        return Message(std::to_string(n) + " row(s) staged from " +
                       stmt.path);
      }
      Transaction txn;
      loaded.Scan([&](const Tuple& t) { txn.Insert(stmt.name, t); });
      Result result = CommitTransaction(std::move(txn), cancel);
      if (result.kind == Result::Kind::kMessage && result.message.empty()) {
        result.message =
            std::to_string(n) + " row(s) copied from " + stmt.path;
      }
      return result;
    }
    case Kind::kBegin:
      MVIEW_CHECK(!pending->has_value(), "already in a transaction");
      pending->emplace();
      return Message("transaction started");
    case Kind::kCommit: {
      MVIEW_CHECK(pending->has_value(), "no transaction in progress");
      Transaction txn = std::move(**pending);
      pending->reset();
      size_t ops = txn.NumOperations();
      // A deadline abort is clean by construction (nothing applied, WAL
      // untouched), so the staged transaction must survive for a retried
      // COMMIT — unlike a semantic failure, which consumes it.  Retain a
      // copy only when a token could actually expire.
      std::optional<Transaction> retained;
      if (cancel != nullptr) retained = txn;
      Result result;
      try {
        result = CommitTransaction(std::move(txn), cancel);
      } catch (const DeadlineExceededError&) {
        if (retained.has_value()) pending->emplace(std::move(*retained));
        throw;
      }
      if (result.kind == Result::Kind::kMessage && result.message.empty()) {
        result.message =
            "committed (" + std::to_string(ops) + " operation(s))";
      }
      return result;
    }
    case Kind::kRollback:
      MVIEW_CHECK(pending->has_value(), "no transaction in progress");
      pending->reset();
      return Message("rolled back");
  }
  internal::ThrowError("corrupt statement");
}

Engine::Engine() : core_(), session_(core_.CreateSession()) {}

Engine::Engine(Storage* storage)
    : core_(storage), session_(core_.CreateSession()) {}

Engine::~Engine() = default;

Result Engine::Execute(const std::string& sql) {
  return session_->Execute(sql);
}

Status Engine::TryExecute(const std::string& sql, Result* result) {
  return session_->TryExecute(sql, result);
}

std::vector<Result> Engine::ExecuteScript(const std::string& sql) {
  return session_->ExecuteScript(sql);
}

Status Engine::TryExecuteScript(const std::string& sql,
                                std::vector<Result>* results,
                                size_t* failed_statement) {
  return session_->TryExecuteScript(sql, results, failed_statement);
}

std::unique_ptr<Session> Engine::CreateSession() {
  return core_.CreateSession();
}

bool Engine::in_transaction() const { return session_->in_transaction(); }

}  // namespace mview::sql
