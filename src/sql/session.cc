#include "sql/session.h"

#include "obs/trace.h"
#include "sql/engine.h"
#include "util/error.h"
#include "util/stopwatch.h"

namespace mview::sql {
namespace {

// `Parse` under a "parse" span, so every statement's trace starts with
// the parse phase nested inside the caller's "execute" span.
std::vector<Statement> ParseTraced(const std::string& sql) {
  static const uint32_t kParseName =
      obs::Tracer::Global().InternName("parse");
  obs::TraceSpan span(kParseName);
  return Parse(sql);
}

uint32_t ExecuteSpanName() {
  static const uint32_t kExecuteName =
      obs::Tracer::Global().InternName("execute");
  return kExecuteName;
}

// Maps an in-flight exception to the `Status` taxonomy.  Order matters:
// the specific `Error` subclasses first, then the `Error` base, then the
// catch-all for library exceptions that must not escape the non-throwing
// API (std::bad_alloc and friends).
Status ClassifyException(const std::exception& e, std::string message) {
  if (dynamic_cast<const CorruptionError*>(&e) != nullptr) {
    return Status::Corruption(std::move(message));
  }
  if (dynamic_cast<const IoError*>(&e) != nullptr) {
    return Status::IoError(std::move(message));
  }
  if (dynamic_cast<const ViewQuarantinedError*>(&e) != nullptr) {
    return Status::ViewQuarantined(std::move(message));
  }
  if (dynamic_cast<const DeadlineExceededError*>(&e) != nullptr) {
    return Status::DeadlineExceeded(std::move(message));
  }
  if (const auto* overloaded = dynamic_cast<const OverloadedError*>(&e)) {
    return Status::Overloaded(std::move(message), overloaded->retry_after_ms);
  }
  if (dynamic_cast<const AuthError*>(&e) != nullptr) {
    return Status::Unauthenticated(std::move(message));
  }
  if (dynamic_cast<const Error*>(&e) != nullptr) {
    return Status::ExecutionError(std::move(message));
  }
  return Status::Internal(std::move(message));
}

}  // namespace

Session::Session(EngineCore* core, uint64_t id) : core_(core), id_(id) {}

Session::~Session() { core_->UnregisterSession(this); }

obs::SessionStats Session::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Result Session::ExecuteOne(Statement stmt,
                           const util::Cancellation* cancel) {
  const bool is_read = stmt.kind == Statement::Kind::kSelect;
  Stopwatch timer;
  bool served_from_snapshot = false;
  try {
    Result result = core_->ExecuteParsed(std::move(stmt), &pending_,
                                         &served_from_snapshot, cancel);
    const int64_t nanos = timer.ElapsedNanos();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.statements;
    stats_.statement_latency.Record(nanos);
    if (is_read) stats_.read_latency.Record(nanos);
    if (served_from_snapshot) ++stats_.snapshot_reads;
    if (result.kind == Result::Kind::kRows) {
      stats_.rows_returned += static_cast<int64_t>(result.NumRows());
    }
    return result;
  } catch (...) {
    const int64_t nanos = timer.ElapsedNanos();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.statements;
    ++stats_.errors;
    stats_.statement_latency.Record(nanos);
    if (is_read) stats_.read_latency.Record(nanos);
    throw;
  }
}

Result Session::Execute(const std::string& sql,
                        const util::Cancellation* cancel) {
  obs::TraceSpan span(ExecuteSpanName());
  std::vector<Statement> statements = ParseTraced(sql);
  MVIEW_CHECK(statements.size() == 1,
              "Execute expects exactly one statement; got ",
              statements.size(), " (use ExecuteScript)");
  return ExecuteOne(std::move(statements[0]), cancel);
}

Status Session::TryExecute(const std::string& sql, Result* result,
                           const util::Cancellation* cancel) {
  obs::TraceSpan span(ExecuteSpanName());
  std::vector<Statement> statements;
  try {
    statements = ParseTraced(sql);
  } catch (const Error& e) {
    return Status::ParseError(e.what());
  } catch (const std::exception& e) {
    return ClassifyException(e, e.what());
  }
  if (statements.size() != 1) {
    return Status::ParseError("TryExecute expects exactly one statement; got " +
                              std::to_string(statements.size()) +
                              " (use TryExecuteScript)");
  }
  try {
    Result r = ExecuteOne(std::move(statements[0]), cancel);
    if (result != nullptr) *result = std::move(r);
  } catch (const std::exception& e) {
    return ClassifyException(e, e.what());
  }
  return Status::Ok();
}

std::vector<Result> Session::ExecuteScript(const std::string& sql) {
  obs::TraceSpan span(ExecuteSpanName());
  std::vector<Statement> statements = ParseTraced(sql);
  std::vector<Result> results;
  for (size_t i = 0; i < statements.size(); ++i) {
    try {
      results.push_back(ExecuteOne(std::move(statements[i])));
    } catch (const Error& e) {
      internal::ThrowError("statement ", i + 1, " of ", statements.size(),
                           ": ", e.what());
    }
  }
  return results;
}

Status Session::TryExecuteScript(const std::string& sql,
                                 std::vector<Result>* results,
                                 size_t* failed_statement) {
  obs::TraceSpan span(ExecuteSpanName());
  std::vector<Statement> statements;
  try {
    statements = ParseTraced(sql);
  } catch (const Error& e) {
    return Status::ParseError(e.what());
  } catch (const std::exception& e) {
    return ClassifyException(e, e.what());
  }
  for (size_t i = 0; i < statements.size(); ++i) {
    try {
      Result r = ExecuteOne(std::move(statements[i]));
      if (results != nullptr) results->push_back(std::move(r));
    } catch (const std::exception& e) {
      if (failed_statement != nullptr) *failed_statement = i;
      std::string message = "statement " + std::to_string(i + 1) + " of " +
                            std::to_string(statements.size()) + ": " +
                            e.what();
      return ClassifyException(e, std::move(message));
    }
  }
  return Status::Ok();
}

}  // namespace mview::sql
