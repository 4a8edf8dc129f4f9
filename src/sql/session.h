#ifndef MVIEW_SQL_SESSION_H_
#define MVIEW_SQL_SESSION_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "db/transaction.h"
#include "obs/session_stats.h"
#include "sql/parser.h"
#include "sql/result.h"
#include "util/status.h"

namespace mview::util {
class Cancellation;
}  // namespace mview::util

namespace mview::sql {

class EngineCore;

/// One client's connection to an `EngineCore`: the statement API that used
/// to live on `Engine`, plus this client's BEGIN…COMMIT state and its
/// per-session counters.
///
/// A session is single-client: one thread (or one network connection's
/// handler) drives it at a time.  *Different* sessions over the same core
/// are safe to drive concurrently — the core classifies each statement and
/// takes the engine lock it needs, and view SELECTs are served lock-free
/// from the published epoch snapshot.  Created by
/// `EngineCore::CreateSession`; must be destroyed before the core.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes one statement (a trailing ';' is allowed).  Throws
  /// `mview::Error` on syntax or semantic errors; failed assertion checks
  /// return a `kMessage` result describing the rejection instead.
  ///
  /// `cancel` (optional, may be null) is a cooperative deadline /
  /// cancellation token threaded through the engine's evaluation loops;
  /// when it expires the statement unwinds cleanly — no base, view, or
  /// backlog mutation survives — and `DeadlineExceededError` is thrown
  /// (surfaced as `Status::Kind::kDeadlineExceeded` by `TryExecute`).
  /// The token must outlive the call; the session does not keep it.
  Result Execute(const std::string& sql,
                 const util::Cancellation* cancel = nullptr);

  /// Non-throwing sibling of `Execute`: on success fills `*result` and
  /// returns an ok status; on failure leaves `*result` untouched and
  /// returns the classified error.  `result` may be null when the caller
  /// only cares about success.
  Status TryExecute(const std::string& sql, Result* result,
                    const util::Cancellation* cancel = nullptr);

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

  /// True while inside BEGIN … COMMIT/ROLLBACK.
  bool in_transaction() const { return pending_.has_value(); }

  /// This session's id (unique within its core; the default session is 1).
  uint64_t id() const { return id_; }

  /// A point-in-time copy of this session's counters (thread-safe; SHOW
  /// STATS samples live sessions through this).
  obs::SessionStats StatsSnapshot() const;

 private:
  friend class EngineCore;
  Session(EngineCore* core, uint64_t id);

  /// Runs one parsed statement through the core (which may consume it)
  /// and records latency, error, row, and snapshot-read counters around it.
  Result ExecuteOne(Statement stmt,
                    const util::Cancellation* cancel = nullptr);

  EngineCore* core_;  // not owned; outlives the session
  uint64_t id_ = 0;
  std::optional<Transaction> pending_;

  mutable std::mutex stats_mu_;
  obs::SessionStats stats_;
};

}  // namespace mview::sql

#endif  // MVIEW_SQL_SESSION_H_
