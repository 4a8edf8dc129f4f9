#ifndef MVIEW_SQL_PARSER_H_
#define MVIEW_SQL_PARSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "predicate/condition.h"
#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace mview::sql {

/// A table reference in a FROM list: `name [AS] alias`.
struct TableRef {
  std::string table;
  std::string alias;  // defaults to the table name
};

/// A parsed `SELECT` body (also the body of `CREATE VIEW … AS`).
struct SelectQuery {
  bool star = false;
  std::vector<std::string> columns;  // possibly alias-qualified
  std::vector<TableRef> from;
  Condition where = Condition::True();
};

/// When a SQL-created view is maintained (maps to `MaintenanceMode`).
enum class ViewMode { kImmediate, kDeferred, kFullReevaluation };

/// One parsed SQL statement.
///
/// Supported statements:
///
///     CREATE TABLE t (col INT64 | STRING, …);
///     DROP TABLE t;
///     CREATE [MATERIALIZED] VIEW v [DEFERRED | RECOMPUTED]
///         [PARTITIONS n] AS SELECT …;
///     DROP VIEW v;
///     CREATE ASSERTION a ON t1 [, t2 …] WHERE <error predicate>;
///     DROP ASSERTION a;
///     INSERT INTO t VALUES (…), (…);
///     DELETE FROM t [WHERE …];
///     UPDATE t SET col = literal [, …] [WHERE …];
///     SELECT * | col [, col …] FROM t [alias] [, …] [WHERE …];
///     REFRESH [VIEW] v;
///     REPAIR [VIEW] v;
///     SCRUB VIEW v [PARTITION] [REPAIR]; SCRUB ALL [REPAIR];
///     SHOW TABLES; SHOW VIEWS; SHOW ASSERTIONS; SHOW PARTITIONS;
///     SHOW STATS [JSON]; SHOW WAL;
///     TRACE ON; TRACE OFF;
///     SHOW TRACE [JSON];
///     EXPLAIN MAINTENANCE <INSERT … | DELETE … | UPDATE …>;
///     CHECKPOINT;
///     COPY t TO 'file.csv'; COPY t FROM 'file.csv';
///     BEGIN; COMMIT; ROLLBACK;
///
/// WHERE clauses use AND/OR/NOT with comparisons `x op y [± c]` / `x op
/// literal` (`op ∈ {=, ==, !=, <>, <, <=, >, >=}`); string literals are
/// single-quoted.
struct Statement {
  enum class Kind {
    kCreateTable,
    kDropTable,
    kCreateView,
    kDropView,
    kCreateAssertion,
    kDropAssertion,
    kInsert,
    kDelete,
    kUpdate,
    kSelect,
    kRefresh,
    kRepair,  // REPAIR [VIEW] v — heal a quarantined view by recompute
    kScrub,   // SCRUB VIEW v [PARTITION] [REPAIR] | SCRUB ALL [REPAIR]
    kShowTables,
    kShowViews,
    kShowAssertions,
    kShowPartitions,  // SHOW PARTITIONS — per-view partition layout/stats
    kShowStats,  // SHOW STATS [JSON] — maintenance metrics
    kShowWal,    // SHOW WAL — durable-log counters (LSNs, fsyncs, bytes)
    kTrace,      // TRACE ON | OFF — toggle the maintenance span recorder
    kShowTrace,  // SHOW TRACE [JSON] — spans / Chrome trace_event JSON
    kExplainMaintenance,  // EXPLAIN MAINTENANCE <dml> — irrelevance audit
    kCheckpoint,  // CHECKPOINT — snapshot state, truncate the log
    kCopyTo,    // COPY t TO 'file.csv'   (table or view → CSV)
    kCopyFrom,  // COPY t FROM 'file.csv' (CSV rows inserted into table)
    kBegin,
    kCommit,
    kRollback,
  };

  Kind kind = Kind::kSelect;
  std::string name;                // table / view / assertion
  std::vector<Attribute> columns;  // CREATE TABLE
  SelectQuery query;               // CREATE VIEW / SELECT
  ViewMode view_mode = ViewMode::kImmediate;
  std::vector<Tuple> rows;                           // INSERT
  Condition where = Condition::True();               // DELETE/UPDATE/ASSERTION
  std::vector<std::pair<std::string, Value>> assignments;  // UPDATE SET
  std::vector<std::string> tables;                   // ASSERTION ON list
  std::string path;                                  // COPY file path
  bool json = false;             // SHOW STATS JSON / SHOW TRACE JSON
  bool trace_on = false;         // TRACE ON vs TRACE OFF
  bool repair = false;           // SCRUB … REPAIR — auto-repair drift
  bool partition = false;        // SCRUB … PARTITION — one slice per call
  uint32_t partitions = 0;       // CREATE VIEW … PARTITIONS n (0 = default)
  std::vector<Statement> inner;  // EXPLAIN MAINTENANCE wrapped DML (size 1)
};

/// Parses a `;`-separated script into statements.  Throws `Error` with an
/// offset-bearing message on syntax errors.
std::vector<Statement> Parse(const std::string& sql);

}  // namespace mview::sql

#endif  // MVIEW_SQL_PARSER_H_
