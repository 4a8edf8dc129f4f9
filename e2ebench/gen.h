// Seeded SQL workload generator for the end-to-end benchmark.
//
// Three base tables in an orders / items / customers shape feed six views
// that cover the paper's classes (see README.md).  The generator keeps a
// model of every live base row, so it can (a) emit key DELETEs and UPDATEs
// of rows that exist, (b) balance deletes against inserts so base sizes
// stay stationary over a run, (c) mirror every statement as a
// `Transaction` for the in-process layer replays, and (d) check after a
// reopen that every acknowledged commit is present.
#ifndef E2EBENCH_GEN_H_
#define E2EBENCH_GEN_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "db/transaction.h"

namespace e2e {

struct Sizes {
  int64_t customers = 0;
  int64_t orders = 0;  // live target; the key space is twice this
  int64_t items = 0;   // live target; the key space is twice this
};

/// One schema statement per table and view, in creation order.
std::vector<std::string> TableDdl();
std::vector<std::string> ViewDdl();
/// The view names, in `ViewDdl` order; the last one is DEFERRED.
const std::vector<std::string>& ViewNames();
inline const char* kDeferredView = "v_def";

/// A set of int keys with O(1) insert, erase and uniform pick.
class KeySet {
 public:
  explicit KeySet(int64_t key_space) : pos_(key_space, -1) {}
  void Add(int64_t k);
  void Remove(int64_t k);
  int64_t Pick(Rng& rng) const { return keys_[rng.Below(size())]; }
  int64_t size() const { return static_cast<int64_t>(keys_.size()); }
  const std::vector<int64_t>& keys() const { return keys_; }

 private:
  std::vector<int64_t> keys_;
  std::vector<int64_t> pos_;
};

/// A unit of client work: one autocommit statement, or BEGIN … COMMIT.
/// The last statement is the one that commits.
struct WriteOp {
  std::vector<std::string> stmts;
  mview::Transaction txn;  // the same changes, for in-process replays
  int64_t cells = 0;       // INT64 cells inserted or deleted
};

class Generator {
 public:
  using Row = std::array<int64_t, 4>;  // customers use the first three

  Generator(Sizes sizes, uint64_t seed);

  /// Multi-row INSERTs that load the initial base rows.
  std::vector<std::string> LoadStatements() const;

  /// The next write, applied to the model.  `txn_share` is the fraction
  /// of BEGIN … COMMIT multi-table transactions; the rest are autocommit
  /// 1–5-row INSERTs and key DELETEs.
  WriteOp NextWrite(double txn_share);

  /// The `i`-th snapshot SELECT of a reader drawing from `rng`: three
  /// point predicates on the large join view, then a whole read of the
  /// small dashboard view.  (The two costs differ ~4x; an even mix would
  /// put the median in the gap between them.)  Touches no generator state, so
  /// reader threads may call it concurrently with their own `rng`.
  std::string Read(Rng& rng, int64_t i) const;

  /// An ad-hoc 3-way join over base tables (not a view).
  std::string AdhocJoin() const;

  /// Every live row of `table` ("customers", "orders" or "items"), as the
  /// engine must hold it.
  std::vector<Row> LiveRows(const std::string& table) const;
  /// INT64 cells held by all live base rows.
  int64_t LiveCells() const;

  Rng& rng() { return rng_; }

 private:
  struct Table {
    std::string name;
    int arity = 0;
    KeySet live;
    KeySet free;
    std::vector<Row> rows;  // indexed by key
    Table(std::string n, int a, int64_t space);
  };

  Row RandomRow(Table& t, int64_t key);
  void Insert(Table& t, int n, WriteOp* op, std::string* sql);
  void Delete(Table& t, int n, WriteOp* op, std::string* sql);
  void UpdateCustomer(WriteOp* op, std::string* sql);
  /// Inserts-vs-deletes bias that pulls `t` back to its target size.
  int Drift(const Table& t, int64_t target) const;

  Sizes sizes_;
  Rng rng_;
  Table customers_;
  Table orders_;
  Table items_;
};

}  // namespace e2e

#endif  // E2EBENCH_GEN_H_
