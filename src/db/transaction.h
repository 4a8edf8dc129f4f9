#ifndef MVIEW_DB_TRANSACTION_H_
#define MVIEW_DB_TRANSACTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "relational/relation.h"
#include "relational/tuple.h"

namespace mview {

/// The net effect of a transaction on one base relation: disjoint sets of
/// inserted and deleted tuples with `τ(r) = r ∪ inserts − deletes`
/// (Section 3).  Both sets are stored as set-semantics relations so the
/// differential machinery can stream or subtract them directly.
struct RelationEffect {
  explicit RelationEffect(Schema schema)
      : inserts(schema), deletes(std::move(schema)) {}

  Relation inserts;
  Relation deletes;

  bool Empty() const { return inserts.empty() && deletes.empty(); }
};

/// The normalized net effect of a whole transaction (relation name → effect).
///
/// Guaranteed invariants, established against the database pre-state:
/// `inserts ∩ r = ∅`, `deletes ⊆ r`, `inserts ∩ deletes = ∅`.  A tuple
/// inserted and then deleted within the transaction "is not represented at
/// all in this set of changes" (Section 5).
class TransactionEffect {
 public:
  /// Returns the effect for `relation`, or nullptr when untouched.
  const RelationEffect* Find(const std::string& relation) const;

  /// Returns true when the transaction has no net effect at all.
  bool Empty() const;

  /// Relation names with a non-empty effect, sorted.
  std::vector<std::string> TouchedRelations() const;

  /// Applies the effect to the database (deletes then inserts).
  void ApplyTo(Database* db) const;

  /// Total number of inserted plus deleted tuples.
  size_t TotalTuples() const;

  /// Returns a mutable effect slot for `relation`, creating an empty one
  /// with `schema` on first use.  This is the build path for effects
  /// normalized from a live transaction and for effects reconstructed from
  /// a durable log; the caller is responsible for the Section 3 invariants
  /// (`inserts ∩ r = ∅`, `deletes ⊆ r`, `inserts ∩ deletes = ∅`) — WAL
  /// replay preserves them by re-applying effects in original commit order
  /// from the checkpointed state.
  RelationEffect& Mutable(const std::string& relation, const Schema& schema);

 private:
  std::map<std::string, std::unique_ptr<RelationEffect>> effects_;
};

/// An indivisible sequence of insert/delete operations against base
/// relations (Section 3).
///
/// Operations are recorded in order; `Normalize` replays them against the
/// database pre-state to compute the net `TransactionEffect`: inserting an
/// already-present tuple or deleting an absent one is a no-op, and
/// insert-then-delete (or delete-then-insert) sequences cancel.  The replay
/// costs one probe of the base per operation.
class Transaction {
 public:
  /// Records `insert(R, t)`.
  Transaction& Insert(const std::string& relation, Tuple tuple);

  /// Records `delete(R, t)`.
  Transaction& Delete(const std::string& relation, Tuple tuple);

  /// Records an update as `delete(R, old)` followed by `insert(R, new)` —
  /// the paper's model has no primitive update operation; a modification is
  /// the net effect of a deletion and an insertion.
  Transaction& Update(const std::string& relation, Tuple old_tuple,
                      Tuple new_tuple);

  /// Convenience for batches; the tuples are moved in, not copied.
  Transaction& InsertAll(const std::string& relation,
                         std::vector<Tuple> tuples);
  Transaction& DeleteAll(const std::string& relation,
                         std::vector<Tuple> tuples);

  /// Moves every operation of `other` to the end, in order — merges a
  /// statement-built transaction into an enclosing BEGIN … COMMIT scope.
  Transaction& Append(Transaction other);

  size_t NumOperations() const { return ops_.size(); }

  /// Computes the net effect relative to `db`'s current (pre-transaction)
  /// state.  Throws when a relation is unknown or a tuple has the wrong
  /// arity.  The transaction itself is not applied.
  TransactionEffect Normalize(const Database& db) const;

 private:
  struct Op {
    bool is_insert;
    std::string relation;
    Tuple tuple;
  };
  std::vector<Op> ops_;
};

}  // namespace mview

#endif  // MVIEW_DB_TRANSACTION_H_
