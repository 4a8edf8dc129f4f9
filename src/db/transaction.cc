#include "db/transaction.h"

#include <iterator>

#include "util/error.h"

namespace mview {

const RelationEffect* TransactionEffect::Find(
    const std::string& relation) const {
  auto it = effects_.find(relation);
  if (it == effects_.end() || it->second->Empty()) return nullptr;
  return it->second.get();
}

bool TransactionEffect::Empty() const {
  for (const auto& [name, effect] : effects_) {
    if (!effect->Empty()) return false;
  }
  return true;
}

std::vector<std::string> TransactionEffect::TouchedRelations() const {
  std::vector<std::string> names;
  for (const auto& [name, effect] : effects_) {
    if (!effect->Empty()) names.push_back(name);
  }
  return names;
}

void TransactionEffect::ApplyTo(Database* db) const {
  MVIEW_CHECK(db != nullptr, "null database");
  for (const auto& [name, effect] : effects_) {
    Relation& r = db->Get(name);
    effect->deletes.Scan([&](const Tuple& t) { r.Erase(t); });
    effect->inserts.Scan([&](const Tuple& t) { r.Insert(t); });
  }
}

RelationEffect& TransactionEffect::Mutable(const std::string& relation,
                                           const Schema& schema) {
  auto& slot = effects_[relation];
  if (slot == nullptr) slot = std::make_unique<RelationEffect>(schema);
  return *slot;
}

size_t TransactionEffect::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, effect] : effects_) {
    total += effect->inserts.size() + effect->deletes.size();
  }
  return total;
}

Transaction& Transaction::Insert(const std::string& relation, Tuple tuple) {
  ops_.push_back({true, relation, std::move(tuple)});
  return *this;
}

Transaction& Transaction::Delete(const std::string& relation, Tuple tuple) {
  ops_.push_back({false, relation, std::move(tuple)});
  return *this;
}

Transaction& Transaction::Update(const std::string& relation, Tuple old_tuple,
                                 Tuple new_tuple) {
  Delete(relation, std::move(old_tuple));
  Insert(relation, std::move(new_tuple));
  return *this;
}

Transaction& Transaction::InsertAll(const std::string& relation,
                                    std::vector<Tuple> tuples) {
  ops_.reserve(ops_.size() + tuples.size());
  for (Tuple& t : tuples) Insert(relation, std::move(t));
  return *this;
}

Transaction& Transaction::DeleteAll(const std::string& relation,
                                    std::vector<Tuple> tuples) {
  ops_.reserve(ops_.size() + tuples.size());
  for (Tuple& t : tuples) Delete(relation, std::move(t));
  return *this;
}

Transaction& Transaction::Append(Transaction other) {
  if (ops_.empty()) {
    ops_ = std::move(other.ops_);
  } else {
    ops_.insert(ops_.end(), std::make_move_iterator(other.ops_.begin()),
                std::make_move_iterator(other.ops_.end()));
  }
  return *this;
}

TransactionEffect Transaction::Normalize(const Database& db) const {
  // Section 3's net effect, with the effect's own sets as the overlay: a
  // tuple's last operation decides whether it is present afterwards, and
  // its presence in r before decides where that lands.  After an insert
  // it is in `inserts` when r lacks it (else in neither set); after a
  // delete it is in `deletes` when r has it (else in neither).  So r, the
  // inserts and the deletes stay disjoint at every step.
  TransactionEffect effect;
  const std::string* name = nullptr;  // the relation of the previous op
  const Relation* r = nullptr;
  RelationEffect* rel_effect = nullptr;
  for (const Op& op : ops_) {
    if (name == nullptr || op.relation != *name) {
      name = &op.relation;
      r = &db.Get(op.relation);
      rel_effect = &effect.Mutable(op.relation, r->schema());
    }
    MVIEW_CHECK(op.tuple.size() == r->schema().size(),
                "tuple arity does not match relation ", op.relation);
    const bool in_base = r->Contains(op.tuple);
    if (op.is_insert) {
      if (in_base) {
        rel_effect->deletes.Erase(op.tuple);
      } else {
        rel_effect->inserts.Insert(op.tuple);
      }
    } else if (in_base) {
      rel_effect->deletes.Insert(op.tuple);
    } else {
      rel_effect->inserts.Erase(op.tuple);
    }
  }
  return effect;
}

}  // namespace mview
