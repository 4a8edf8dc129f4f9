#ifndef MVIEW_TESTS_IVM_TEST_UTIL_H_
#define MVIEW_TESTS_IVM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "db/transaction.h"
#include "ivm/differential.h"
#include "ivm/view_def.h"
#include "ra/eval.h"
#include "ra/expr.h"

namespace mview::testing {

/// Evaluates `def` over `db` with the naive recursive evaluator of
/// `ra/eval.cc`, which shares no code with the planner: each base is
/// renamed to its aliases, the bases are multiplied out in full, and the
/// condition and projection are applied to the product.  This is the
/// independent oracle of the property suites — `FullEvaluate` runs the
/// same executor as maintenance, so a planner bug would show in both.
inline CountedRelation NaiveEvaluate(const ViewDefinition& def,
                                     const Database& db) {
  ExprPtr expr;
  for (const BaseRef& ref : def.bases()) {
    ExprPtr base = Expr::Base(ref.relation);
    if (!ref.aliases.empty()) {
      const Schema& schema = db.Get(ref.relation).schema();
      std::map<std::string, std::string> renames;
      for (size_t i = 0; i < ref.aliases.size(); ++i) {
        renames[schema.attribute(i).name] = ref.aliases[i];
      }
      base = Expr::Rename(std::move(base), std::move(renames));
    }
    expr = expr == nullptr ? base : Expr::Product(std::move(expr), base);
  }
  if (!def.condition().IsTriviallyTrue()) {
    expr = Expr::Select(std::move(expr), def.condition());
  }
  if (!def.projection().empty()) {
    expr = Expr::Project(std::move(expr), def.projection());
  }
  return Evaluate(*expr, db);
}

/// A random condition of the Rosenkrantz–Hunt class (Section 4's predicate
/// class) over `vars`: a conjunction of one to three atoms `x op c`
/// (c in [0, max_const]) or `x op y + c` (c in [-2, 2]), op one of
/// = < <= > >=, or one time in four the disjunction of two such
/// conjunctions.  `uniform(lo, hi)` draws an integer in [lo, hi].
template <typename Uniform>
Condition RandomRhCondition(Uniform&& uniform,
                            const std::vector<std::string>& vars,
                            int64_t max_const) {
  static constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kLt,
                                       CompareOp::kLe, CompareOp::kGt,
                                       CompareOp::kGe};
  const int64_t last_var = static_cast<int64_t>(vars.size()) - 1;
  auto var = [&]() -> const std::string& {
    return vars[static_cast<size_t>(uniform(0, last_var))];
  };
  auto conjunction = [&]() {
    Condition out = Condition::True();
    for (int64_t i = uniform(1, 3); i > 0; --i) {
      const CompareOp op = kOps[uniform(0, 4)];
      const std::string& lhs = var();
      out = out.And(Condition::FromAtom(
          uniform(0, 1) == 0
              ? Atom::VarConst(lhs, op, Value(uniform(0, max_const)))
              : Atom::VarVar(lhs, op, var(), uniform(-2, 2))));
    }
    return out;
  };
  Condition cond = conjunction();
  return uniform(0, 3) == 0 ? cond.Or(conjunction()) : cond;
}

/// Runs one transaction through differential maintenance and verifies the
/// result against full re-evaluation: materializes the view, computes the
/// delta on the pre-state, applies the transaction, applies the delta, and
/// EXPECTs the maintained view to equal the naive evaluation of the
/// post-state.  Returns the maintained view.
inline CountedRelation CheckMaintenance(
    Database* db, const ViewDefinition& def, const Transaction& txn,
    MaintenanceOptions options = MaintenanceOptions{},
    MaintenanceStats* stats = nullptr) {
  DifferentialMaintainer maintainer(def, db, options);
  CountedRelation view = maintainer.FullEvaluate();
  TransactionEffect effect = txn.Normalize(*db);
  ViewDelta delta = maintainer.ComputeDelta(effect, stats);
  effect.ApplyTo(db);
  delta.ApplyTo(&view);
  CountedRelation expected = NaiveEvaluate(def, *db);
  EXPECT_TRUE(view.SameContents(expected))
      << "view " << def.ToString() << "\nmaintained:\n"
      << view.ToString() << "expected:\n"
      << expected.ToString();
  return view;
}

/// The raw, unscreened parts of `effect` for `def`'s base occurrences, as
/// commit-time maintenance would see them without Algorithm 4.1.
inline std::vector<BaseParts> RawParts(const ViewDefinition& def,
                                       const TransactionEffect& effect) {
  std::vector<BaseParts> parts(def.bases().size());
  for (size_t i = 0; i < parts.size(); ++i) {
    const RelationEffect* re = effect.Find(def.bases()[i].relation);
    if (re != nullptr) parts[i] = {&re->inserts, &re->deletes, &re->deletes};
  }
  return parts;
}

}  // namespace mview::testing

#endif  // MVIEW_TESTS_IVM_TEST_UTIL_H_
