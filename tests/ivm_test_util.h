#ifndef MVIEW_TESTS_IVM_TEST_UTIL_H_
#define MVIEW_TESTS_IVM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <string>

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

}  // namespace mview::testing

#endif  // MVIEW_TESTS_IVM_TEST_UTIL_H_
