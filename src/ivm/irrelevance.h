#ifndef MVIEW_IVM_IRRELEVANCE_H_
#define MVIEW_IVM_IRRELEVANCE_H_

#include <memory>
#include <vector>

#include "db/database.h"
#include "db/transaction.h"
#include "ivm/view_def.h"
#include "obs/explain.h"
#include "predicate/substitution.h"
#include "relational/relation.h"

namespace mview {

struct MaintenanceStats;

/// Per-view irrelevant-update detection (Section 4).
///
/// At construction, one `SubstitutionFilter` is compiled for each base
/// occurrence of the view: the view condition with that base's attributes
/// (`Y1`) marked substituted — the once-per-(view, relation) work of
/// Algorithm 4.1.  At update time, `Screen` decides Theorem 4.1 per tuple;
/// tuples proved irrelevant cannot affect the view in *any* database state
/// and are dropped before differential re-evaluation or deferred logging.
///
/// The filter is exact for conditions inside the Rosenkrantz–Hunt class and
/// conservative (never drops a relevant update) otherwise.
class IrrelevanceFilter {
 public:
  IrrelevanceFilter(const ViewDefinition& def, const Database& db);

  size_t num_bases() const { return filters_.size(); }

  /// The tuples of one base occurrence's share of a transaction that
  /// survive the screen, as pointers into the effect's own relations.
  struct Survivors {
    std::vector<const Tuple*> inserts;
    std::vector<const Tuple*> deletes;
  };

  /// Algorithm 4.1 over a transaction's net effect: the one screen that
  /// commit-time and deferred maintenance both run.  For each base
  /// occurrence `i` the effect touches, decides Theorem 4.1 for every
  /// inserted and deleted tuple and returns the relevant ones in entry `i`
  /// (untouched occurrences get empty entries).  When `stats` is non-null,
  /// adds the tuples examined to `updates_seen` and the tuples dropped to
  /// `updates_filtered`, and counts the transaction in `skipped_irrelevant`
  /// when the screen dropped every tuple routed to this view.
  std::vector<Survivors> Screen(const TransactionEffect& effect,
                                MaintenanceStats* stats) const;

  /// The compiled per-base filter (for stats and direct use).
  const SubstitutionFilter& base_filter(size_t base_index) const;

  /// The audit twin of `Screen`: re-derives the Theorem 4.1 decision
  /// for substituting `tuple` into the `base_index`-th base occurrence,
  /// recording the substituted condition, the invariant/variant split, and
  /// the negative-cycle witness when unsatisfiable.  Always agrees with
  /// `Screen` on the verdict.
  obs::IrrelevanceExplanation Explain(size_t base_index,
                                      const Tuple& tuple) const;

  /// The combined scheme the view condition ranges over.
  const Schema& combined_schema() const { return combined_; }

  /// The aliased scheme of base occurrence `base_index`.
  const Schema& aliased_schema(size_t base_index) const;

  /// Theorem 4.2: compiles a joint filter substituting tuples into several
  /// base occurrences simultaneously.  A set of tuples can be jointly
  /// irrelevant even when each one alone is relevant (their combination is
  /// contradictory).  `base_indices` must be distinct.
  SubstitutionFilter CompileJointFilter(
      const std::vector<size_t>& base_indices) const;

 private:
  const Database* db_;
  ViewDefinition def_;
  Schema combined_;
  std::vector<Schema> aliased_;
  std::vector<std::unique_ptr<SubstitutionFilter>> filters_;
};

}  // namespace mview

#endif  // MVIEW_IVM_IRRELEVANCE_H_
