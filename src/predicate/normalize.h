#ifndef MVIEW_PREDICATE_NORMALIZE_H_
#define MVIEW_PREDICATE_NORMALIZE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "predicate/condition.h"

namespace mview {

/// A normalized atomic formula: `x − y ≤ c`, where either side may be the
/// distinguished zero node (absent variable).
///
/// Section 4 normalizes every RH atom so that only `≤`/`≥` appear, folding
/// strict comparisons into the constant using the discreteness of the
/// domains (`x < y + c` becomes `x ≤ y + c − 1`) and splitting equalities
/// into two inequalities.  We carry the constraints in the canonical
/// difference form `x − y ≤ c`; in graph terms this is an edge `y → x` with
/// weight `c`, and the conjunction is unsatisfiable over the integers iff
/// the graph has a negative-weight cycle.
struct DifferenceConstraint {
  std::optional<std::string> x;  // nullopt denotes the zero node
  std::optional<std::string> y;
  int64_t c = 0;

  std::string ToString() const;
};

/// Normalizes one RH atom into one or two difference constraints.  A
/// constant past ±`ConstraintGraph::kInfinity` is saturated to it (a
/// looser bound, so unsatisfiability is never over-claimed).  Throws
/// `Error` when the atom is not in the RH class (`≠`, strings).
std::vector<DifferenceConstraint> NormalizeAtom(const Atom& atom);

/// Normalizes every atom of a conjunction.  Throws on non-RH atoms.
std::vector<DifferenceConstraint> NormalizeConjunction(
    const Conjunction& conjunction);

}  // namespace mview

#endif  // MVIEW_PREDICATE_NORMALIZE_H_
