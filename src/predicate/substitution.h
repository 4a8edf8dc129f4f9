#ifndef MVIEW_PREDICATE_SUBSTITUTION_H_
#define MVIEW_PREDICATE_SUBSTITUTION_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "predicate/condition.h"
#include "predicate/constraint_graph.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace mview {

/// The formula classification of Definition 4.2, relative to a set of
/// substituted variables (the attributes `Y1` of the updated relation(s)).
enum class FormulaClass {
  /// No variable of the atom is substituted; the atom is unchanged.
  kInvariant,
  /// Every variable is substituted; after substitution the atom is ground
  /// (`c op d`) and simply evaluates to true or false.
  kVariantEvaluable,
  /// Some but not all variables are substituted; the atom becomes a
  /// variable-vs-constant constraint (`x op c`).
  kVariantNonEvaluable,
};

/// Classifies an atom given a predicate telling which variables are
/// substituted.
FormulaClass ClassifyAtom(
    const Atom& atom,
    const std::function<bool(const std::string&)>& is_substituted);

/// A compiled filter deciding Theorem 4.1 / 4.2 for batches of tuples.
///
/// Construction performs the per-(view, relation) work of Algorithm 4.1
/// once: the condition's disjuncts are normalized, their atoms classified
/// per Definition 4.2, the invariant portion of each constraint graph is
/// built and closed with Floyd's algorithm, variant evaluable atoms are
/// compiled to direct slot comparisons, and variant non-evaluable atoms to
/// weighted-edge templates whose weight is an affine function of one
/// substituted value.  `MightBeRelevant` then costs `O(atoms + e·n²)` per
/// tuple instead of a fresh `O(n³)` closure.
///
/// For conditions wholly inside the Rosenkrantz–Hunt class the filter is
/// exact (Theorem 4.1: necessary and sufficient).  Atoms outside the class
/// are handled soundly: those fully grounded by the substitution are
/// evaluated exactly; the rest are conservatively assumed satisfiable, so a
/// relevant update is never dropped.
///
/// Not thread-safe: each call reuses internal scratch space.
class SubstitutionFilter {
 public:
  /// Compiles `condition` (over variables typed by `variables`) for
  /// substitutions of whole tuples of the given `substituted` schemes.
  /// The substituted schemes must have pairwise-distinct attribute names
  /// and be sub-schemes of `variables` (Definition 4.3).
  SubstitutionFilter(const Condition& condition, const Schema& variables,
                     std::vector<Schema> substituted);

  /// Theorem 4.2 test: returns false iff `C(t1, …, tk, Y2)` is provably
  /// unsatisfiable — i.e. the simultaneous update is irrelevant to the view
  /// for every database state.  `tuples[i]` instantiates `substituted[i]`.
  bool MightBeRelevant(std::span<const Tuple* const> tuples) const;

  /// Theorem 4.1 convenience for a single substituted scheme.
  bool MightBeRelevant(const Tuple& tuple) const;

  /// True when the filter proved at compile time that *every* update is
  /// relevant (some disjunct has no variant atoms and a satisfiable
  /// invariant part).
  bool always_relevant() const { return always_relevant_; }

  /// True when the filter proved at compile time that *no* update is
  /// relevant (every disjunct's invariant part is unsatisfiable — the view
  /// is empty in every database state).
  bool never_relevant() const { return disjuncts_.empty() && !always_relevant_; }

  /// Compile-time statistics (for diagnostics and the benchmark tables).
  struct Stats {
    size_t input_disjuncts = 0;
    size_t dropped_disjuncts = 0;      // invariant part unsatisfiable
    size_t invariant_atoms = 0;        // Definition 4.2 (2)
    size_t variant_evaluable = 0;      // Definition 4.2 (1), ground
    size_t variant_non_evaluable = 0;  // Definition 4.2 (1), x op c
    size_t conservative_atoms = 0;     // outside the RH class, not ground
  };
  const Stats& stats() const { return stats_; }

 private:
  // Where a substituted variable's value comes from: tuple `relation`,
  // attribute position `attr`.
  struct Slot {
    size_t relation = 0;
    size_t attr = 0;
  };

  // A ground-after-substitution comparison.
  struct EvalAtom {
    Slot lhs;
    CompareOp op = CompareOp::kEq;
    bool rhs_is_slot = false;
    Slot rhs;
    Value rhs_const;
    int64_t offset = 0;  // lhs op rhs + offset (integers only)
  };

  // A variant non-evaluable atom compiled to a constraint-graph edge whose
  // weight is `coeff * value(slot) + bias`.
  struct EdgeTemplate {
    size_t from = 0;
    size_t to = 0;
    int64_t coeff = 0;
    int64_t bias = 0;
    Slot slot;
  };

  struct CompiledDisjunct {
    std::vector<EvalAtom> eval_atoms;
    std::vector<EdgeTemplate> edge_templates;
    ConstraintGraph invariant;
    size_t num_nodes = 0;
  };

  bool FindSlot(const std::string& var, Slot* slot) const;
  void CompileDisjunct(const Conjunction& disjunct);
  bool EvaluateAtom(const EvalAtom& atom,
                    std::span<const Tuple* const> tuples) const;
  static const Value& SlotValue(const Slot& slot,
                                std::span<const Tuple* const> tuples);

  Schema variables_;
  std::vector<Schema> substituted_;
  std::vector<CompiledDisjunct> disjuncts_;
  bool always_relevant_ = false;
  Stats stats_;
  mutable std::vector<int64_t> scratch_;
  mutable std::vector<GraphEdge> edge_scratch_;
};

}  // namespace mview

#endif  // MVIEW_PREDICATE_SUBSTITUTION_H_
