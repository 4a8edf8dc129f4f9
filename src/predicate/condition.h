#ifndef MVIEW_PREDICATE_CONDITION_H_
#define MVIEW_PREDICATE_CONDITION_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace mview {

/// Comparison operators of the condition language.
///
/// The Rosenkrantz–Hunt class used by the satisfiability machinery of
/// Section 4 admits `{=, <, >, ≤, ≥}`; `≠` is allowed in view definitions
/// (the differential algorithms evaluate it exactly) but excludes an atom
/// from the efficient unsatisfiability test.
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns the SQL-ish spelling of an operator ("=", "!=", "<", ...).
const char* CompareOpName(CompareOp op);

/// Applies `op` to a three-way comparison result.
bool EvalCompare(int cmp, CompareOp op);

/// Three-way comparison of `x − offset` against `y` in exact arithmetic:
/// how every evaluator decides `x op y + offset`.  Near the ends of the
/// int64 range `x − offset` leaves it, and wrapping would flip the answer.
inline int CompareShifted(int64_t x, int64_t offset, int64_t y) {
  const __int128 shifted = static_cast<__int128>(x) - offset;
  return shifted < y ? -1 : shifted > y ? 1 : 0;
}

/// An atomic formula: `x op c`, `x op y`, or `x op y + c` (Section 4).
///
/// `lhs` is always a variable (an attribute name).  When `rhs_var` is set the
/// atom compares two variables with an optional integer offset `offset`
/// (non-zero offsets require integer attributes); otherwise the atom compares
/// `lhs` against the constant `rhs_const`.
struct Atom {
  std::string lhs;
  CompareOp op = CompareOp::kEq;
  std::optional<std::string> rhs_var;
  Value rhs_const;     // comparand when rhs_var is empty
  int64_t offset = 0;  // the `c` of `x op y + c`; only with rhs_var

  /// Makes `x op constant`.
  static Atom VarConst(std::string lhs, CompareOp op, Value c);

  /// Makes `x op y + offset`.
  static Atom VarVar(std::string lhs, CompareOp op, std::string rhs,
                     int64_t offset = 0);

  /// Returns true when both sides are variables.
  bool IsVarVar() const { return rhs_var.has_value(); }

  /// Evaluates the atom against a tuple described by `schema`.
  bool Evaluate(const Schema& schema, const Tuple& tuple) const;

  /// Returns the atom with its comparison logically negated
  /// (`<` ↔ `≥`, `=` ↔ `≠`, ...).
  Atom Negated() const;

  bool operator==(const Atom& other) const;

  /// Renders as "A <= B + 3" or "A = 7".
  std::string ToString() const;
};

/// A conjunction of atomic formulae.  An empty conjunction is `true`.
struct Conjunction {
  std::vector<Atom> atoms;

  bool Evaluate(const Schema& schema, const Tuple& tuple) const;
  std::string ToString() const;
};

/// A selection condition in disjunctive normal form: `C1 ∨ C2 ∨ … ∨ Cm`
/// where each `Ci` is a conjunction of atomic formulae (Section 4).
///
/// A condition with no disjuncts is `false`; `Condition::True()` is the
/// single empty conjunction.
class Condition {
 public:
  /// Constructs `false`.
  Condition() = default;

  /// Constructs a DNF condition from disjuncts.
  explicit Condition(std::vector<Conjunction> disjuncts)
      : disjuncts_(std::move(disjuncts)) {}

  /// The always-true condition.
  static Condition True();

  /// The always-false condition.
  static Condition False();

  /// A condition with the single atom `atom`.
  static Condition FromAtom(Atom atom);

  const std::vector<Conjunction>& disjuncts() const { return disjuncts_; }
  bool IsTriviallyTrue() const;
  bool IsTriviallyFalse() const { return disjuncts_.empty(); }

  /// The atoms present in every disjunct (the conjunctive core).  They are
  /// implied by the condition, so a plan may enforce them while joining.
  /// Empty for `false`.
  std::vector<Atom> ConjunctiveCore() const;

  /// Logical AND; distributes to keep DNF (m1 * m2 disjuncts).
  Condition And(const Condition& other) const;

  /// Logical OR; concatenates disjunct lists.
  Condition Or(const Condition& other) const;

  /// Evaluates against a tuple described by `schema`.
  bool Evaluate(const Schema& schema, const Tuple& tuple) const;

  /// Returns the set of variables mentioned anywhere in the condition
  /// (the paper's `α(C)`).
  std::set<std::string> Variables() const;

  /// Validates that every variable resolves in `schema`, that compared
  /// attributes have matching types, and that offsets only appear on
  /// integer comparisons.  Throws `Error` on violations.
  void Validate(const Schema& schema) const;

  /// Renders as "(A < 10 && B = C) || (D >= E + 2)".
  std::string ToString() const;

 private:
  std::vector<Conjunction> disjuncts_;
};

/// Returns true when the atom is in the Rosenkrantz–Hunt class relative to
/// `schema`: integer-typed on both sides and not `≠`.
bool IsRhAtom(const Atom& atom, const Schema& schema);

/// Returns true when every atom of every disjunct is an RH atom, i.e. the
/// whole condition enjoys the `O(m·n³)` satisfiability test of Section 4.
bool IsRhCondition(const Condition& condition, const Schema& schema);

}  // namespace mview

#endif  // MVIEW_PREDICATE_CONDITION_H_
