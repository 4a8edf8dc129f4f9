#ifndef MVIEW_IVM_VIEW_DEF_H_
#define MVIEW_IVM_VIEW_DEF_H_

#include <string>
#include <vector>

#include "db/database.h"
#include "predicate/condition.h"
#include "ra/expr.h"
#include "relational/schema.h"

namespace mview {

/// One occurrence of a base relation inside a view definition.
///
/// `aliases` renames the relation's attributes for this occurrence (empty
/// means "keep the original names").  Aliasing keeps attribute names unique
/// across the view's base relations — the paper's canonical SPJ form
/// `π_X(σ_C(r1 × … × rp))` assumes disjoint schemes (Definition 4.3) — and
/// makes self-joins expressible.
struct BaseRef {
  std::string relation;
  std::vector<std::string> aliases;
};

/// A select–project–join view definition (Section 3):
/// `V = π_projection(σ_condition(bases[0] × bases[1] × …))`.
///
/// The condition and projection refer to the *aliased* attribute names.  An
/// empty projection keeps every attribute of the combined scheme.
class ViewDefinition {
 public:
  ViewDefinition() = default;

  /// Builds a definition from parts; `condition` is parsed from text.
  ViewDefinition(std::string name, std::vector<BaseRef> bases,
                 const std::string& condition,
                 std::vector<std::string> projection = {});

  /// Same, with a pre-built condition.
  ViewDefinition(std::string name, std::vector<BaseRef> bases,
                 Condition condition, std::vector<std::string> projection = {});

  /// Convenience: a select(-project) view over one relation (Section 5.1).
  static ViewDefinition Select(std::string name, std::string relation,
                               const std::string& condition,
                               std::vector<std::string> projection = {});

  /// Convenience: `π_projection(relation)` (Section 5.2).
  static ViewDefinition Project(std::string name, std::string relation,
                                std::vector<std::string> projection);

  /// Convenience: the natural join `R1 ⋈ R2 ⋈ … ⋈ Rp` (Section 5.3),
  /// optionally σ-filtered and projected.  Shared attribute names are
  /// desugared into aliases (`rel.attr` for repeated occurrences) plus
  /// equality atoms, and the default projection keeps each shared attribute
  /// once, per natural-join semantics.  `extra_condition` ("" = none) and a
  /// non-empty `projection` refer to the original attribute names (first
  /// occurrences).
  static ViewDefinition NaturalJoin(std::string name,
                                    const std::vector<std::string>& relations,
                                    const Database& db,
                                    const std::string& extra_condition = "",
                                    std::vector<std::string> projection = {});

  /// Flattens an SPJ-shaped expression tree (base / select / product /
  /// natural-join, with one optional outermost project) into a definition.
  /// Throws when the tree contains union, difference, rename, or an inner
  /// projection (outside the paper's SPJ class or not in canonical form).
  static ViewDefinition FromExpr(std::string name, const ExprPtr& expr,
                                 const Database& db);

  const std::string& name() const { return name_; }
  const std::vector<BaseRef>& bases() const { return bases_; }
  const Condition& condition() const { return condition_; }
  const std::vector<std::string>& projection() const { return projection_; }

  /// The aliased scheme of base occurrence `base_index`.
  Schema AliasedSchema(const Database& db, size_t base_index) const;

  /// The combined scheme (concatenation of all aliased schemes).
  Schema CombinedSchema(const Database& db) const;

  /// The scheme of the materialized view (projection applied).
  Schema OutputSchema(const Database& db) const;

  /// Validates relations, aliases, condition, and projection against `db`.
  void Validate(const Database& db) const;

  /// Returns, for each base occurrence, the original attribute names that
  /// participate in equality join predicates of the condition's conjunctive
  /// core — the attributes worth indexing for differential re-evaluation.
  std::vector<std::vector<std::string>> JoinAttributes(
      const Database& db) const;

  /// Renders as "V = π{...}(σ[...](r × s))".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<BaseRef> bases_;
  Condition condition_;
  std::vector<std::string> projection_;
};

}  // namespace mview

#endif  // MVIEW_IVM_VIEW_DEF_H_
