#include "ivm/view_def.h"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "predicate/parser.h"
#include "util/error.h"

namespace mview {

ViewDefinition::ViewDefinition(std::string name, std::vector<BaseRef> bases,
                               const std::string& condition,
                               std::vector<std::string> projection)
    : ViewDefinition(std::move(name), std::move(bases),
                     condition.empty() ? Condition::True()
                                       : ParseCondition(condition),
                     std::move(projection)) {}

ViewDefinition::ViewDefinition(std::string name, std::vector<BaseRef> bases,
                               Condition condition,
                               std::vector<std::string> projection)
    : name_(std::move(name)),
      bases_(std::move(bases)),
      condition_(std::move(condition)),
      projection_(std::move(projection)) {
  MVIEW_CHECK(!name_.empty(), "view name cannot be empty");
  MVIEW_CHECK(!bases_.empty(), "view needs at least one base relation");
}

ViewDefinition ViewDefinition::Select(std::string name, std::string relation,
                                      const std::string& condition,
                                      std::vector<std::string> projection) {
  return ViewDefinition(std::move(name), {BaseRef{std::move(relation), {}}},
                        condition, std::move(projection));
}

ViewDefinition ViewDefinition::Project(std::string name, std::string relation,
                                       std::vector<std::string> projection) {
  return ViewDefinition(std::move(name), {BaseRef{std::move(relation), {}}},
                        Condition::True(), std::move(projection));
}

ViewDefinition ViewDefinition::NaturalJoin(
    std::string name, const std::vector<std::string>& relations,
    const Database& db, const std::string& extra_condition,
    std::vector<std::string> projection) {
  MVIEW_CHECK(!relations.empty(), "natural join needs relations");
  std::vector<BaseRef> bases;
  Condition condition = extra_condition.empty()
                            ? Condition::True()
                            : ParseCondition(extra_condition);
  // first occurrence of each attribute name → its alias (the name itself)
  std::set<std::string> seen;
  std::vector<std::string> natural_projection;
  for (const auto& rel_name : relations) {
    const Relation& rel = db.Get(rel_name);
    BaseRef ref{rel_name, {}};
    for (const auto& attr : rel.schema().attributes()) {
      if (seen.insert(attr.name).second) {
        ref.aliases.push_back(attr.name);
        natural_projection.push_back(attr.name);
      } else {
        // Repeated attribute: rename and equate with the first occurrence.
        std::string alias = rel_name + "." + attr.name;
        // Self-joins can repeat the same relation; disambiguate further.
        size_t suffix = 2;
        while (!seen.insert(alias).second) {
          alias = rel_name + "." + attr.name + "#" + std::to_string(suffix++);
        }
        ref.aliases.push_back(alias);
        condition = condition.And(Condition::FromAtom(
            Atom::VarVar(attr.name, CompareOp::kEq, alias)));
      }
    }
    bases.push_back(std::move(ref));
  }
  if (projection.empty()) projection = std::move(natural_projection);
  return ViewDefinition(std::move(name), std::move(bases),
                        std::move(condition), std::move(projection));
}

namespace {

// Collects bases and the conjoined condition from an SPJ-shaped tree.
void FlattenSpj(const ExprPtr& expr, const Database& db,
                std::vector<BaseRef>* bases, Condition* condition,
                std::set<std::string>* seen) {
  switch (expr->kind()) {
    case Expr::Kind::kBase: {
      const Relation& rel = db.Get(expr->base_name());
      BaseRef ref{expr->base_name(), {}};
      for (const auto& attr : rel.schema().attributes()) {
        MVIEW_CHECK(seen->insert(attr.name).second,
                    "attribute '", attr.name,
                    "' appears in two base relations; use "
                    "ViewDefinition::NaturalJoin or explicit aliases");
        ref.aliases.push_back(attr.name);
      }
      bases->push_back(std::move(ref));
      return;
    }
    case Expr::Kind::kSelect:
      FlattenSpj(expr->left(), db, bases, condition, seen);
      *condition = condition->And(expr->condition());
      return;
    case Expr::Kind::kProduct:
      FlattenSpj(expr->left(), db, bases, condition, seen);
      FlattenSpj(expr->right(), db, bases, condition, seen);
      return;
    case Expr::Kind::kNaturalJoin:
      internal::ThrowError(
          "natural joins inside expressions cannot be flattened "
          "automatically; use ViewDefinition::NaturalJoin");
    default:
      internal::ThrowError("expression is not in the SPJ view class: ",
                           expr->ToString());
  }
}

}  // namespace

ViewDefinition ViewDefinition::FromExpr(std::string name, const ExprPtr& expr,
                                        const Database& db) {
  MVIEW_CHECK(expr != nullptr, "null expression");
  ExprPtr body = expr;
  std::vector<std::string> projection;
  if (body->kind() == Expr::Kind::kProject) {
    projection = body->attributes();
    body = body->left();
  }
  std::vector<BaseRef> bases;
  Condition condition = Condition::True();
  std::set<std::string> seen;
  FlattenSpj(body, db, &bases, &condition, &seen);
  return ViewDefinition(std::move(name), std::move(bases),
                        std::move(condition), std::move(projection));
}

Schema ViewDefinition::AliasedSchema(const Database& db,
                                     size_t base_index) const {
  MVIEW_CHECK(base_index < bases_.size(), "base index out of range");
  const BaseRef& ref = bases_[base_index];
  const Schema& original = db.Get(ref.relation).schema();
  if (ref.aliases.empty()) return original;
  MVIEW_CHECK(ref.aliases.size() == original.size(),
              "alias count does not match scheme of ", ref.relation);
  std::vector<Attribute> attrs = original.attributes();
  for (size_t i = 0; i < attrs.size(); ++i) attrs[i].name = ref.aliases[i];
  return Schema(std::move(attrs));
}

Schema ViewDefinition::CombinedSchema(const Database& db) const {
  Schema combined;
  for (size_t i = 0; i < bases_.size(); ++i) {
    combined = combined.Concat(AliasedSchema(db, i));
  }
  return combined;
}

Schema ViewDefinition::OutputSchema(const Database& db) const {
  Schema combined = CombinedSchema(db);
  return projection_.empty() ? combined : combined.Project(projection_);
}

void ViewDefinition::Validate(const Database& db) const {
  Schema combined = CombinedSchema(db);  // throws on clashes/unknown bases
  condition_.Validate(combined);
  if (!projection_.empty()) combined.Project(projection_);
}

namespace {

// Calls `fn(lhs_base, lhs_attr, rhs_base, rhs_attr)` for each equality atom
// of `def`'s conjunctive core that joins two different base occurrences
// (attribute indices are positions in the base's scheme).
template <typename Fn>
void ForEachCoreEquiJoin(const ViewDefinition& def, const Database& db,
                         Fn&& fn) {
  std::vector<Schema> aliased;
  aliased.reserve(def.bases().size());
  for (size_t i = 0; i < def.bases().size(); ++i) {
    aliased.push_back(def.AliasedSchema(db, i));
  }
  // The first base owning a name, as SpjExecutor::Resolve picks it.
  auto owner = [&](const std::string& var) -> std::optional<size_t> {
    for (size_t i = 0; i < aliased.size(); ++i) {
      if (aliased[i].Contains(var)) return i;
    }
    return std::nullopt;
  };
  for (const auto& atom : def.condition().ConjunctiveCore()) {
    if (atom.op != CompareOp::kEq || !atom.rhs_var.has_value()) continue;
    auto lo = owner(atom.lhs);
    auto ro = owner(*atom.rhs_var);
    if (!lo.has_value() || !ro.has_value() || *lo == *ro) continue;
    fn(*lo, aliased[*lo].MustIndexOf(atom.lhs), *ro,
       aliased[*ro].MustIndexOf(*atom.rhs_var));
  }
}

}  // namespace

std::vector<std::vector<std::string>> ViewDefinition::JoinAttributes(
    const Database& db) const {
  std::vector<std::vector<std::string>> result(bases_.size());
  auto add = [&](size_t base, size_t pos) {
    const std::string& original =
        db.Get(bases_[base].relation).schema().attribute(pos).name;
    auto& list = result[base];
    if (std::find(list.begin(), list.end(), original) == list.end()) {
      list.push_back(original);
    }
  };
  ForEachCoreEquiJoin(*this, db, [&](size_t lb, size_t la, size_t rb,
                                      size_t ra) {
    add(lb, la);
    add(rb, ra);
  });
  return result;
}

std::string ViewDefinition::ToString() const {
  std::ostringstream os;
  os << name_ << " = ";
  if (!projection_.empty()) {
    os << "π{";
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (i > 0) os << ",";
      os << projection_[i];
    }
    os << "}(";
  }
  os << "σ[" << condition_.ToString() << "](";
  for (size_t i = 0; i < bases_.size(); ++i) {
    if (i > 0) os << " × ";
    os << bases_[i].relation;
  }
  os << ")";
  if (!projection_.empty()) os << ")";
  return os.str();
}

}  // namespace mview
