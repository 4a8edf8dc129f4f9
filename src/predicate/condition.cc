#include "predicate/condition.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace mview {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCompare(int cmp, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Atom Atom::VarConst(std::string lhs, CompareOp op, Value c) {
  Atom a;
  a.lhs = std::move(lhs);
  a.op = op;
  a.rhs_const = std::move(c);
  return a;
}

Atom Atom::VarVar(std::string lhs, CompareOp op, std::string rhs,
                  int64_t offset) {
  Atom a;
  a.lhs = std::move(lhs);
  a.op = op;
  a.rhs_var = std::move(rhs);
  a.offset = offset;
  return a;
}

bool Atom::Evaluate(const Schema& schema, const Tuple& tuple) const {
  const Value& left = tuple.at(schema.MustIndexOf(lhs));
  if (!rhs_var.has_value()) {
    return EvalCompare(left.Compare(rhs_const), op);
  }
  const Value& right = tuple.at(schema.MustIndexOf(*rhs_var));
  if (offset == 0) return EvalCompare(left.Compare(right), op);
  // x op y + c with integer attributes.
  return EvalCompare(CompareShifted(left.AsInt64(), offset, right.AsInt64()),
                     op);
}

Atom Atom::Negated() const {
  Atom a = *this;
  switch (op) {
    case CompareOp::kEq:
      a.op = CompareOp::kNe;
      break;
    case CompareOp::kNe:
      a.op = CompareOp::kEq;
      break;
    case CompareOp::kLt:
      a.op = CompareOp::kGe;
      break;
    case CompareOp::kLe:
      a.op = CompareOp::kGt;
      break;
    case CompareOp::kGt:
      a.op = CompareOp::kLe;
      break;
    case CompareOp::kGe:
      a.op = CompareOp::kLt;
      break;
  }
  return a;
}

bool Atom::operator==(const Atom& other) const {
  return lhs == other.lhs && op == other.op && rhs_var == other.rhs_var &&
         rhs_const == other.rhs_const && offset == other.offset;
}

std::string Atom::ToString() const {
  std::ostringstream os;
  os << lhs << " " << CompareOpName(op) << " ";
  if (rhs_var.has_value()) {
    os << *rhs_var;
    if (offset > 0) os << " + " << offset;
    if (offset < 0) os << " - " << -offset;
  } else {
    os << rhs_const;
  }
  return os.str();
}

bool Conjunction::Evaluate(const Schema& schema, const Tuple& tuple) const {
  for (const auto& atom : atoms) {
    if (!atom.Evaluate(schema, tuple)) return false;
  }
  return true;
}

std::string Conjunction::ToString() const {
  if (atoms.empty()) return "true";
  std::ostringstream os;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) os << " && ";
    os << atoms[i].ToString();
  }
  return os.str();
}

Condition Condition::True() { return Condition({Conjunction{}}); }

Condition Condition::False() { return Condition(); }

Condition Condition::FromAtom(Atom atom) {
  return Condition({Conjunction{{std::move(atom)}}});
}

bool Condition::IsTriviallyTrue() const {
  for (const auto& d : disjuncts_) {
    if (d.atoms.empty()) return true;
  }
  return false;
}

std::vector<Atom> Condition::ConjunctiveCore() const {
  std::vector<Atom> core;
  if (disjuncts_.empty()) return core;
  for (const auto& atom : disjuncts_.front().atoms) {
    bool everywhere = true;
    for (size_t d = 1; d < disjuncts_.size() && everywhere; ++d) {
      const auto& atoms = disjuncts_[d].atoms;
      everywhere = std::find(atoms.begin(), atoms.end(), atom) != atoms.end();
    }
    if (everywhere) core.push_back(atom);
  }
  return core;
}

Condition Condition::And(const Condition& other) const {
  std::vector<Conjunction> out;
  out.reserve(disjuncts_.size() * other.disjuncts_.size());
  for (const auto& a : disjuncts_) {
    for (const auto& b : other.disjuncts_) {
      Conjunction c;
      c.atoms = a.atoms;
      c.atoms.insert(c.atoms.end(), b.atoms.begin(), b.atoms.end());
      out.push_back(std::move(c));
    }
  }
  return Condition(std::move(out));
}

Condition Condition::Or(const Condition& other) const {
  std::vector<Conjunction> out = disjuncts_;
  out.insert(out.end(), other.disjuncts_.begin(), other.disjuncts_.end());
  return Condition(std::move(out));
}

bool Condition::Evaluate(const Schema& schema, const Tuple& tuple) const {
  for (const auto& d : disjuncts_) {
    if (d.Evaluate(schema, tuple)) return true;
  }
  return false;
}

std::set<std::string> Condition::Variables() const {
  std::set<std::string> vars;
  for (const auto& d : disjuncts_) {
    for (const auto& a : d.atoms) {
      vars.insert(a.lhs);
      if (a.rhs_var.has_value()) vars.insert(*a.rhs_var);
    }
  }
  return vars;
}

void Condition::Validate(const Schema& schema) const {
  for (const auto& d : disjuncts_) {
    for (const auto& a : d.atoms) {
      size_t li = schema.MustIndexOf(a.lhs);
      ValueType lt = schema.attribute(li).type;
      if (a.rhs_var.has_value()) {
        size_t ri = schema.MustIndexOf(*a.rhs_var);
        ValueType rt = schema.attribute(ri).type;
        MVIEW_CHECK(lt == rt, "type mismatch in atom ", a.ToString());
        MVIEW_CHECK(a.offset == 0 || lt == ValueType::kInt64,
                    "offset on non-integer atom ", a.ToString());
      } else {
        MVIEW_CHECK(lt == a.rhs_const.type(), "type mismatch in atom ",
                    a.ToString());
        MVIEW_CHECK(a.offset == 0, "offset on constant atom ", a.ToString());
      }
    }
  }
}

std::string Condition::ToString() const {
  if (disjuncts_.empty()) return "false";
  std::ostringstream os;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) os << " || ";
    if (disjuncts_.size() > 1) os << "(" << disjuncts_[i].ToString() << ")";
    else os << disjuncts_[i].ToString();
  }
  return os.str();
}

bool IsRhAtom(const Atom& atom, const Schema& schema) {
  if (atom.op == CompareOp::kNe) return false;
  if (schema.attribute(schema.MustIndexOf(atom.lhs)).type !=
      ValueType::kInt64) {
    return false;
  }
  if (atom.rhs_var.has_value()) {
    return schema.attribute(schema.MustIndexOf(*atom.rhs_var)).type ==
           ValueType::kInt64;
  }
  return atom.rhs_const.type() == ValueType::kInt64;
}

bool IsRhCondition(const Condition& condition, const Schema& schema) {
  for (const auto& d : condition.disjuncts()) {
    for (const auto& a : d.atoms) {
      if (!IsRhAtom(a, schema)) return false;
    }
  }
  return true;
}

}  // namespace mview
