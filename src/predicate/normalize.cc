#include "predicate/normalize.h"

#include <algorithm>
#include <sstream>

#include "predicate/constraint_graph.h"
#include "util/error.h"

namespace mview {

std::string DifferenceConstraint::ToString() const {
  std::ostringstream os;
  os << (x.has_value() ? *x : "0") << " - " << (y.has_value() ? *y : "0")
     << " <= " << c;
  return os.str();
}

namespace {

// `sign·c + delta` in exact arithmetic, saturated to the constraint
// graph's finite range.  A bound beyond ±kInfinity (only constants and
// offsets near the ends of int64 get there) is loosened to it, which can
// make a conjunction look satisfiable but never the reverse: the screen
// stays sound.
int64_t Bound(int sign, int64_t c, int delta) {
  constexpr __int128 kInf = ConstraintGraph::kInfinity;
  const __int128 v = static_cast<__int128>(c) * sign + delta;
  return static_cast<int64_t>(std::clamp(v, -kInf, kInf));
}

}  // namespace

std::vector<DifferenceConstraint> NormalizeAtom(const Atom& atom) {
  MVIEW_CHECK(atom.op != CompareOp::kNe,
              "cannot normalize a '≠' atom: ", atom.ToString());
  std::optional<std::string> x = atom.lhs;
  std::optional<std::string> y;
  int64_t c;
  if (atom.rhs_var.has_value()) {
    y = *atom.rhs_var;
    c = atom.offset;
  } else {
    MVIEW_CHECK(atom.rhs_const.type() == ValueType::kInt64,
                "cannot normalize non-integer atom: ", atom.ToString());
    c = atom.rhs_const.AsInt64();
  }
  // The atom is now `x op y + c` with y possibly the zero node.
  std::vector<DifferenceConstraint> out;
  switch (atom.op) {
    case CompareOp::kLe:  // x - y <= c
      out.push_back({x, y, Bound(1, c, 0)});
      break;
    case CompareOp::kLt:  // x - y <= c - 1
      out.push_back({x, y, Bound(1, c, -1)});
      break;
    case CompareOp::kGe:  // y - x <= -c
      out.push_back({y, x, Bound(-1, c, 0)});
      break;
    case CompareOp::kGt:  // y - x <= -c - 1
      out.push_back({y, x, Bound(-1, c, -1)});
      break;
    case CompareOp::kEq:  // both directions
      out.push_back({x, y, Bound(1, c, 0)});
      out.push_back({y, x, Bound(-1, c, 0)});
      break;
    case CompareOp::kNe:
      break;  // unreachable, checked above
  }
  return out;
}

std::vector<DifferenceConstraint> NormalizeConjunction(
    const Conjunction& conjunction) {
  std::vector<DifferenceConstraint> out;
  for (const auto& atom : conjunction.atoms) {
    auto cs = NormalizeAtom(atom);
    out.insert(out.end(), cs.begin(), cs.end());
  }
  return out;
}

}  // namespace mview
