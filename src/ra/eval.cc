#include "ra/eval.h"

#include <unordered_map>

#include "util/error.h"

namespace mview {
namespace {

// Returns the indices (into left/right schemes) of shared attribute names
// and the right-side indices that are not shared.
void SplitJoinAttributes(const Schema& left, const Schema& right,
                         std::vector<size_t>* left_shared,
                         std::vector<size_t>* right_shared,
                         std::vector<size_t>* right_rest) {
  for (size_t i = 0; i < right.size(); ++i) {
    const auto& attr = right.attribute(i);
    if (auto li = left.IndexOf(attr.name)) {
      MVIEW_CHECK(left.attribute(*li).type == attr.type,
                  "natural-join attribute type mismatch: ", attr.name);
      left_shared->push_back(*li);
      right_shared->push_back(i);
    } else {
      right_rest->push_back(i);
    }
  }
}

Schema JoinSchema(const Schema& left, const Schema& right) {
  std::vector<size_t> ls, rs, rr;
  SplitJoinAttributes(left, right, &ls, &rs, &rr);
  std::vector<Attribute> attrs = left.attributes();
  for (size_t i : rr) attrs.push_back(right.attribute(i));
  return Schema(std::move(attrs));
}

}  // namespace

Schema InferSchema(const Expr& expr, const Database& db) {
  switch (expr.kind()) {
    case Expr::Kind::kBase:
      return db.Get(expr.base_name()).schema();
    case Expr::Kind::kSelect: {
      Schema in = InferSchema(*expr.left(), db);
      expr.condition().Validate(in);
      return in;
    }
    case Expr::Kind::kProject:
      return InferSchema(*expr.left(), db).Project(expr.attributes());
    case Expr::Kind::kProduct:
      return InferSchema(*expr.left(), db)
          .Concat(InferSchema(*expr.right(), db));
    case Expr::Kind::kNaturalJoin:
      return JoinSchema(InferSchema(*expr.left(), db),
                        InferSchema(*expr.right(), db));
    case Expr::Kind::kUnion:
    case Expr::Kind::kDifference: {
      Schema l = InferSchema(*expr.left(), db);
      Schema r = InferSchema(*expr.right(), db);
      MVIEW_CHECK(l == r, "union/difference operands differ: ", l.ToString(),
                  " vs ", r.ToString());
      return l;
    }
    case Expr::Kind::kRename: {
      Schema in = InferSchema(*expr.left(), db);
      std::vector<Attribute> attrs = in.attributes();
      for (auto& a : attrs) {
        auto it = expr.renames().find(a.name);
        if (it != expr.renames().end()) a.name = it->second;
      }
      for (const auto& [from, to] : expr.renames()) {
        MVIEW_CHECK(in.Contains(from), "rename of unknown attribute: ", from);
      }
      return Schema(std::move(attrs));
    }
  }
  internal::ThrowError("corrupt expression tree");
}

CountedRelation Evaluate(const Expr& expr, const Database& db) {
  Schema out_schema = InferSchema(expr, db);
  switch (expr.kind()) {
    case Expr::Kind::kBase: {
      CountedRelation out(out_schema);
      db.Get(expr.base_name()).Scan([&](const Tuple& t) { out.Add(t, 1); });
      return out;
    }
    case Expr::Kind::kSelect: {
      CountedRelation in = Evaluate(*expr.left(), db);
      CountedRelation out(out_schema);
      in.Scan([&](const Tuple& t, int64_t c) {
        if (expr.condition().Evaluate(in.schema(), t)) out.Add(t, c);
      });
      return out;
    }
    case Expr::Kind::kProject: {
      CountedRelation in = Evaluate(*expr.left(), db);
      std::vector<size_t> indices;
      in.schema().Project(expr.attributes(), &indices);
      CountedRelation out(out_schema);
      // Section 5.2: the projected tuple's multiplicity is the sum of the
      // multiplicities of the operand tuples that map to it.
      in.Scan([&](const Tuple& t, int64_t c) { out.Add(t.Project(indices), c); });
      return out;
    }
    case Expr::Kind::kProduct: {
      CountedRelation l = Evaluate(*expr.left(), db);
      CountedRelation r = Evaluate(*expr.right(), db);
      CountedRelation out(out_schema);
      l.Scan([&](const Tuple& lt, int64_t lc) {
        r.Scan([&](const Tuple& rt, int64_t rc) {
          out.Add(lt.Concat(rt), lc * rc);
        });
      });
      return out;
    }
    case Expr::Kind::kNaturalJoin: {
      CountedRelation l = Evaluate(*expr.left(), db);
      CountedRelation r = Evaluate(*expr.right(), db);
      std::vector<size_t> ls, rs, rr;
      SplitJoinAttributes(l.schema(), r.schema(), &ls, &rs, &rr);
      // Hash the right side on the shared attributes.
      std::unordered_map<Tuple, std::vector<std::pair<Tuple, int64_t>>> table;
      table.reserve(r.size());
      r.Scan([&](const Tuple& rt, int64_t rc) {
        table[rt.Project(rs)].emplace_back(rt.Project(rr), rc);
      });
      CountedRelation out(out_schema);
      // One scratch key reused across probes: overwriting its values
      // avoids allocating a fresh key tuple per left row.
      Tuple probe = Tuple::OfSize(ls.size());
      l.Scan([&](const Tuple& lt, int64_t lc) {
        std::span<Value> key_vals = probe.mutable_values();
        for (size_t i = 0; i < ls.size(); ++i) key_vals[i] = lt.at(ls[i]);
        auto hit = table.find(probe);
        if (hit == table.end()) return;
        for (const auto& [rest, rc] : hit->second) {
          // Section 5.2: t(N) = u(N) * v(N).
          out.Add(lt.Concat(rest), lc * rc);
        }
      });
      return out;
    }
    case Expr::Kind::kUnion: {
      CountedRelation out = Evaluate(*expr.left(), db);
      CountedRelation r = Evaluate(*expr.right(), db);
      r.Scan([&](const Tuple& t, int64_t c) { out.Add(t, c); });
      return out;
    }
    case Expr::Kind::kDifference: {
      CountedRelation out = Evaluate(*expr.left(), db);
      CountedRelation r = Evaluate(*expr.right(), db);
      // With counting semantics projection distributes over difference
      // (Section 5.2); subtraction below zero indicates a misuse and throws.
      r.Scan([&](const Tuple& t, int64_t c) { out.Add(t, -c); });
      return out;
    }
    case Expr::Kind::kRename: {
      CountedRelation in = Evaluate(*expr.left(), db);
      CountedRelation out(out_schema);
      in.Scan([&](const Tuple& t, int64_t c) { out.Add(t, c); });
      return out;
    }
  }
  internal::ThrowError("corrupt expression tree");
}

BoundAtom BindAtom(const Atom& atom, const Schema& schema, size_t col_offset) {
  BoundAtom bound;
  bound.lhs_col = col_offset + schema.MustIndexOf(atom.lhs);
  bound.op = atom.op;
  if (atom.rhs_var.has_value()) {
    bound.var_var = true;
    bound.rhs_col = col_offset + schema.MustIndexOf(*atom.rhs_var);
    bound.offset = atom.offset;
  } else {
    bound.rhs_const = atom.rhs_const;
  }
  return bound;
}

bool EvalBoundAtom(const ColumnBatch& batch, size_t row,
                   const BoundAtom& atom) {
  const bool lhs_int = batch.column_type(atom.lhs_col) == ValueType::kInt64;
  if (!atom.var_var) {
    if (lhs_int) {
      const int64_t left = batch.ints(atom.lhs_col)[row];
      const int64_t right = atom.rhs_const.AsInt64();
      return EvalCompare(left < right ? -1 : (left > right ? 1 : 0), atom.op);
    }
    const std::string_view left = batch.strs(atom.lhs_col)[row];
    return EvalCompare(left.compare(atom.rhs_const.AsString()), atom.op);
  }
  if (lhs_int) {
    // Matches Atom::Evaluate exactly: x op y + c compares x − c against y.
    return EvalCompare(CompareShifted(batch.ints(atom.lhs_col)[row],
                                      atom.offset,
                                      batch.ints(atom.rhs_col)[row]),
                       atom.op);
  }
  const std::string_view left = batch.strs(atom.lhs_col)[row];
  const std::string_view right = batch.strs(atom.rhs_col)[row];
  return EvalCompare(left.compare(right), atom.op);
}

size_t SelectConjunction(const ColumnBatch& batch,
                         const std::vector<BoundAtom>& atoms, uint32_t* sel,
                         size_t n) {
  for (const BoundAtom& atom : atoms) {
    size_t kept = 0;
    // One tight pass per atom over the surviving rows; the common
    // int-column cases compile to branchy-but-simple word compares.
    for (size_t i = 0; i < n; ++i) {
      if (EvalBoundAtom(batch, sel[i], atom)) sel[kept++] = sel[i];
    }
    n = kept;
    if (n == 0) break;
  }
  return n;
}

BoundDnf BindCondition(const Condition& condition, const Schema& schema) {
  BoundDnf dnf;
  dnf.reserve(condition.disjuncts().size());
  for (const Conjunction& conj : condition.disjuncts()) {
    std::vector<BoundAtom> atoms;
    atoms.reserve(conj.atoms.size());
    for (const Atom& atom : conj.atoms) {
      atoms.push_back(BindAtom(atom, schema));
    }
    dnf.push_back(std::move(atoms));
  }
  return dnf;
}

size_t SelectDnf(const ColumnBatch& batch, const BoundDnf& dnf, uint32_t* sel,
                 size_t n) {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = sel[i];
    for (const auto& conj : dnf) {
      bool pass = true;
      for (const BoundAtom& atom : conj) {
        if (!EvalBoundAtom(batch, row, atom)) {
          pass = false;
          break;
        }
      }
      if (pass) {
        sel[kept++] = static_cast<uint32_t>(row);
        break;
      }
    }
  }
  return kept;
}

}  // namespace mview
