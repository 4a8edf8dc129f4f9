#include "ra/decomposition.h"

#include <algorithm>
#include <optional>

#include "util/error.h"

namespace mview {
namespace {

// Reflects an operator across the comparison (a op b ⇔ b Reflect(op) a).
CompareOp Reflect(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
  }
  return op;
}

// A set of rows over the concatenation of `members`' schemes (in order).
struct SubResult {
  std::vector<size_t> members;  // input indices
  std::vector<std::pair<std::vector<Value>, int64_t>> rows;
};

class Decomposer {
 public:
  Decomposer(const SpjQuery& query, CountedRelation* out, int64_t multiplier,
             PlanStats* stats)
      : query_(query), out_(out), multiplier_(multiplier), stats_(stats) {}

  void Run();

 private:
  // Resolves a variable to (input index, local attribute index).
  std::pair<size_t, size_t> Resolve(const std::string& var) const {
    for (size_t i = 0; i < query_.inputs.size(); ++i) {
      if (auto idx = query_.inputs[i]->schema().IndexOf(var)) return {i, *idx};
    }
    internal::ThrowError("condition variable not found in any input: ", var);
  }

  // Which inputs does this atom reference?
  std::pair<size_t, std::optional<size_t>> AtomInputs(const Atom& atom) const {
    auto [li, la] = Resolve(atom.lhs);
    (void)la;
    if (!atom.rhs_var.has_value()) return {li, std::nullopt};
    auto [ri, ra] = Resolve(*atom.rhs_var);
    (void)ra;
    if (ri == li) return {li, std::nullopt};
    return {li, ri};
  }

  // Substitutes input `bound`'s tuple `t` into `atom`.  Returns false when
  // the grounded atom evaluates to false (prune).  When the atom survives
  // half-grounded, appends the rewritten constant atom to `out`.
  bool SubstituteAtom(const Atom& atom, size_t bound, const Tuple& t,
                      std::vector<Atom>* out) const {
    const Schema& schema = query_.inputs[bound]->schema();
    bool lhs_bound = schema.Contains(atom.lhs);
    bool rhs_bound = atom.rhs_var.has_value() && schema.Contains(*atom.rhs_var);
    if (!lhs_bound && !rhs_bound) {
      out->push_back(atom);
      return true;
    }
    if (lhs_bound && (!atom.rhs_var.has_value() || rhs_bound)) {
      return atom.Evaluate(schema, t);  // fully grounded
    }
    if (lhs_bound) {
      // value op y + c  ⇔  y Reflect(op) (value − c).
      const Value& v = t.at(schema.MustIndexOf(atom.lhs));
      Value constant = atom.offset == 0 ? v : Value(v.AsInt64() - atom.offset);
      out->push_back(Atom::VarConst(*atom.rhs_var, Reflect(atom.op),
                                    std::move(constant)));
      return true;
    }
    // x op value + c  ⇔  x op (value + c).
    const Value& v = t.at(schema.MustIndexOf(*atom.rhs_var));
    Value constant = atom.offset == 0 ? v : Value(v.AsInt64() + atom.offset);
    out->push_back(Atom::VarConst(atom.lhs, atom.op, std::move(constant)));
    return true;
  }

  // Filters `input`'s materialized rows by the atoms that reference only it.
  std::vector<std::pair<Tuple, int64_t>> FilterRows(
      size_t input, const std::vector<Atom>& atoms) const {
    const Schema& schema = query_.inputs[input]->schema();
    std::vector<std::pair<Tuple, int64_t>> rows;
    for (const auto& [t, c] : materialized_[input]) {
      bool keep = true;
      for (const Atom& atom : atoms) {
        auto [a, b] = AtomInputs(atom);
        if (a != input || b.has_value()) continue;
        if (!atom.Evaluate(schema, t)) {
          keep = false;
          break;
        }
      }
      if (keep) rows.emplace_back(t, c);
    }
    return rows;
  }

  // The recursive decomposition: evaluates the conjunctive query over
  // `inputs` with `atoms`, all of which reference only those inputs.
  // The returned members are always in ascending input order (canonical),
  // so results from different recursion shapes compose consistently.
  SubResult Solve(std::vector<size_t> inputs, std::vector<Atom> atoms) const;

  // Permutes a result's row layout so that members are ascending.
  void Canonicalize(SubResult* result) const;

  // Splits `inputs` into connected components under `atoms`.
  std::vector<std::vector<size_t>> Components(
      const std::vector<size_t>& inputs,
      const std::vector<Atom>& atoms) const;

  const SpjQuery& query_;
  CountedRelation* out_;
  int64_t multiplier_;
  PlanStats* stats_;
  std::vector<std::vector<std::pair<Tuple, int64_t>>> materialized_;
};

std::vector<std::vector<size_t>> Decomposer::Components(
    const std::vector<size_t>& inputs, const std::vector<Atom>& atoms) const {
  // Union-find over the member inputs.
  std::vector<size_t> parent(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto position = [&](size_t input) {
    return static_cast<size_t>(
        std::find(inputs.begin(), inputs.end(), input) - inputs.begin());
  };
  for (const Atom& atom : atoms) {
    auto [a, b] = AtomInputs(atom);
    if (!b.has_value()) continue;
    size_t pa = find(position(a));
    size_t pb = find(position(*b));
    if (pa != pb) parent[pa] = pb;
  }
  std::vector<std::vector<size_t>> components;
  std::vector<int> component_of(inputs.size(), -1);
  for (size_t i = 0; i < inputs.size(); ++i) {
    size_t root = find(i);
    if (component_of[root] < 0) {
      component_of[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<size_t>(component_of[root])].push_back(inputs[i]);
  }
  return components;
}

void Decomposer::Canonicalize(SubResult* result) const {
  if (std::is_sorted(result->members.begin(), result->members.end())) return;
  // Current block offset of each member in the row layout.
  std::vector<std::pair<size_t, size_t>> layout;  // (member, offset)
  size_t offset = 0;
  for (size_t member : result->members) {
    layout.emplace_back(member, offset);
    offset += query_.inputs[member]->schema().size();
  }
  std::sort(layout.begin(), layout.end());
  std::vector<size_t> members;
  for (const auto& [member, off] : layout) members.push_back(member);
  for (auto& [values, count] : result->rows) {
    std::vector<Value> permuted;
    permuted.reserve(values.size());
    for (const auto& [member, off] : layout) {
      size_t arity = query_.inputs[member]->schema().size();
      for (size_t a = 0; a < arity; ++a) permuted.push_back(values[off + a]);
    }
    values = std::move(permuted);
  }
  result->members = std::move(members);
}

SubResult Decomposer::Solve(std::vector<size_t> inputs,
                            std::vector<Atom> atoms) const {
  SubResult result;
  if (inputs.size() == 1) {
    result.members = inputs;
    for (auto& [t, c] : FilterRows(inputs[0], atoms)) {
      result.rows.emplace_back(
          std::vector<Value>(t.values().begin(), t.values().end()), c);
    }
    if (stats_ != nullptr) {
      stats_->intermediate_tuples +=
          static_cast<int64_t>(result.rows.size());
    }
    return result;
  }

  // Detachment: independent components evaluate separately and combine by
  // cross product — each component's result is computed once instead of
  // once per binding of the others.
  std::vector<std::vector<size_t>> components = Components(inputs, atoms);
  if (components.size() > 1) {
    SubResult combined;
    bool first = true;
    for (auto& component : components) {
      // Route each atom to the component owning its inputs.
      std::vector<Atom> local;
      for (const Atom& atom : atoms) {
        auto [a, b] = AtomInputs(atom);
        (void)b;
        if (std::find(component.begin(), component.end(), a) !=
            component.end()) {
          local.push_back(atom);
        }
      }
      SubResult part = Solve(component, std::move(local));
      if (first) {
        combined = std::move(part);
        first = false;
        continue;
      }
      SubResult next;
      next.members = combined.members;
      next.members.insert(next.members.end(), part.members.begin(),
                          part.members.end());
      for (const auto& [lv, lc] : combined.rows) {
        for (const auto& [rv, rc] : part.rows) {
          std::vector<Value> values = lv;
          values.insert(values.end(), rv.begin(), rv.end());
          next.rows.emplace_back(std::move(values), lc * rc);
        }
      }
      combined = std::move(next);
    }
    if (stats_ != nullptr) {
      stats_->intermediate_tuples +=
          static_cast<int64_t>(combined.rows.size());
    }
    Canonicalize(&combined);
    return combined;
  }

  // Tuple substitution: eliminate the input with the fewest (pre-filtered)
  // rows.
  size_t best = 0;
  std::vector<std::vector<std::pair<Tuple, int64_t>>> filtered(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    filtered[i] = FilterRows(inputs[i], atoms);
    if (filtered[i].size() < filtered[best].size()) best = i;
  }
  size_t victim = inputs[best];
  std::vector<size_t> rest = inputs;
  rest.erase(rest.begin() + static_cast<ptrdiff_t>(best));

  // Sub-results are canonical (ascending members), so every tuple's
  // recursion produces the same layout: victim block, then sorted rest.
  std::vector<size_t> sorted_rest = rest;
  std::sort(sorted_rest.begin(), sorted_rest.end());
  result.members.push_back(victim);
  result.members.insert(result.members.end(), sorted_rest.begin(),
                        sorted_rest.end());
  for (const auto& [t, c] : filtered[best]) {
    std::vector<Atom> substituted;
    bool alive = true;
    for (const Atom& atom : atoms) {
      auto [a, b] = AtomInputs(atom);
      if (a == victim && !b.has_value()) continue;  // already applied
      if (!SubstituteAtom(atom, victim, t, &substituted)) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    SubResult sub = Solve(rest, std::move(substituted));
    for (const auto& [values, count] : sub.rows) {
      std::vector<Value> row(t.values().begin(), t.values().end());
      row.insert(row.end(), values.begin(), values.end());
      result.rows.emplace_back(std::move(row), c * count);
    }
  }
  if (stats_ != nullptr) {
    stats_->intermediate_tuples += static_cast<int64_t>(result.rows.size());
  }
  Canonicalize(&result);
  return result;
}

void Decomposer::Run() {
  MVIEW_CHECK(!query_.inputs.empty(), "SPJ query needs at least one input");
  Schema combined = CombinedSchema(query_);
  if (query_.condition != nullptr) query_.condition->Validate(combined);
  if (query_.condition != nullptr && query_.condition->IsTriviallyFalse()) {
    return;
  }

  materialized_.resize(query_.inputs.size());
  class MaterializeSink final : public DeltaSink {
   public:
    MaterializeSink(PlanStats* stats,
                    std::vector<std::pair<Tuple, int64_t>>* out)
        : stats_(stats), out_(out) {}
    void Emit(const Tuple& t, int64_t c) override {
      if (stats_ != nullptr) ++stats_->rows_scanned;
      out_->emplace_back(t, c);
    }

   private:
    PlanStats* stats_;
    std::vector<std::pair<Tuple, int64_t>>* out_;
  };
  for (size_t i = 0; i < query_.inputs.size(); ++i) {
    MaterializeSink sink(stats_, &materialized_[i]);
    query_.inputs[i]->Scan(sink);
  }

  // The conjunctive core (atoms in every disjunct) drives decomposition;
  // disjunction is applied as a residual, exactly as in the planner.
  std::vector<Atom> core;
  bool need_residual = false;
  if (query_.condition != nullptr && !query_.condition->IsTriviallyTrue() &&
      !query_.condition->disjuncts().empty()) {
    const auto& disjuncts = query_.condition->disjuncts();
    for (const auto& atom : disjuncts.front().atoms) {
      bool everywhere = true;
      for (size_t d = 1; d < disjuncts.size(); ++d) {
        const auto& atoms = disjuncts[d].atoms;
        if (std::find(atoms.begin(), atoms.end(), atom) == atoms.end()) {
          everywhere = false;
          break;
        }
      }
      if (everywhere) core.push_back(atom);
    }
    need_residual = disjuncts.size() > 1;
  }

  std::vector<size_t> all_inputs(query_.inputs.size());
  for (size_t i = 0; i < all_inputs.size(); ++i) all_inputs[i] = i;
  SubResult solved = Solve(std::move(all_inputs), std::move(core));

  // Scatter each row's values into combined-tuple order.
  std::vector<size_t> offsets(query_.inputs.size());
  size_t offset = 0;
  for (size_t i = 0; i < query_.inputs.size(); ++i) {
    offsets[i] = offset;
    offset += query_.inputs[i]->schema().size();
  }
  std::vector<size_t> projection_indices;
  if (query_.projection.empty()) {
    projection_indices.resize(combined.size());
    for (size_t i = 0; i < combined.size(); ++i) projection_indices[i] = i;
  } else {
    combined.Project(query_.projection, &projection_indices);
  }

  for (const auto& [values, count] : solved.rows) {
    std::vector<Value> full(combined.size());
    size_t cursor = 0;
    for (size_t member : solved.members) {
      size_t arity = query_.inputs[member]->schema().size();
      for (size_t a = 0; a < arity; ++a) {
        full[offsets[member] + a] = values[cursor++];
      }
    }
    Tuple tuple(std::move(full));
    if (need_residual && !query_.condition->Evaluate(combined, tuple)) {
      continue;
    }
    if (stats_ != nullptr) ++stats_->output_tuples;
    out_->Add(tuple.Project(projection_indices), count * multiplier_);
  }
}

}  // namespace

void EvaluateSpjByDecomposition(const SpjQuery& query, CountedRelation* out,
                                int64_t multiplier, PlanStats* stats) {
  MVIEW_CHECK(out != nullptr, "null output relation");
  Decomposer decomposer(query, out, multiplier, stats);
  decomposer.Run();
}

CountedRelation EvaluateSpjByDecomposition(const SpjQuery& query,
                                           PlanStats* stats) {
  Schema combined = CombinedSchema(query);
  Schema out_schema = query.projection.empty()
                          ? combined
                          : combined.Project(query.projection);
  CountedRelation out(std::move(out_schema));
  EvaluateSpjByDecomposition(query, &out, 1, stats);
  return out;
}

}  // namespace mview
