#include "predicate/substitution.h"

#include <algorithm>
#include <unordered_map>

#include "predicate/normalize.h"
#include "util/error.h"

namespace mview {

FormulaClass ClassifyAtom(
    const Atom& atom,
    const std::function<bool(const std::string&)>& is_substituted) {
  bool lhs_sub = is_substituted(atom.lhs);
  if (!atom.rhs_var.has_value()) {
    return lhs_sub ? FormulaClass::kVariantEvaluable : FormulaClass::kInvariant;
  }
  bool rhs_sub = is_substituted(*atom.rhs_var);
  if (lhs_sub && rhs_sub) return FormulaClass::kVariantEvaluable;
  if (!lhs_sub && !rhs_sub) return FormulaClass::kInvariant;
  return FormulaClass::kVariantNonEvaluable;
}

namespace {

// Reflects an operator across the comparison: `a op b ⇔ b Reflect(op) a`.
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

int64_t ClampForGraph(int64_t v) {
  return std::clamp(v, -ConstraintGraph::kInfinity / 2,
                    ConstraintGraph::kInfinity / 2);
}

}  // namespace

SubstitutionFilter::SubstitutionFilter(const Condition& condition,
                                       const Schema& variables,
                                       std::vector<Schema> substituted)
    : variables_(variables), substituted_(std::move(substituted)) {
  condition.Validate(variables_);
  // The substituted schemes must be sub-schemes of `variables` and pairwise
  // attribute-disjoint (Definition 4.3: R_i ∩ R_j = ∅).
  for (size_t i = 0; i < substituted_.size(); ++i) {
    for (const auto& attr : substituted_[i].attributes()) {
      size_t idx = variables_.MustIndexOf(attr.name);
      MVIEW_CHECK(variables_.attribute(idx).type == attr.type,
                  "substituted attribute type mismatch: ", attr.name);
      for (size_t j = 0; j < i; ++j) {
        MVIEW_CHECK(!substituted_[j].Contains(attr.name),
                    "substituted schemes share attribute: ", attr.name);
      }
    }
  }
  stats_.input_disjuncts = condition.disjuncts().size();
  for (const auto& disjunct : condition.disjuncts()) {
    CompileDisjunct(disjunct);
    if (always_relevant_) break;
  }
  if (always_relevant_) disjuncts_.clear();
}

bool SubstitutionFilter::FindSlot(const std::string& var, Slot* slot) const {
  for (size_t i = 0; i < substituted_.size(); ++i) {
    if (auto idx = substituted_[i].IndexOf(var)) {
      slot->relation = i;
      slot->attr = *idx;
      return true;
    }
  }
  return false;
}

void SubstitutionFilter::CompileDisjunct(const Conjunction& disjunct) {
  CompiledDisjunct out{
      {}, {}, ConstraintGraph(1), 0};
  auto is_substituted = [this](const std::string& var) {
    Slot ignored;
    return FindSlot(var, &ignored);
  };

  // First pass: number the free variables that participate in RH atoms.
  std::unordered_map<std::string, size_t> nodes;
  size_t next_node = 1;
  auto node_of_free = [&](const std::string& var) {
    auto [it, inserted] = nodes.emplace(var, next_node);
    if (inserted) ++next_node;
    return it->second;
  };
  for (const auto& atom : disjunct.atoms) {
    if (!IsRhAtom(atom, variables_)) continue;
    if (!is_substituted(atom.lhs)) node_of_free(atom.lhs);
    if (atom.rhs_var.has_value() && !is_substituted(*atom.rhs_var)) {
      node_of_free(*atom.rhs_var);
    }
  }

  ConstraintGraph graph(next_node);
  bool compiles = true;  // becomes false only via dropped invariant part

  for (const auto& atom : disjunct.atoms) {
    FormulaClass cls = ClassifyAtom(atom, is_substituted);
    bool rh = IsRhAtom(atom, variables_);
    switch (cls) {
      case FormulaClass::kInvariant: {
        if (!rh) {
          // Cannot reason about it; assume satisfiable (sound).
          ++stats_.conservative_atoms;
          break;
        }
        ++stats_.invariant_atoms;
        for (const auto& dc : NormalizeAtom(atom)) {
          size_t from = dc.y.has_value() ? nodes.at(*dc.y) : 0;
          size_t to = dc.x.has_value() ? nodes.at(*dc.x) : 0;
          graph.AddEdge(from, to, dc.c);
        }
        break;
      }
      case FormulaClass::kVariantEvaluable: {
        ++stats_.variant_evaluable;
        EvalAtom ea;
        MVIEW_CHECK(FindSlot(atom.lhs, &ea.lhs), "slot lookup failed");
        ea.op = atom.op;
        ea.offset = atom.offset;
        if (atom.rhs_var.has_value()) {
          ea.rhs_is_slot = true;
          MVIEW_CHECK(FindSlot(*atom.rhs_var, &ea.rhs), "slot lookup failed");
        } else {
          ea.rhs_const = atom.rhs_const;
        }
        out.eval_atoms.push_back(std::move(ea));
        break;
      }
      case FormulaClass::kVariantNonEvaluable: {
        if (!rh) {
          ++stats_.conservative_atoms;
          break;
        }
        ++stats_.variant_non_evaluable;
        // The atom is `x op y + c` with exactly one side substituted.
        // Rewrite as `free_var op' (s * value + b)` = `f op' K`.
        Slot slot;
        std::string free_var;
        CompareOp op = atom.op;
        int64_t b;  // K = value + b (the coefficient of value is always +1)
        if (FindSlot(atom.lhs, &slot)) {
          // value op y + c  ⇔  y Reflect(op) value − c.
          free_var = *atom.rhs_var;
          op = Reflect(atom.op);
          b = -atom.offset;
        } else {
          // x op value + c.
          MVIEW_CHECK(FindSlot(*atom.rhs_var, &slot), "slot lookup failed");
          free_var = atom.lhs;
          b = atom.offset;
        }
        size_t nf = nodes.at(free_var);
        // Expand `f op K` into edge templates with weight = coeff*value+bias:
        //   f ≤ K  →  edge 0 → f, weight  K      (f − 0 ≤ K)
        //   f <  K  →  edge 0 → f, weight  K − 1
        //   f ≥ K  →  edge f → 0, weight −K
        //   f >  K  →  edge f → 0, weight −K − 1
        //   f =  K  →  both ≤ and ≥
        auto add_template = [&](bool upper, int64_t delta) {
          EdgeTemplate t;
          t.slot = slot;
          if (upper) {
            t.from = 0;
            t.to = nf;
            t.coeff = 1;
            t.bias = b + delta;
          } else {
            t.from = nf;
            t.to = 0;
            t.coeff = -1;
            t.bias = -b + delta;
          }
          out.edge_templates.push_back(t);
        };
        switch (op) {
          case CompareOp::kLe:
            add_template(true, 0);
            break;
          case CompareOp::kLt:
            add_template(true, -1);
            break;
          case CompareOp::kGe:
            add_template(false, 0);
            break;
          case CompareOp::kGt:
            add_template(false, -1);
            break;
          case CompareOp::kEq:
            add_template(true, 0);
            add_template(false, 0);
            break;
          case CompareOp::kNe:
            break;  // unreachable: RH excludes ≠
        }
        break;
      }
    }
  }

  if (graph.Close()) {
    // The invariant portion alone is unsatisfiable: the disjunct can never
    // be satisfied, for any update and any database state.
    ++stats_.dropped_disjuncts;
    compiles = false;
  }
  if (!compiles) return;
  if (out.eval_atoms.empty() && out.edge_templates.empty()) {
    // Nothing about this disjunct depends on the update: every update is
    // (potentially) relevant through it.
    always_relevant_ = true;
    return;
  }
  out.invariant = std::move(graph);
  out.num_nodes = next_node;
  disjuncts_.push_back(std::move(out));
}

const Value& SubstitutionFilter::SlotValue(
    const Slot& slot, std::span<const Tuple* const> tuples) {
  return tuples[slot.relation]->at(slot.attr);
}

bool SubstitutionFilter::EvaluateAtom(
    const EvalAtom& atom, std::span<const Tuple* const> tuples) const {
  const Value& lhs = SlotValue(atom.lhs, tuples);
  const Value& rhs =
      atom.rhs_is_slot ? SlotValue(atom.rhs, tuples) : atom.rhs_const;
  if (atom.offset == 0) return EvalCompare(lhs.Compare(rhs), atom.op);
  return EvalCompare(CompareShifted(lhs.AsInt64(), atom.offset, rhs.AsInt64()),
                     atom.op);
}

bool SubstitutionFilter::MightBeRelevant(
    std::span<const Tuple* const> tuples) const {
  MVIEW_CHECK(tuples.size() == substituted_.size(),
              "expected one tuple per substituted scheme");
  for (size_t i = 0; i < tuples.size(); ++i) {
    MVIEW_CHECK(tuples[i] != nullptr &&
                tuples[i]->size() == substituted_[i].size(),
                "tuple does not match substituted scheme #", i);
  }
  if (always_relevant_) return true;
  for (const auto& disjunct : disjuncts_) {
    bool ground_ok = true;
    for (const auto& atom : disjunct.eval_atoms) {
      if (!EvaluateAtom(atom, tuples)) {
        ground_ok = false;
        break;
      }
    }
    if (!ground_ok) continue;
    edge_scratch_.clear();
    for (const auto& t : disjunct.edge_templates) {
      int64_t v = SlotValue(t.slot, tuples).AsInt64();
      int64_t weight =
          ClampForGraph(t.coeff * ClampForGraph(v) + ClampForGraph(t.bias));
      edge_scratch_.push_back({t.from, t.to, weight});
    }
    if (!disjunct.invariant.WouldAddedEdgesCreateNegativeCycle(edge_scratch_,
                                                               &scratch_)) {
      return true;  // C(t, Y2) satisfiable through this disjunct
    }
  }
  return false;  // unsatisfiable in every disjunct: irrelevant
}

bool SubstitutionFilter::MightBeRelevant(const Tuple& tuple) const {
  const Tuple* one = &tuple;  // no vector: this runs once per update
  return MightBeRelevant(std::span<const Tuple* const>(&one, 1));
}

}  // namespace mview
