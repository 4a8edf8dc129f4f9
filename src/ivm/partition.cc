#include "ivm/partition.h"

#include <algorithm>
#include <set>
#include <utility>

namespace mview {
namespace {

/// Union-find over attribute names, used to build equality classes from
/// the zero-offset `=` atoms shared by every disjunct.
class NameUnionFind {
 public:
  std::string Find(const std::string& name) {
    auto it = parent_.find(name);
    if (it == parent_.end()) {
      parent_[name] = name;
      return name;
    }
    if (it->second == name) return name;
    std::string root = Find(it->second);
    parent_[name] = root;
    return root;
  }

  void Union(const std::string& a, const std::string& b) {
    std::string ra = Find(a), rb = Find(b);
    if (ra != rb) parent_[std::move(ra)] = std::move(rb);
  }

 private:
  std::unordered_map<std::string, std::string> parent_;
};

using NamePair = std::pair<std::string, std::string>;

NamePair OrderedPair(const std::string& a, const std::string& b) {
  return a <= b ? NamePair{a, b} : NamePair{b, a};
}

/// The zero-offset variable-variable equalities of one conjunction, as
/// ordered name pairs.
std::set<NamePair> EqualityPairs(const Conjunction& conj) {
  std::set<NamePair> pairs;
  for (const Atom& atom : conj.atoms) {
    if (atom.op == CompareOp::kEq && atom.IsVarVar() && atom.offset == 0) {
      pairs.insert(OrderedPair(atom.lhs, *atom.rhs_var));
    }
  }
  return pairs;
}

}  // namespace

PartitionLayout ComputePartitionLayout(const Condition& condition,
                                       const std::vector<Schema>& aliased,
                                       uint32_t count) {
  PartitionLayout layout;
  layout.count = std::max<uint32_t>(count, 1);
  layout.key_attr.assign(aliased.size(), kRowHashKey);
  if (layout.count < 2 || aliased.size() < 2 ||
      condition.disjuncts().empty()) {
    return layout;
  }

  // Equalities that hold in *every* disjunct: only those license slicing
  // all inputs by the class key — a disjunct without the equality could
  // join tuples from different partitions.
  std::set<NamePair> common = EqualityPairs(condition.disjuncts().front());
  for (size_t d = 1; d < condition.disjuncts().size() && !common.empty();
       ++d) {
    std::set<NamePair> here = EqualityPairs(condition.disjuncts()[d]);
    std::set<NamePair> kept;
    std::set_intersection(common.begin(), common.end(), here.begin(),
                          here.end(), std::inserter(kept, kept.begin()));
    common.swap(kept);
  }
  if (common.empty()) return layout;

  NameUnionFind uf;
  for (const auto& [a, b] : common) uf.Union(a, b);

  // For each base, the first attribute (in scheme order) of each class.
  // A class qualifies when it covers every base.
  std::vector<std::unordered_map<std::string, size_t>> class_attr(
      aliased.size());
  for (size_t i = 0; i < aliased.size(); ++i) {
    for (size_t a = 0; a < aliased[i].size(); ++a) {
      const std::string root = uf.Find(aliased[i].attribute(a).name);
      class_attr[i].emplace(root, a);  // keeps the first hit per class
    }
  }
  // Deterministic choice: scan base 0's attributes in order.
  for (size_t a = 0; a < aliased[0].size(); ++a) {
    const std::string root = uf.Find(aliased[0].attribute(a).name);
    bool covers_all = true;
    for (size_t i = 1; i < aliased.size() && covers_all; ++i) {
      covers_all = class_attr[i].count(root) > 0;
    }
    if (!covers_all) continue;
    layout.keyed = true;
    layout.key_attr[0] = a;
    for (size_t i = 1; i < aliased.size(); ++i) {
      layout.key_attr[i] = class_attr[i][root];
    }
    return layout;
  }
  return layout;
}

}  // namespace mview
