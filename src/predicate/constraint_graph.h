#ifndef MVIEW_PREDICATE_CONSTRAINT_GRAPH_H_
#define MVIEW_PREDICATE_CONSTRAINT_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mview {

/// A weighted edge in a constraint graph: `to − from ≤ weight`
/// (equivalently, shortest-path edge `from → to`).
struct GraphEdge {
  size_t from = 0;
  size_t to = 0;
  int64_t weight = 0;
};

/// The directed weighted graph of Section 4 / [RH80].
///
/// Node 0 is the distinguished zero node; nodes `1..n` are the variables of
/// the conjunction under test.  The difference constraint `x − y ≤ c` is the
/// edge `y → x` with weight `c`; the conjunction is unsatisfiable over the
/// integers iff the graph contains a negative-weight cycle.
///
/// Two detection algorithms are provided:
///  - `Close()` runs Floyd's all-pairs shortest-path algorithm [F62]
///    (`O(n³)`, the paper's choice) and records the full distance closure,
///    which `WouldAddedEdgesCreateNegativeCycle` then extends incrementally
///    per tuple in `O(|edges|·n²)` — the amortization behind Algorithm 4.1.
///  - `HasNegativeCycleBellmanFord()` runs Bellman–Ford from a virtual
///    source (`O(n·e)`), provided as the comparison point for bench E1.
class ConstraintGraph {
 public:
  /// Creates a graph over `num_nodes` nodes (including the zero node).
  explicit ConstraintGraph(size_t num_nodes);

  size_t num_nodes() const { return n_; }

  /// Adds edge `from → to` with `weight`, keeping the minimum weight for
  /// parallel edges.  Weights saturate to ±kInfinity.
  void AddEdge(size_t from, size_t to, int64_t weight);

  /// Runs Floyd–Warshall and caches the closure.  Returns true when the
  /// graph contains a negative cycle (i.e. the constraints are
  /// unsatisfiable).  Idempotent.
  bool Close();

  /// Returns true when `Close()` found a negative cycle.
  bool has_negative_cycle() const { return negative_cycle_; }

  /// Returns the closed shortest-path distance `from → to` (saturated
  /// "infinity" when unreachable).  Requires a prior `Close()`.
  int64_t Dist(size_t from, size_t to) const;

  /// Tests whether adding `edges` to the *closed* graph would create a
  /// negative cycle, without mutating this graph.  `scratch` is caller-owned
  /// scratch space reused across calls (resized as needed).
  ///
  /// This is the per-tuple step of Algorithm 4.1: the invariant portion of
  /// the condition is closed once; the variant edges induced by each updated
  /// tuple are layered on top in `O(|edges|·n²)`.
  bool WouldAddedEdgesCreateNegativeCycle(const std::vector<GraphEdge>& edges,
                                          std::vector<int64_t>* scratch) const;

  /// Negative-cycle detection by Bellman–Ford (no closure computed).
  bool HasNegativeCycleBellmanFord() const;

  /// Returns the edges of one negative-weight cycle in the graph formed by
  /// this graph's edges plus `extra`, in traversal order (each edge's `to`
  /// is the next edge's `from`, wrapping around), or an empty vector when
  /// no negative cycle exists.  Bellman–Ford with predecessor tracking;
  /// does not require `Close()` and never mutates the graph.
  ///
  /// This is the audit channel for Theorem 4.1: when a substituted
  /// conjunction is unsatisfiable, the returned cycle *is* the proof —
  /// summing its weights gives the negative total that contradicts
  /// `x − x ≤ 0`.
  std::vector<GraphEdge> FindNegativeCycle(
      const std::vector<GraphEdge>& extra = {}) const;

  /// The saturated infinity used in distance matrices.
  static constexpr int64_t kInfinity = INT64_MAX / 4;

  /// Saturating addition that never overflows past kInfinity.
  static int64_t SatAdd(int64_t a, int64_t b);

 private:
  size_t n_;
  std::vector<int64_t> dist_;  // n_*n_ matrix, row-major
  std::vector<GraphEdge> edges_;
  bool closed_ = false;
  bool negative_cycle_ = false;
};

}  // namespace mview

#endif  // MVIEW_PREDICATE_CONSTRAINT_GRAPH_H_
