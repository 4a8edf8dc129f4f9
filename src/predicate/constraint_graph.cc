#include "predicate/constraint_graph.h"

#include <algorithm>

#include "util/error.h"

namespace mview {

ConstraintGraph::ConstraintGraph(size_t num_nodes) : n_(num_nodes) {
  MVIEW_CHECK(n_ >= 1, "graph needs at least the zero node");
  dist_.assign(n_ * n_, kInfinity);
  for (size_t i = 0; i < n_; ++i) dist_[i * n_ + i] = 0;
}

int64_t ConstraintGraph::SatAdd(int64_t a, int64_t b) {
  if (a >= kInfinity || b >= kInfinity) return kInfinity;
  int64_t sum = a + b;  // |a|,|b| < INT64_MAX/4, so no UB here
  if (sum > kInfinity) return kInfinity;
  if (sum < -kInfinity) return -kInfinity;
  return sum;
}

void ConstraintGraph::AddEdge(size_t from, size_t to, int64_t weight) {
  MVIEW_CHECK(!closed_, "cannot add edges after Close()");
  MVIEW_CHECK(from < n_ && to < n_, "edge endpoint out of range");
  // Saturated like every sum `SatAdd` forms: a weight past -kInfinity is
  // loosened to it (the graph can only become more satisfiable), one past
  // +kInfinity is no constraint.
  weight = std::clamp(weight, -kInfinity, kInfinity);
  int64_t& cell = dist_[from * n_ + to];
  cell = std::min(cell, weight);
  edges_.push_back({from, to, weight});
}

bool ConstraintGraph::Close() {
  if (closed_) return negative_cycle_;
  // Floyd's algorithm [F62]: all-pairs shortest paths in O(n^3).
  for (size_t k = 0; k < n_; ++k) {
    for (size_t i = 0; i < n_; ++i) {
      int64_t dik = dist_[i * n_ + k];
      if (dik >= kInfinity) continue;
      for (size_t j = 0; j < n_; ++j) {
        int64_t via = SatAdd(dik, dist_[k * n_ + j]);
        int64_t& cell = dist_[i * n_ + j];
        if (via < cell) cell = via;
      }
    }
  }
  for (size_t i = 0; i < n_; ++i) {
    if (dist_[i * n_ + i] < 0) {
      negative_cycle_ = true;
      break;
    }
  }
  closed_ = true;
  return negative_cycle_;
}

int64_t ConstraintGraph::Dist(size_t from, size_t to) const {
  MVIEW_CHECK(closed_, "Dist() requires Close()");
  MVIEW_CHECK(from < n_ && to < n_, "node out of range");
  return dist_[from * n_ + to];
}

bool ConstraintGraph::WouldAddedEdgesCreateNegativeCycle(
    const std::vector<GraphEdge>& edges, std::vector<int64_t>* scratch) const {
  MVIEW_CHECK(closed_, "incremental check requires Close()");
  if (negative_cycle_) return true;
  if (edges.empty()) return false;
  // Fast path for a single edge: a negative cycle must traverse it, and the
  // cheapest such cycle costs weight + dist(to, from).
  if (edges.size() == 1) {
    const GraphEdge& e = edges[0];
    return SatAdd(e.weight, dist_[e.to * n_ + e.from]) < 0;
  }
  std::vector<int64_t>& d = *scratch;
  d.assign(dist_.begin(), dist_.end());
  for (const GraphEdge& e : edges) {
    // Any negative cycle through e alone shows up before re-closing.
    if (SatAdd(e.weight, d[e.to * n_ + e.from]) < 0) return true;
    // Re-close the matrix with e incorporated so subsequent edges see it:
    // d'[i][j] = min(d[i][j], d[i][from] + w + d[to][j]).
    for (size_t i = 0; i < n_; ++i) {
      int64_t pre = SatAdd(d[i * n_ + e.from], e.weight);
      if (pre >= kInfinity) continue;
      for (size_t j = 0; j < n_; ++j) {
        int64_t via = SatAdd(pre, d[e.to * n_ + j]);
        int64_t& cell = d[i * n_ + j];
        if (via < cell) cell = via;
      }
    }
  }
  for (size_t i = 0; i < n_; ++i) {
    if (d[i * n_ + i] < 0) return true;
  }
  return false;
}

std::vector<GraphEdge> ConstraintGraph::FindNegativeCycle(
    const std::vector<GraphEdge>& extra) const {
  std::vector<GraphEdge> all(edges_);
  all.insert(all.end(), extra.begin(), extra.end());
  for (const GraphEdge& e : all) {
    MVIEW_CHECK(e.from < n_ && e.to < n_, "edge endpoint out of range");
  }
  // Bellman–Ford from a virtual source (all distances start at 0), keeping
  // for every node the edge that last improved it.  After n passes any
  // further relaxation proves a negative cycle reachable from the relaxed
  // node's predecessor chain.
  std::vector<int64_t> d(n_, 0);
  std::vector<size_t> pred(n_, SIZE_MAX);
  size_t witness = SIZE_MAX;
  for (size_t pass = 0; pass < n_; ++pass) {
    witness = SIZE_MAX;
    for (size_t idx = 0; idx < all.size(); ++idx) {
      const GraphEdge& e = all[idx];
      int64_t via = SatAdd(d[e.from], e.weight);
      if (via < d[e.to]) {
        d[e.to] = via;
        pred[e.to] = idx;
        witness = e.to;
      }
    }
    if (witness == SIZE_MAX) return {};  // converged: no negative cycle
  }
  // `witness` was relaxed on the n-th pass, so its predecessor chain leads
  // into a negative cycle; walking n steps lands strictly inside it.
  size_t node = witness;
  for (size_t i = 0; i < n_; ++i) node = all[pred[node]].from;
  std::vector<GraphEdge> cycle;
  size_t cur = node;
  do {
    const GraphEdge& e = all[pred[cur]];
    cycle.push_back(e);
    cur = e.from;
  } while (cur != node && cycle.size() <= n_ + all.size());
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
}

bool ConstraintGraph::HasNegativeCycleBellmanFord() const {
  // Virtual source with zero-weight edges to every node: start all at 0.
  std::vector<int64_t> d(n_, 0);
  for (size_t pass = 0; pass + 1 < n_; ++pass) {
    bool changed = false;
    for (const GraphEdge& e : edges_) {
      int64_t via = SatAdd(d[e.from], e.weight);
      if (via < d[e.to]) {
        d[e.to] = via;
        changed = true;
      }
    }
    if (!changed) return false;
  }
  for (const GraphEdge& e : edges_) {
    if (SatAdd(d[e.from], e.weight) < d[e.to]) return true;
  }
  return false;
}

}  // namespace mview
