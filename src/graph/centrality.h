#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "graph/sparse_matrix.h"

/// \file centrality.h
/// \brief Network-centrality measures used by graph structure
/// augmentation (§III-A.3, Eq. 8-11): degree, closeness, betweenness
/// (Brandes) and PageRank, plus the symmetric normalized adjacency
/// Ã = D̃^{-1/2}(A+I)D̃^{-1/2} of Eq. 12.

namespace ba::graph {

/// \brief One undirected edge {from, to} of an edge list.
struct Edge {
  int64_t from = 0;
  int64_t to = 0;
};

/// \brief Undirected multigraph over nodes [0, n) as one flat int32
/// CSR: node u's neighbors are `targets()[offsets()[u] .. offsets()[u+1])`.
///
/// Built in one counting pass from an edge list. Each edge {u, v}
/// appends v to u's neighbors and, unless it is a self-loop, u to v's,
/// in edge order; that order fixes every BFS and floating-point sum of
/// the measures below. A self-loop is stored once, so it adds 1 to its
/// node's degree. Parallel edges are kept and counted by degree;
/// self-loops are ignored by the shortest-path based measures.
class AdjacencyList {
 public:
  AdjacencyList() = default;
  AdjacencyList(int64_t num_nodes, const std::vector<Edge>& edges) {
    Assign(num_nodes, edges);
  }

  /// \brief Rebuilds over nodes [0, `num_nodes`) from `edges`, any range
  /// whose elements carry integer `from` and `to` members (Edge,
  /// core::GraphEdge). Reuses the current storage.
  template <typename EdgeRange>
  void Assign(int64_t num_nodes, const EdgeRange& edges);

  int64_t num_nodes() const {
    return offsets_.empty() ? 0 : static_cast<int64_t>(offsets_.size()) - 1;
  }

  int64_t Degree(int64_t u) const {
    BA_CHECK_LT(u, num_nodes());
    return offsets_[static_cast<size_t>(u) + 1] -
           offsets_[static_cast<size_t>(u)];
  }

  std::span<const int32_t> Neighbors(int64_t u) const {
    BA_CHECK_LT(u, num_nodes());
    return {targets_.data() + offsets_[static_cast<size_t>(u)],
            static_cast<size_t>(Degree(u))};
  }

  /// The raw CSR arrays: `num_nodes() + 1` row offsets and the
  /// concatenated neighbor lists they index.
  std::span<const int32_t> offsets() const { return offsets_; }
  std::span<const int32_t> targets() const { return targets_; }

 private:
  std::vector<int32_t> offsets_;
  std::vector<int32_t> targets_;
};

template <typename EdgeRange>
void AdjacencyList::Assign(int64_t num_nodes, const EdgeRange& edges) {
  BA_CHECK_GE(num_nodes, 0);
  BA_CHECK_LT(num_nodes, static_cast<int64_t>(std::numeric_limits<int32_t>::max()));
  BA_CHECK_LE(static_cast<int64_t>(std::size(edges)),
              static_cast<int64_t>(std::numeric_limits<int32_t>::max() / 2));
  const size_t n = static_cast<size_t>(num_nodes);
  // Counting sort: node u's count lands in offsets_[u + 2], so after
  // the prefix sum offsets_[u + 1] is u's first slot, and filling
  // advances it to u's end, which is u + 1's start.
  offsets_.assign(n + 2, 0);
  for (const auto& e : edges) {
    BA_CHECK(e.from >= 0 && e.from < num_nodes && e.to >= 0 &&
             e.to < num_nodes);
    ++offsets_[static_cast<size_t>(e.from) + 2];
    if (e.from != e.to) ++offsets_[static_cast<size_t>(e.to) + 2];
  }
  for (size_t i = 2; i < n + 2; ++i) offsets_[i] += offsets_[i - 1];
  targets_.resize(static_cast<size_t>(offsets_[n + 1]));
  for (const auto& e : edges) {
    const auto from = static_cast<int32_t>(e.from);
    const auto to = static_cast<int32_t>(e.to);
    targets_[static_cast<size_t>(offsets_[static_cast<size_t>(from) + 1]++)] =
        to;
    if (from != to) {
      targets_[static_cast<size_t>(offsets_[static_cast<size_t>(to) + 1]++)] =
          from;
    }
  }
  offsets_.pop_back();
}

/// Degree centrality (Eq. 8): C_D(v) = degree(v).
std::vector<double> DegreeCentrality(const AdjacencyList& g);

/// \brief Closeness (Eq. 9) and betweenness (Eq. 10) of every node.
struct PathCentrality {
  std::vector<double> closeness;
  std::vector<double> betweenness;
};

/// \brief Both shortest-path measures from one pass: a BFS per source
/// over `g`'s CSR, whose distances give closeness and whose path
/// counts feed Brandes' dependency accumulation on the way back.
/// O(V·E) for unweighted graphs. The BFS scratch is thread-local.
///
/// Closeness uses the Wasserman-Faust correction for disconnected
/// graphs: centrality is scaled by the fraction of nodes reachable from
/// v; isolated nodes get 0. Betweenness does not count endpoint pairs
/// and is halved for undirected graphs per convention.
PathCentrality ShortestPathCentrality(const AdjacencyList& g);

/// \brief Closeness centrality (Eq. 9); see ShortestPathCentrality.
std::vector<double> ClosenessCentrality(const AdjacencyList& g);

/// \brief Betweenness centrality (Eq. 10) via Brandes' algorithm; see
/// ShortestPathCentrality.
std::vector<double> BetweennessCentrality(const AdjacencyList& g);

/// \brief PageRank (Eq. 11) with damping `alpha`, power iteration until
/// L1 change < `tol` or `max_iters`. Dangling mass is redistributed
/// uniformly so the result always sums to 1.
///
/// On slice graphs the cap is what binds: they are bipartite
/// (transaction ↔ address), so the error shrinks only as `alpha`^k and
/// 0.85^100 ≈ 9·10⁻⁸ never reaches the default `tol`. Over every
/// 20-transaction slice of bench_profile's labeled addresses, 5,447 of
/// 5,591 (97%) stop at `max_iters` = 100. The iteration count sets the centrality
/// features, so changing either bound changes labels.
std::vector<double> PageRank(const AdjacencyList& g, double alpha = 0.85,
                             int max_iters = 100, double tol = 1e-10);

/// \brief Symmetric normalized adjacency with self-loops (Eq. 12):
/// Ã = D̃^{-1/2}(A+I)D̃^{-1/2}, where D̃ is the degree matrix of A+I.
/// Parallel edges collapse to weight-summed entries. Built row by row
/// straight from `g`'s CSR: entry (u, c) is `(double)count(u, c) ·
/// d̃_u^{-1/2} · d̃_c^{-1/2}` evaluated left to right and cast to float,
/// with d̃_u the float row sum of A+I.
SparseMatrix NormalizedAdjacency(const AdjacencyList& g);

}  // namespace ba::graph
