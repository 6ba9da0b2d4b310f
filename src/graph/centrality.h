#pragma once

#include <cstdint>
#include <vector>

#include "graph/sparse_matrix.h"

/// \file centrality.h
/// \brief Network-centrality measures used by graph structure
/// augmentation (§III-A.3, Eq. 8-11): degree, closeness, betweenness
/// (Brandes) and PageRank, plus the symmetric normalized adjacency
/// Ã = D̃^{-1/2}(A+I)D̃^{-1/2} of Eq. 12.

namespace ba::graph {

/// \brief Undirected graph as adjacency lists over nodes [0, n).
///
/// Parallel edges are permitted and counted by degree; self-loops are
/// ignored by the shortest-path based measures.
class AdjacencyList {
 public:
  explicit AdjacencyList(int64_t num_nodes)
      : neighbors_(static_cast<size_t>(num_nodes)) {}

  /// Adds the undirected edge {u, v}.
  void AddEdge(int64_t u, int64_t v) {
    BA_CHECK_LT(u, num_nodes());
    BA_CHECK_LT(v, num_nodes());
    neighbors_[static_cast<size_t>(u)].push_back(v);
    if (u != v) neighbors_[static_cast<size_t>(v)].push_back(u);
  }

  int64_t num_nodes() const {
    return static_cast<int64_t>(neighbors_.size());
  }

  int64_t num_edges() const {
    int64_t total = 0;
    for (const auto& nbrs : neighbors_) total += static_cast<int64_t>(nbrs.size());
    return total / 2;  // counts self-loops as half-integer free: none added twice
  }

  const std::vector<int64_t>& Neighbors(int64_t u) const {
    BA_CHECK_LT(u, num_nodes());
    return neighbors_[static_cast<size_t>(u)];
  }

 private:
  std::vector<std::vector<int64_t>> neighbors_;
};

/// Degree centrality (Eq. 8): C_D(v) = degree(v).
std::vector<double> DegreeCentrality(const AdjacencyList& g);

/// \brief Closeness (Eq. 9) and betweenness (Eq. 10) of every node.
struct PathCentrality {
  std::vector<double> closeness;
  std::vector<double> betweenness;
};

/// \brief Both shortest-path measures from one pass: a BFS per source
/// over a flat int32 CSR copy of `g`, whose distances give closeness
/// and whose path counts feed Brandes' dependency accumulation on the
/// way back. O(V·E) for unweighted graphs.
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
std::vector<double> PageRank(const AdjacencyList& g, double alpha = 0.85,
                             int max_iters = 100, double tol = 1e-10);

/// \brief Symmetric normalized adjacency with self-loops (Eq. 12):
/// Ã = D̃^{-1/2}(A+I)D̃^{-1/2}, where D̃ is the degree matrix of A+I.
/// Parallel edges collapse to weight-summed entries.
SparseMatrix NormalizedAdjacency(const AdjacencyList& g);

}  // namespace ba::graph
