#include "graph/centrality.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ba::graph {

std::vector<double> DegreeCentrality(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (int64_t v = 0; v < n; ++v) {
    out[static_cast<size_t>(v)] =
        static_cast<double>(g.Neighbors(v).size());
  }
  return out;
}

PathCentrality ShortestPathCentrality(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  const size_t un = static_cast<size_t>(n);
  PathCentrality out;
  out.closeness.assign(un, 0.0);
  out.betweenness.assign(un, 0.0);
  // Flat CSR copy in the adjacency lists' neighbor order. That order
  // fixes the BFS order, and with it every floating-point sum below.
  std::vector<int32_t> offsets(un + 1, 0);
  for (int64_t v = 0; v < n; ++v) {
    const size_t degree = g.Neighbors(v).size();
    BA_CHECK_LE(static_cast<int64_t>(offsets[static_cast<size_t>(v)]) +
                    static_cast<int64_t>(degree),
                static_cast<int64_t>(std::numeric_limits<int32_t>::max()));
    offsets[static_cast<size_t>(v) + 1] =
        offsets[static_cast<size_t>(v)] + static_cast<int32_t>(degree);
  }
  std::vector<int32_t> adj(static_cast<size_t>(offsets[un]));
  for (int64_t v = 0; v < n; ++v) {
    const std::vector<int64_t>& nbrs = g.Neighbors(v);
    std::transform(nbrs.begin(), nbrs.end(),
                   adj.begin() + offsets[static_cast<size_t>(v)],
                   [](int64_t w) { return static_cast<int32_t>(w); });
  }

  std::vector<int32_t> dist(un, -1);
  std::vector<double> sigma(un, 0.0);
  std::vector<double> delta(un, 0.0);
  // BFS visit order, doubling as the queue: [head, tail) is pending.
  std::vector<int32_t> order(un);
  for (int32_t s = 0; s < static_cast<int32_t>(n); ++s) {
    dist[static_cast<size_t>(s)] = 0;
    sigma[static_cast<size_t>(s)] = 1.0;
    order[0] = s;
    size_t head = 0;
    size_t tail = 1;
    int64_t dist_sum = 0;
    while (head < tail) {
      const int32_t u = order[head++];
      const int32_t du = dist[static_cast<size_t>(u)];
      for (int32_t k = offsets[static_cast<size_t>(u)];
           k < offsets[static_cast<size_t>(u) + 1]; ++k) {
        const int32_t w = adj[static_cast<size_t>(k)];
        if (w == u) continue;  // self-loops lie on no shortest path
        int32_t& dw = dist[static_cast<size_t>(w)];
        if (dw < 0) {
          dw = du + 1;
          dist_sum += dw;
          order[tail++] = w;
        }
        if (dw == du + 1) {
          sigma[static_cast<size_t>(w)] += sigma[static_cast<size_t>(u)];
        }
      }
    }
    // Closeness (Eq. 9) with the Wasserman-Faust correction:
    // (r / (n-1)) * (r / dist_sum), where r = nodes reachable from s.
    const int64_t reachable = static_cast<int64_t>(tail) - 1;
    if (reachable > 0 && dist_sum > 0) {
      const double r = static_cast<double>(reachable);
      out.closeness[static_cast<size_t>(s)] =
          (r / static_cast<double>(n - 1)) *
          (r / static_cast<double>(dist_sum));
    }
    // Brandes' dependency accumulation in reverse BFS order. A node's
    // predecessors are its neighbors one level closer to s, each
    // counted once per parallel edge — exactly the entries the forward
    // pass added to its sigma.
    for (size_t i = tail; i-- > 1;) {
      const int32_t w = order[i];
      const size_t uw = static_cast<size_t>(w);
      const int32_t closer = dist[uw] - 1;
      for (int32_t k = offsets[uw]; k < offsets[uw + 1]; ++k) {
        const size_t u = static_cast<size_t>(adj[static_cast<size_t>(k)]);
        if (dist[u] != closer) continue;
        delta[u] += sigma[u] / sigma[uw] * (1.0 + delta[uw]);
      }
      out.betweenness[uw] += delta[uw];
    }
    for (size_t i = 0; i < tail; ++i) {
      const size_t v = static_cast<size_t>(order[i]);
      dist[v] = -1;
      sigma[v] = 0.0;
      delta[v] = 0.0;
    }
  }
  // Undirected graphs count each pair twice.
  for (double& v : out.betweenness) v *= 0.5;
  return out;
}

std::vector<double> ClosenessCentrality(const AdjacencyList& g) {
  return ShortestPathCentrality(g).closeness;
}

std::vector<double> BetweennessCentrality(const AdjacencyList& g) {
  return ShortestPathCentrality(g).betweenness;
}

std::vector<double> PageRank(const AdjacencyList& g, double alpha,
                             int max_iters, double tol) {
  const int64_t n = g.num_nodes();
  if (n == 0) return {};
  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> rank(static_cast<size_t>(n), uniform);
  std::vector<double> next(static_cast<size_t>(n));
  for (int iter = 0; iter < max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t v = 0; v < n; ++v) {
      if (g.Neighbors(v).empty()) dangling += rank[static_cast<size_t>(v)];
    }
    std::fill(next.begin(), next.end(),
              (1.0 - alpha) * uniform + alpha * dangling * uniform);
    for (int64_t v = 0; v < n; ++v) {
      const auto& nbrs = g.Neighbors(v);
      if (nbrs.empty()) continue;
      const double share = alpha * rank[static_cast<size_t>(v)] /
                           static_cast<double>(nbrs.size());
      for (int64_t w : nbrs) next[static_cast<size_t>(w)] += share;
    }
    double change = 0.0;
    for (int64_t v = 0; v < n; ++v) {
      change += std::abs(next[static_cast<size_t>(v)] -
                         rank[static_cast<size_t>(v)]);
    }
    rank.swap(next);
    if (change < tol) break;
  }
  return rank;
}

SparseMatrix NormalizedAdjacency(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  std::vector<Triplet> triplets;
  for (int64_t u = 0; u < n; ++u) {
    triplets.push_back({u, u, 1.0f});  // self-loop (A + I)
    for (int64_t w : g.Neighbors(u)) {
      triplets.push_back({u, w, 1.0f});
    }
  }
  SparseMatrix a_plus_i = SparseMatrix::FromTriplets(n, n, std::move(triplets));
  std::vector<double> inv_sqrt_deg(static_cast<size_t>(n), 0.0);
  for (int64_t u = 0; u < n; ++u) {
    const double d = a_plus_i.RowSum(u);
    inv_sqrt_deg[static_cast<size_t>(u)] = d > 0 ? 1.0 / std::sqrt(d) : 0.0;
  }
  std::vector<Triplet> scaled;
  scaled.reserve(static_cast<size_t>(a_plus_i.nnz()));
  for (int64_t u = 0; u < n; ++u) {
    const auto idx = a_plus_i.RowIndices(u);
    const auto vals = a_plus_i.RowValues(u);
    for (size_t k = 0; k < idx.size(); ++k) {
      scaled.push_back(
          {u, idx[k],
           static_cast<float>(vals[k] * inv_sqrt_deg[static_cast<size_t>(u)] *
                              inv_sqrt_deg[static_cast<size_t>(idx[k])])});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(scaled));
}

}  // namespace ba::graph
