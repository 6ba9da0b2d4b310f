#include "graph/centrality.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ba::graph {

std::vector<double> DegreeCentrality(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (int64_t v = 0; v < n; ++v) {
    out[static_cast<size_t>(v)] = static_cast<double>(g.Degree(v));
  }
  return out;
}

PathCentrality ShortestPathCentrality(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  const size_t un = static_cast<size_t>(n);
  PathCentrality out;
  out.closeness.assign(un, 0.0);
  out.betweenness.assign(un, 0.0);
  // The CSR's neighbor order fixes the BFS order, and with it every
  // floating-point sum below.
  const int32_t* offsets = g.offsets().data();
  const int32_t* adj = g.targets().data();

  // Per-thread BFS scratch, sized up on demand; every pass restores
  // the entries it touched, so it is clean between calls.
  thread_local std::vector<int32_t> dist;
  thread_local std::vector<double> sigma;
  thread_local std::vector<double> delta;
  // BFS visit order, doubling as the queue: [head, tail) is pending.
  thread_local std::vector<int32_t> order;
  if (dist.size() < un) {
    dist.resize(un, -1);
    sigma.resize(un, 0.0);
    delta.resize(un, 0.0);
    order.resize(un);
  }
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
      if (g.Degree(v) == 0) dangling += rank[static_cast<size_t>(v)];
    }
    std::fill(next.begin(), next.end(),
              (1.0 - alpha) * uniform + alpha * dangling * uniform);
    for (int64_t v = 0; v < n; ++v) {
      const std::span<const int32_t> nbrs = g.Neighbors(v);
      if (nbrs.empty()) continue;
      const double share = alpha * rank[static_cast<size_t>(v)] /
                           static_cast<double>(nbrs.size());
      for (int32_t w : nbrs) next[static_cast<size_t>(w)] += share;
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
  const size_t un = static_cast<size_t>(n);
  // Row u of A+I holds u's neighbors plus u itself, each distinct
  // column once with its multiplicity as a float count, columns
  // ascending, as FromTriplets would merge the unit entries.
  std::vector<int64_t> row_ptr(un + 1, 0);
  std::vector<int64_t> col_idx;
  std::vector<float> values;
  col_idx.reserve(g.targets().size() + un);
  values.reserve(g.targets().size() + un);
  thread_local std::vector<int32_t> row;
  thread_local std::vector<double> inv_sqrt_deg;
  inv_sqrt_deg.assign(un, 0.0);
  for (int64_t u = 0; u < n; ++u) {
    const std::span<const int32_t> nbrs = g.Neighbors(u);
    row.assign(nbrs.begin(), nbrs.end());
    row.push_back(static_cast<int32_t>(u));
    std::sort(row.begin(), row.end());
    const size_t row_begin = values.size();
    for (size_t k = 0; k < row.size();) {
      size_t end = k + 1;
      while (end < row.size() && row[end] == row[k]) ++end;
      col_idx.push_back(row[k]);
      values.push_back(static_cast<float>(end - k));
      k = end;
    }
    float d = 0.0f;  // d̃_u, summed in float over the row as RowSum does
    for (size_t k = row_begin; k < values.size(); ++k) d += values[k];
    inv_sqrt_deg[static_cast<size_t>(u)] =
        d > 0 ? 1.0 / std::sqrt(static_cast<double>(d)) : 0.0;
    row_ptr[static_cast<size_t>(u) + 1] = static_cast<int64_t>(values.size());
  }
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t k = row_ptr[static_cast<size_t>(u)];
         k < row_ptr[static_cast<size_t>(u) + 1]; ++k) {
      float& v = values[static_cast<size_t>(k)];
      v = static_cast<float>(
          static_cast<double>(v) * inv_sqrt_deg[static_cast<size_t>(u)] *
          inv_sqrt_deg[static_cast<size_t>(col_idx[static_cast<size_t>(k)])]);
    }
  }
  return SparseMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                      std::move(values));
}

}  // namespace ba::graph
