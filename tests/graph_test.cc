// Unit and property tests for src/graph: CSR sparse matrix and the
// centrality measures used by graph structure augmentation (Eq. 8-11).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>

#include "graph/centrality.h"
#include "graph/sparse_matrix.h"
#include "util/rng.h"

namespace ba::graph {
namespace {

TEST(SparseMatrixTest, FromTripletsSumsDuplicates) {
  auto m = SparseMatrix::FromTriplets(
      2, 3, {{0, 1, 1.0f}, {0, 1, 2.5f}, {1, 2, -1.0f}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_FLOAT_EQ(m.At(0, 1), 3.5f);
  EXPECT_FLOAT_EQ(m.At(1, 2), -1.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(SparseMatrixTest, RowAccessSortedByColumn) {
  auto m = SparseMatrix::FromTriplets(
      1, 5, {{0, 4, 4.0f}, {0, 0, 1.0f}, {0, 2, 2.0f}});
  const auto idx = m.RowIndices(0);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 0);
  EXPECT_EQ(idx[1], 2);
  EXPECT_EQ(idx[2], 4);
  const auto vals = m.RowValues(0);
  EXPECT_FLOAT_EQ(vals[1], 2.0f);
}

TEST(SparseMatrixTest, MultiplyDenseMatchesManual) {
  // [[1, 0], [2, 3]] * [[1, 2], [3, 4]] = [[1, 2], [11, 16]]
  auto m = SparseMatrix::FromTriplets(2, 2,
                                      {{0, 0, 1.0f}, {1, 0, 2.0f}, {1, 1, 3.0f}});
  const float x[] = {1.0f, 2.0f, 3.0f, 4.0f};
  float y[4] = {};
  m.MultiplyDense(x, 2, y);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 11.0f);
  EXPECT_FLOAT_EQ(y[3], 16.0f);
}

TEST(SparseMatrixTest, TransposeSwapsIndices) {
  auto m = SparseMatrix::FromTriplets(2, 3, {{0, 2, 5.0f}, {1, 0, 7.0f}});
  auto t = m.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.At(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(t.At(0, 1), 7.0f);
}

AdjacencyList PathGraph(int64_t n) {
  std::vector<Edge> edges;
  for (int64_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return AdjacencyList(n, edges);
}

AdjacencyList StarGraph(int64_t leaves) {
  std::vector<Edge> edges;
  for (int64_t i = 1; i <= leaves; ++i) edges.push_back({0, i});
  return AdjacencyList(leaves + 1, edges);
}

TEST(CentralityTest, DegreeOnStar) {
  const auto d = DegreeCentrality(StarGraph(5));
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  for (int i = 1; i <= 5; ++i) EXPECT_DOUBLE_EQ(d[i], 1.0);
}

TEST(CentralityTest, ClosenessOnPath) {
  // Path 0-1-2: center has distance sum 2, ends 3.
  const auto c = ClosenessCentrality(PathGraph(3));
  EXPECT_DOUBLE_EQ(c[1], 1.0);        // (2)/(2) -> 2/2=1
  EXPECT_DOUBLE_EQ(c[0], 2.0 / 3.0);  // 2/(1+2)
  EXPECT_DOUBLE_EQ(c[2], 2.0 / 3.0);
}

TEST(CentralityTest, ClosenessHandlesDisconnected) {
  const AdjacencyList g(4, {{0, 1}});  // component {0,1}; 2 and 3 isolated
  const auto c = ClosenessCentrality(g);
  EXPECT_GT(c[0], 0.0);
  EXPECT_DOUBLE_EQ(c[2], 0.0);
  EXPECT_DOUBLE_EQ(c[3], 0.0);
  // Wasserman-Faust: only 1 of 3 others reachable.
  EXPECT_DOUBLE_EQ(c[0], (1.0 / 3.0) * 1.0);
}

TEST(CentralityTest, BetweennessOnPath) {
  // Path 0-1-2-3-4: betweenness of node i counts pairs routed via it.
  const auto b = BetweennessCentrality(PathGraph(5));
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[4], 0.0);
  EXPECT_DOUBLE_EQ(b[1], 3.0);  // pairs (0,2),(0,3),(0,4)
  EXPECT_DOUBLE_EQ(b[2], 4.0);  // (0,3),(0,4),(1,3),(1,4)
}

TEST(CentralityTest, BetweennessOnStarCenter) {
  const int64_t leaves = 6;
  const auto b = BetweennessCentrality(StarGraph(leaves));
  // Center mediates all leaf pairs: C(6,2) = 15.
  EXPECT_DOUBLE_EQ(b[0], 15.0);
  for (int64_t i = 1; i <= leaves; ++i) EXPECT_DOUBLE_EQ(b[i], 0.0);
}

TEST(CentralityTest, BetweennessCountsMultipleShortestPaths) {
  // 4-cycle: two shortest paths between opposite corners; each middle
  // node gets 1/2 per opposite pair.
  const AdjacencyList g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const auto b = BetweennessCentrality(g);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(b[i], 0.5);
}

// Textbook references for the fused shortest-path pass: a plain BFS
// per source for closeness, and Brandes with explicit predecessor lists
// for betweenness, both over the adjacency lists themselves.
std::vector<double> ReferenceCloseness(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  if (n <= 1) return out;
  std::vector<int64_t> dist(static_cast<size_t>(n));
  std::deque<int64_t> queue;
  for (int64_t s = 0; s < n; ++s) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<size_t>(s)] = 0;
    queue.assign(1, s);
    int64_t reachable = 0;
    int64_t dist_sum = 0;
    while (!queue.empty()) {
      const int64_t u = queue.front();
      queue.pop_front();
      for (int64_t w : g.Neighbors(u)) {
        if (dist[static_cast<size_t>(w)] < 0) {
          dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(u)] + 1;
          dist_sum += dist[static_cast<size_t>(w)];
          ++reachable;
          queue.push_back(w);
        }
      }
    }
    if (reachable == 0 || dist_sum == 0) continue;
    const double r = static_cast<double>(reachable);
    out[static_cast<size_t>(s)] =
        (r / static_cast<double>(n - 1)) * (r / static_cast<double>(dist_sum));
  }
  return out;
}

std::vector<double> ReferenceBetweenness(const AdjacencyList& g) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  std::vector<double> bc(n, 0.0);
  for (size_t s = 0; s < n; ++s) {
    std::vector<int64_t> dist(n, -1);
    std::vector<double> sigma(n, 0.0);
    std::vector<double> delta(n, 0.0);
    std::vector<std::vector<int64_t>> preds(n);
    std::vector<int64_t> order;
    std::deque<int64_t> queue(1, static_cast<int64_t>(s));
    dist[s] = 0;
    sigma[s] = 1.0;
    while (!queue.empty()) {
      const int64_t u = queue.front();
      queue.pop_front();
      order.push_back(u);
      for (int64_t w : g.Neighbors(u)) {
        if (w == u) continue;
        auto& dw = dist[static_cast<size_t>(w)];
        if (dw < 0) {
          dw = dist[static_cast<size_t>(u)] + 1;
          queue.push_back(w);
        }
        if (dw == dist[static_cast<size_t>(u)] + 1) {
          sigma[static_cast<size_t>(w)] += sigma[static_cast<size_t>(u)];
          preds[static_cast<size_t>(w)].push_back(u);
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const size_t w = static_cast<size_t>(*it);
      for (int64_t u : preds[w]) {
        delta[static_cast<size_t>(u)] += sigma[static_cast<size_t>(u)] /
                                         sigma[w] * (1.0 + delta[w]);
      }
      if (w != s) bc[w] += delta[w];
    }
  }
  for (auto& v : bc) v *= 0.5;
  return bc;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The fused pass must reproduce the references bit for bit — the
// centralities feed node features, so any drift would move embeddings —
// on multigraphs with parallel edges, self-loops and several components.
TEST(CentralityTest, FusedPassMatchesTextbookReferencesBitwise) {
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    const int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(30));
    std::vector<Edge> edge_list;
    const uint64_t edges = rng.UniformInt(static_cast<uint64_t>(3 * n) + 1);
    for (uint64_t e = 0; e < edges; ++e) {
      const int64_t u =
          static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
      // Every fourth edge repeats an endpoint pair or loops on itself.
      const int64_t v =
          e % 4 == 3 ? u
                     : static_cast<int64_t>(
                           rng.UniformInt(static_cast<uint64_t>(n)));
      edge_list.push_back({u, v});
      if (e % 5 == 0) edge_list.push_back({u, v});  // parallel edge
    }
    const AdjacencyList g(n, edge_list);
    const PathCentrality fused = ShortestPathCentrality(g);
    EXPECT_TRUE(BitwiseEqual(fused.closeness, ReferenceCloseness(g)))
        << "closeness, trial " << trial;
    EXPECT_TRUE(BitwiseEqual(fused.betweenness, ReferenceBetweenness(g)))
        << "betweenness, trial " << trial;
    EXPECT_TRUE(BitwiseEqual(ClosenessCentrality(g), fused.closeness));
    EXPECT_TRUE(BitwiseEqual(BetweennessCentrality(g), fused.betweenness));
  }
}

TEST(CentralityTest, PageRankSumsToOne) {
  Rng rng(3);
  std::vector<Edge> edges;
  for (int i = 0; i < 60; ++i) {
    edges.push_back({static_cast<int64_t>(rng.UniformInt(30)),
                     static_cast<int64_t>(rng.UniformInt(30))});
  }
  const AdjacencyList g(30, edges);
  const auto pr = PageRank(g);
  double total = 0.0;
  for (double v : pr) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(CentralityTest, PageRankUniformOnRegularGraph) {
  // Cycle: every node identical by symmetry.
  std::vector<Edge> edges;
  for (int64_t i = 0; i < 8; ++i) edges.push_back({i, (i + 1) % 8});
  const AdjacencyList g(8, edges);
  const auto pr = PageRank(g);
  for (double v : pr) EXPECT_NEAR(v, 1.0 / 8.0, 1e-9);
}

TEST(CentralityTest, PageRankHubDominates) {
  const auto pr = PageRank(StarGraph(9));
  for (size_t i = 1; i < pr.size(); ++i) EXPECT_GT(pr[0], pr[i]);
}

TEST(CentralityTest, PageRankHandlesDanglingNodes) {
  const AdjacencyList g(3, {{0, 1}});  // node 2 isolated (dangling)
  const auto pr = PageRank(g);
  double total = 0.0;
  for (double v : pr) total += v;
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(NormalizedAdjacencyTest, SymmetricWithSelfLoops) {
  const AdjacencyList g(3, {{0, 1}, {1, 2}});
  const auto norm = NormalizedAdjacency(g);
  EXPECT_EQ(norm.rows(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_GT(norm.At(i, i), 0.0f);  // self loops present
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(norm.At(i, j), norm.At(j, i));
    }
  }
  // Exact entries: Ã_ij = 1 / sqrt(d̃_i · d̃_j) with d̃ = degree + 1.
  // Path 0-1-2: d̃ = {2, 3, 2}.
  EXPECT_NEAR(norm.At(0, 0), 1.0f / 2.0f, 1e-6f);
  EXPECT_NEAR(norm.At(1, 1), 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(norm.At(0, 1), 1.0f / std::sqrt(6.0f), 1e-6f);
  EXPECT_FLOAT_EQ(norm.At(0, 2), 0.0f);
}

TEST(NormalizedAdjacencyTest, UniformDegreeRowSumsToOne) {
  std::vector<Edge> edges;  // 4-cycle: all degrees 2 (+self loop -> 3)
  for (int64_t i = 0; i < 4; ++i) edges.push_back({i, (i + 1) % 4});
  const AdjacencyList g(4, edges);
  const auto norm = NormalizedAdjacency(g);
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(norm.RowSum(i), 1.0f, 1e-5f);
}

// Property suite over random graphs.
class CentralityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CentralityPropertyTest, InvariantsHold) {
  Rng rng(GetParam());
  const int64_t n = 5 + static_cast<int64_t>(rng.UniformInt(40));
  std::vector<Edge> edge_list;
  const int64_t edges = n + static_cast<int64_t>(rng.UniformInt(
                                static_cast<uint64_t>(2 * n)));
  for (int64_t e = 0; e < edges; ++e) {
    int64_t u = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    int64_t v = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (u != v) edge_list.push_back({u, v});
  }
  const AdjacencyList g(n, edge_list);
  const auto degree = DegreeCentrality(g);
  const auto closeness = ClosenessCentrality(g);
  const auto betweenness = BetweennessCentrality(g);
  const auto pagerank = PageRank(g);

  double pr_total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_GE(degree[static_cast<size_t>(i)], 0.0);
    EXPECT_GE(closeness[static_cast<size_t>(i)], 0.0);
    EXPECT_LE(closeness[static_cast<size_t>(i)], 1.0 + 1e-9);
    EXPECT_GE(betweenness[static_cast<size_t>(i)], -1e-9);
    pr_total += pagerank[static_cast<size_t>(i)];
    // Degree-zero nodes have zero closeness and betweenness.
    if (degree[static_cast<size_t>(i)] == 0.0) {
      EXPECT_DOUBLE_EQ(closeness[static_cast<size_t>(i)], 0.0);
      EXPECT_DOUBLE_EQ(betweenness[static_cast<size_t>(i)], 0.0);
    }
  }
  EXPECT_NEAR(pr_total, 1.0, 1e-7);
  // Total betweenness is bounded by the number of ordered pairs / 2.
  double b_total = 0.0;
  for (double b : betweenness) b_total += b;
  EXPECT_LE(b_total,
            static_cast<double>(n) * static_cast<double>(n - 1) / 2.0 *
                static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CentralityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ba::graph
