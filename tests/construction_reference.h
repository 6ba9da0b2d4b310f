#pragma once

// Test-local reference for the flat graph construction: the hash-map
// and vector-of-vectors implementation of Stages 1-4 and
// PrepareGraphTensors that the flat one replaced, kept verbatim so
// flat_construction_test can demand bit-identical graphs and tensors.
// Only renames: `reference::` types stand in for the library's graph
// types, and the options are passed explicitly.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/ledger.h"
#include "core/address_graph.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "core/sfe.h"
#include "graph/sparse_matrix.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace ba::core::reference {

// -- graph/centrality ---------------------------------------------------

class AdjacencyList {
 public:
  explicit AdjacencyList(int64_t num_nodes)
      : neighbors_(static_cast<size_t>(num_nodes)) {}

  void AddEdge(int64_t u, int64_t v) {
    BA_CHECK_LT(u, num_nodes());
    BA_CHECK_LT(v, num_nodes());
    neighbors_[static_cast<size_t>(u)].push_back(v);
    if (u != v) neighbors_[static_cast<size_t>(v)].push_back(u);
  }

  int64_t num_nodes() const {
    return static_cast<int64_t>(neighbors_.size());
  }

  const std::vector<int64_t>& Neighbors(int64_t u) const {
    BA_CHECK_LT(u, num_nodes());
    return neighbors_[static_cast<size_t>(u)];
  }

 private:
  std::vector<std::vector<int64_t>> neighbors_;
};

inline std::vector<double> DegreeCentrality(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  for (int64_t v = 0; v < n; ++v) {
    out[static_cast<size_t>(v)] =
        static_cast<double>(g.Neighbors(v).size());
  }
  return out;
}

struct PathCentrality {
  std::vector<double> closeness;
  std::vector<double> betweenness;
};

inline PathCentrality ShortestPathCentrality(const AdjacencyList& g) {
  const int64_t n = g.num_nodes();
  const size_t un = static_cast<size_t>(n);
  PathCentrality out;
  out.closeness.assign(un, 0.0);
  out.betweenness.assign(un, 0.0);
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
        if (w == u) continue;
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
    const int64_t reachable = static_cast<int64_t>(tail) - 1;
    if (reachable > 0 && dist_sum > 0) {
      const double r = static_cast<double>(reachable);
      out.closeness[static_cast<size_t>(s)] =
          (r / static_cast<double>(n - 1)) *
          (r / static_cast<double>(dist_sum));
    }
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
  for (double& v : out.betweenness) v *= 0.5;
  return out;
}

inline std::vector<double> PageRank(const AdjacencyList& g,
                                    double alpha = 0.85, int max_iters = 100,
                                    double tol = 1e-10) {
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

inline graph::SparseMatrix NormalizedAdjacency(const AdjacencyList& g) {
  using graph::SparseMatrix;
  using graph::Triplet;
  const int64_t n = g.num_nodes();
  std::vector<Triplet> triplets;
  for (int64_t u = 0; u < n; ++u) {
    triplets.push_back({u, u, 1.0f});
    for (int64_t w : g.Neighbors(u)) {
      triplets.push_back({u, w, 1.0f});
    }
  }
  SparseMatrix a_plus_i =
      SparseMatrix::FromTriplets(n, n, std::move(triplets));
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

// -- core/sfe -------------------------------------------------------------

inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

inline std::array<double, kSfeDim> ComputeSfe(
    const std::vector<double>& values) {
  std::array<double, kSfeDim> out{};
  const size_t n = values.size();
  if (n == 0) return out;

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double min_v = sorted.front();
  const double max_v = sorted.back();

  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(n);

  double m2 = 0.0, m3 = 0.0, m4 = 0.0, abs_dev = 0.0;
  for (double v : values) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
    abs_dev += std::abs(d);
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  const double variance = m2;
  const double stddev = std::sqrt(variance);
  const double mad = abs_dev / static_cast<double>(n);
  const double median = Percentile(sorted, 0.5);

  out[kSfeMax] = max_v;
  out[kSfeMin] = min_v;
  out[kSfeSum] = sum;
  out[kSfeMean] = mean;
  out[kSfeCount] = static_cast<double>(n);
  out[kSfeRange] = max_v - min_v;
  out[kSfeMidRange] = (max_v + min_v) / 2.0;
  out[kSfePercentile75] = Percentile(sorted, 0.75);
  out[kSfeVariance] = variance;
  out[kSfeStdDev] = stddev;
  out[kSfeMeanAbsDev] = mad;
  out[kSfeCoeffVar] = mean != 0.0 ? stddev / std::abs(mean) : 0.0;
  out[kSfeKurtosis] = variance > 0.0 ? m4 / (variance * variance) : 0.0;
  out[kSfeSkewness] = stddev > 0.0 ? m3 / (stddev * stddev * stddev) : 0.0;
  out[kSfeTilt] = stddev > 0.0 ? 3.0 * (mean - median) / stddev : 0.0;
  return out;
}

// -- core/address_graph -----------------------------------------------------

struct GraphNode {
  NodeKind kind = NodeKind::kAddress;
  chain::AddressId address = chain::kInvalidAddress;
  chain::TxId txid = 0;
  int merged_count = 1;
  std::vector<double> features;
};

struct GraphEdge {
  int from = 0;
  int to = 0;
  double value = 0.0;
  bool is_input = false;
};

struct AddressGraph {
  chain::AddressId target = chain::kInvalidAddress;
  int target_node = 0;
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;
  int slice_index = 0;

  int num_nodes() const { return static_cast<int>(nodes.size()); }

  AdjacencyList ToAdjacency() const {
    AdjacencyList adj(num_nodes());
    for (const auto& e : edges) adj.AddEdge(e.from, e.to);
    return adj;
  }
};

inline std::vector<double> MakeNodeFeatures(
    NodeKind kind, const std::vector<double>& values) {
  std::vector<double> f(kNodeFeatureDim, 0.0);
  f[static_cast<size_t>(kind)] = 1.0;
  const auto sfe = CompressSfe(ComputeSfe(values));
  for (int i = 0; i < kSfeDim; ++i) {
    f[static_cast<size_t>(kSfeFeatureOffset + i)] =
        sfe[static_cast<size_t>(i)];
  }
  return f;
}

// -- core/graph_builder -----------------------------------------------------

constexpr double kSatoshisPerCoin = 100'000'000.0;

inline double ToBtc(chain::Amount v) {
  return static_cast<double>(v) / kSatoshisPerCoin;
}

inline void ApplyMerges(AddressGraph* graph, const std::vector<int>& group_of,
                        int num_groups, NodeKind merged_kind) {
  if (num_groups == 0) return;
  const int old_n = graph->num_nodes();
  BA_CHECK_EQ(static_cast<int>(group_of.size()), old_n);

  std::vector<int> new_index(static_cast<size_t>(old_n), -1);
  std::vector<GraphNode> new_nodes;
  for (int i = 0; i < old_n; ++i) {
    if (group_of[static_cast<size_t>(i)] < 0) {
      new_index[static_cast<size_t>(i)] =
          static_cast<int>(new_nodes.size());
      new_nodes.push_back(std::move(graph->nodes[static_cast<size_t>(i)]));
    }
  }
  const int first_group_node = static_cast<int>(new_nodes.size());
  std::vector<std::vector<double>> group_values(
      static_cast<size_t>(num_groups));
  std::vector<int> group_sizes(static_cast<size_t>(num_groups), 0);
  for (int i = 0; i < old_n; ++i) {
    const int g = group_of[static_cast<size_t>(i)];
    if (g >= 0) {
      new_index[static_cast<size_t>(i)] = first_group_node + g;
      group_sizes[static_cast<size_t>(g)] +=
          graph->nodes[static_cast<size_t>(i)].merged_count;
    }
  }

  struct EdgeKey {
    int from;
    int to;
    bool is_input;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.from) << 32) ^
                                  (static_cast<uint32_t>(k.to) << 1) ^
                                  (k.is_input ? 1 : 0));
    }
  };
  std::unordered_map<EdgeKey, double, EdgeKeyHash> merged_edges;
  for (const auto& e : graph->edges) {
    const int gf = group_of[static_cast<size_t>(e.from)];
    const int gt = group_of[static_cast<size_t>(e.to)];
    if (gf >= 0) group_values[static_cast<size_t>(gf)].push_back(e.value);
    if (gt >= 0) group_values[static_cast<size_t>(gt)].push_back(e.value);
    const EdgeKey key{new_index[static_cast<size_t>(e.from)],
                      new_index[static_cast<size_t>(e.to)], e.is_input};
    merged_edges[key] += e.value;
  }

  for (int g = 0; g < num_groups; ++g) {
    GraphNode node;
    node.kind = merged_kind;
    node.merged_count = group_sizes[static_cast<size_t>(g)];
    node.features =
        MakeNodeFeatures(merged_kind, group_values[static_cast<size_t>(g)]);
    new_nodes.push_back(std::move(node));
  }

  std::vector<GraphEdge> new_edges;
  new_edges.reserve(merged_edges.size());
  for (const auto& [key, value] : merged_edges) {
    new_edges.push_back({key.from, key.to, value, key.is_input});
  }
  std::sort(new_edges.begin(), new_edges.end(),
            [](const GraphEdge& a, const GraphEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.is_input < b.is_input;
            });

  graph->target_node = new_index[static_cast<size_t>(graph->target_node)];
  BA_CHECK_GE(graph->target_node, 0);
  graph->nodes = std::move(new_nodes);
  graph->edges = std::move(new_edges);
}

inline std::vector<AddressGraph> ExtractOriginalGraphs(
    const GraphConstructorOptions& options_,
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice = 0,
    int end_slice = std::numeric_limits<int>::max()) {
  const std::vector<chain::TxId> txs = snapshot.TransactionsOf(
      address, static_cast<size_t>(options_.max_txs_per_address));

  std::vector<AddressGraph> graphs;
  const int slice_size = options_.slice_size;
  const int num_slices =
      static_cast<int>((txs.size() + slice_size - 1) / slice_size);
  const int stop = std::min(num_slices, end_slice);
  if (start_slice >= stop) return graphs;
  graphs.reserve(static_cast<size_t>(stop - start_slice));

  for (int s = start_slice; s < stop; ++s) {
    const size_t begin = static_cast<size_t>(s) * slice_size;
    const size_t end =
        std::min(txs.size(), begin + static_cast<size_t>(slice_size));

    AddressGraph g;
    g.target = address;
    g.slice_index = s;

    std::unordered_map<chain::AddressId, int> addr_node;
    std::vector<std::vector<double>> node_values;

    auto address_node = [&](chain::AddressId a) {
      auto it = addr_node.find(a);
      if (it != addr_node.end()) return it->second;
      GraphNode node;
      node.kind = NodeKind::kAddress;
      node.address = a;
      const int idx = g.num_nodes();
      g.nodes.push_back(std::move(node));
      node_values.emplace_back();
      addr_node.emplace(a, idx);
      return idx;
    };

    g.target_node = address_node(address);

    for (size_t t = begin; t < end; ++t) {
      const chain::Transaction& tx = snapshot.tx(txs[t]);
      GraphNode tx_node;
      tx_node.kind = NodeKind::kTransaction;
      tx_node.txid = tx.txid;
      const int tx_idx = g.num_nodes();
      g.nodes.push_back(std::move(tx_node));
      node_values.emplace_back();

      for (const auto& in : tx.inputs) {
        const int a_idx = address_node(in.address);
        const double v = ToBtc(in.value);
        g.edges.push_back({a_idx, tx_idx, v, /*is_input=*/true});
        node_values[static_cast<size_t>(a_idx)].push_back(v);
        node_values[static_cast<size_t>(tx_idx)].push_back(v);
      }
      for (const auto& out : tx.outputs) {
        const int a_idx = address_node(out.address);
        const double v = ToBtc(out.value);
        g.edges.push_back({tx_idx, a_idx, v, /*is_input=*/false});
        node_values[static_cast<size_t>(a_idx)].push_back(v);
        node_values[static_cast<size_t>(tx_idx)].push_back(v);
      }
    }

    for (int i = 0; i < g.num_nodes(); ++i) {
      GraphNode& node = g.nodes[static_cast<size_t>(i)];
      node.features =
          MakeNodeFeatures(node.kind, node_values[static_cast<size_t>(i)]);
    }
    g.nodes[static_cast<size_t>(g.target_node)]
        .features[static_cast<size_t>(kTargetFlagIndex)] = 1.0;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

inline void CompressSingleTransactionAddresses(AddressGraph* graph) {
  const int n = graph->num_nodes();
  std::vector<std::unordered_set<int>> txs_of(static_cast<size_t>(n));
  for (const auto& e : graph->edges) {
    const auto& from = graph->nodes[static_cast<size_t>(e.from)];
    if (from.kind == NodeKind::kAddress) {
      txs_of[static_cast<size_t>(e.from)].insert(e.to);
    }
    const auto& to = graph->nodes[static_cast<size_t>(e.to)];
    if (to.kind == NodeKind::kAddress) {
      txs_of[static_cast<size_t>(e.to)].insert(e.from);
    }
  }

  std::unordered_map<int64_t, std::vector<int>> side_groups;
  std::vector<bool> is_input_side(static_cast<size_t>(n), false);
  for (const auto& e : graph->edges) {
    if (e.is_input) {
      const auto& from = graph->nodes[static_cast<size_t>(e.from)];
      if (from.kind == NodeKind::kAddress) {
        is_input_side[static_cast<size_t>(e.from)] = true;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto& node = graph->nodes[static_cast<size_t>(i)];
    if (node.kind != NodeKind::kAddress) continue;
    if (i == graph->target_node) continue;
    if (txs_of[static_cast<size_t>(i)].size() != 1) continue;
    const int tx = *txs_of[static_cast<size_t>(i)].begin();
    const int64_t key =
        static_cast<int64_t>(tx) * 2 +
        (is_input_side[static_cast<size_t>(i)] ? 1 : 0);
    side_groups[key].push_back(i);
  }

  std::vector<int> group_of(static_cast<size_t>(n), -1);
  int num_groups = 0;
  for (auto& [key, members] : side_groups) {
    if (members.size() < 2) continue;
    for (int m : members) group_of[static_cast<size_t>(m)] = num_groups;
    ++num_groups;
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kSingleHyper);
}

inline void CompressMultiTransactionAddresses(
    const GraphConstructorOptions& options_, AddressGraph* graph) {
  const int n = graph->num_nodes();
  std::vector<std::unordered_set<int>> txs_of(static_cast<size_t>(n));
  std::unordered_map<int, int> tx_col;
  for (const auto& e : graph->edges) {
    int addr_side = -1;
    int tx_side = -1;
    if (graph->nodes[static_cast<size_t>(e.from)].kind ==
        NodeKind::kTransaction) {
      tx_side = e.from;
      addr_side = e.to;
    } else {
      addr_side = e.from;
      tx_side = e.to;
    }
    if (graph->nodes[static_cast<size_t>(tx_side)].kind !=
        NodeKind::kTransaction) {
      continue;
    }
    if (!tx_col.count(tx_side)) {
      const int col = static_cast<int>(tx_col.size());
      tx_col.emplace(tx_side, col);
    }
    txs_of[static_cast<size_t>(addr_side)].insert(tx_side);
  }

  std::vector<int> candidates;
  for (int i = 0; i < n; ++i) {
    const auto& node = graph->nodes[static_cast<size_t>(i)];
    if (node.kind != NodeKind::kAddress || i == graph->target_node) continue;
    if (txs_of[static_cast<size_t>(i)].size() >= 2) candidates.push_back(i);
  }
  if (candidates.size() < 2) return;

  const int64_t rows = static_cast<int64_t>(candidates.size());
  const int64_t cols = static_cast<int64_t>(tx_col.size());
  const double psi = options_.similarity_threshold;
  std::vector<std::vector<int>> similar(static_cast<size_t>(rows));

  std::vector<float> a(static_cast<size_t>(rows * cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int tx :
         txs_of[static_cast<size_t>(candidates[static_cast<size_t>(r)])]) {
      a[static_cast<size_t>(r * cols + tx_col.at(tx))] = 1.0f;
    }
  }
  std::vector<float> s(static_cast<size_t>(rows * rows), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < rows; ++j) {
      float acc = 0.0f;
      const float* ai = a.data() + i * cols;
      const float* aj = a.data() + j * cols;
      for (int64_t k = 0; k < cols; ++k) acc += ai[k] * aj[k];
      s[static_cast<size_t>(i * rows + j)] = acc;
    }
  }
  std::vector<float> q(static_cast<size_t>(rows * rows), 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < rows; ++j) {
      const float degree_j = s[static_cast<size_t>(j * rows + j)];
      const float m = degree_j > 0.0f
                          ? s[static_cast<size_t>(i * rows + j)] / degree_j
                          : 0.0f;
      q[static_cast<size_t>(i * rows + j)] =
          std::max(0.0f, m - static_cast<float>(psi));
    }
  }
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < rows; ++j) {
      if (i != j && q[static_cast<size_t>(i * rows + j)] > 0.0f) {
        similar[static_cast<size_t>(i)].push_back(static_cast<int>(j));
      }
    }
  }

  std::vector<int64_t> order(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return similar[static_cast<size_t>(x)].size() >
           similar[static_cast<size_t>(y)].size();
  });

  std::vector<int> group_of(static_cast<size_t>(n), -1);
  std::vector<bool> consumed(static_cast<size_t>(rows), false);
  int num_groups = 0;
  for (int64_t i : order) {
    if (consumed[static_cast<size_t>(i)]) continue;
    const auto& sim = similar[static_cast<size_t>(i)];
    if (static_cast<int>(sim.size()) < options_.sigma) continue;
    std::vector<int> members{candidates[static_cast<size_t>(i)]};
    consumed[static_cast<size_t>(i)] = true;
    for (int j : sim) {
      if (consumed[static_cast<size_t>(j)]) continue;
      consumed[static_cast<size_t>(j)] = true;
      members.push_back(candidates[static_cast<size_t>(j)]);
    }
    if (members.size() < 2) continue;
    for (int m : members) group_of[static_cast<size_t>(m)] = num_groups;
    ++num_groups;
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kMultiHyper);
}

inline void AugmentStructure(AddressGraph* graph) {
  const AdjacencyList adj = graph->ToAdjacency();
  const std::vector<double> degree = DegreeCentrality(adj);
  const PathCentrality paths = ShortestPathCentrality(adj);
  const std::vector<double>& closeness = paths.closeness;
  const std::vector<double>& betweenness = paths.betweenness;
  const std::vector<double> pagerank = PageRank(adj);
  const double n = static_cast<double>(graph->num_nodes());
  const int base = kCentralityFeatureOffset;
  for (int i = 0; i < graph->num_nodes(); ++i) {
    auto& f = graph->nodes[static_cast<size_t>(i)].features;
    BA_CHECK_EQ(static_cast<int>(f.size()), kNodeFeatureDim);
    f[static_cast<size_t>(base + 0)] =
        std::log1p(degree[static_cast<size_t>(i)]);
    f[static_cast<size_t>(base + 1)] = closeness[static_cast<size_t>(i)];
    f[static_cast<size_t>(base + 2)] =
        std::log1p(betweenness[static_cast<size_t>(i)]);
    f[static_cast<size_t>(base + 3)] =
        std::log1p(n * pagerank[static_cast<size_t>(i)]);
  }
}

/// GraphConstructor::BuildGraphsFrom's stage sequence over the
/// reference stages.
inline std::vector<AddressGraph> BuildGraphsFrom(
    const GraphConstructorOptions& options,
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice = 0,
    int end_slice = std::numeric_limits<int>::max()) {
  std::vector<AddressGraph> graphs =
      ExtractOriginalGraphs(options, snapshot, address, start_slice,
                            end_slice);
  if (options.enable_single_compression) {
    for (auto& g : graphs) CompressSingleTransactionAddresses(&g);
  }
  if (options.enable_multi_compression) {
    for (auto& g : graphs) CompressMultiTransactionAddresses(options, &g);
  }
  if (options.enable_augmentation) {
    for (auto& g : graphs) AugmentStructure(&g);
  }
  return graphs;
}

// -- core/gfn_features -------------------------------------------------------

inline GraphTensors PrepareGraphTensors(const AddressGraph& graph,
                                        int k_hops) {
  BA_CHECK_GE(k_hops, 0);
  const int64_t n = graph.num_nodes();
  BA_CHECK_GT(n, 0);

  GraphTensors out;
  out.base_features = tensor::Tensor({n, kNodeFeatureDim});
  for (int64_t i = 0; i < n; ++i) {
    const auto& f = graph.nodes[static_cast<size_t>(i)].features;
    BA_CHECK_EQ(static_cast<int>(f.size()), kNodeFeatureDim);
    for (int64_t j = 0; j < kNodeFeatureDim; ++j) {
      out.base_features.at(i, j) =
          static_cast<float>(f[static_cast<size_t>(j)]);
    }
  }

  const AdjacencyList adj = graph.ToAdjacency();
  out.norm_adj = std::make_shared<const graph::SparseMatrix>(
      NormalizedAdjacency(adj));

  const int64_t aug_dim = AugmentedDim(k_hops);
  out.augmented = tensor::Tensor({n, aug_dim});
  const std::vector<double> degree = DegreeCentrality(adj);
  for (int64_t i = 0; i < n; ++i) {
    out.augmented.at(i, 0) = static_cast<float>(
        std::log1p(degree[static_cast<size_t>(i)]));
  }
  tensor::Tensor propagated = out.base_features;
  int64_t col = 1;
  for (int hop = 0; hop <= k_hops; ++hop) {
    if (hop > 0) {
      tensor::Tensor next({n, kNodeFeatureDim});
      out.norm_adj->MultiplyDense(propagated.data(), kNodeFeatureDim,
                                  next.data());
      propagated = std::move(next);
    }
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < kNodeFeatureDim; ++j) {
        out.augmented.at(i, col + j) = propagated.at(i, j);
      }
    }
    col += kNodeFeatureDim;
  }
  BA_CHECK_EQ(col, aug_dim);
  return out;
}

}  // namespace ba::core::reference
