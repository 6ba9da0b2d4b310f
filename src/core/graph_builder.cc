#include "core/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "graph/sparse_matrix.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ba::core {

namespace {

constexpr double kSatoshisPerCoin = 100'000'000.0;

double ToBtc(chain::Amount v) {
  return static_cast<double>(v) / kSatoshisPerCoin;
}

/// Rebuilds a graph after merging: `group_of[i]` >= 0 assigns node i to
/// a merge group; -1 keeps the node as-is. Each group becomes one node
/// of `merged_kind` whose features are the compressed SFE over all the
/// member edge values; parallel (node, node, side) edges are summed.
void ApplyMerges(AddressGraph* graph, const std::vector<int>& group_of,
                 int num_groups, NodeKind merged_kind) {
  if (num_groups == 0) return;
  const int old_n = graph->num_nodes();
  BA_CHECK_EQ(static_cast<int>(group_of.size()), old_n);

  // New index for every old node: kept nodes first (stable), then one
  // node per group.
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

  // Collect member edge values per group (the SFE input of Eq. 2/7) and
  // remap edges, summing parallel ones.
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

}  // namespace

Status GraphConstructorOptions::Validate() const {
  if (slice_size <= 0) {
    return Status::InvalidArgument(
        "construction.slice_size must be positive (got " +
        std::to_string(slice_size) + ")");
  }
  if (similarity_threshold < 0.0) {
    return Status::InvalidArgument(
        "construction.similarity_threshold must be non-negative (got " +
        std::to_string(similarity_threshold) + ")");
  }
  if (sigma < 0) {
    return Status::InvalidArgument("construction.sigma must be >= 0 (got " +
                                   std::to_string(sigma) + ")");
  }
  if (max_txs_per_address <= 0) {
    return Status::InvalidArgument(
        "construction.max_txs_per_address must be positive (got " +
        std::to_string(max_txs_per_address) + ")");
  }
  return Status::OK();
}

GraphConstructor::GraphConstructor(GraphConstructorOptions options)
    : options_(options) {
  BA_CHECK_GT(options_.slice_size, 0);
  BA_CHECK_GE(options_.similarity_threshold, 0.0);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphs(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address) {
  return BuildGraphsFrom(snapshot, address, /*start_slice=*/0);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphs(
    const chain::Ledger& ledger, chain::AddressId address) {
  return BuildGraphsFrom(ledger.Snapshot(), address, /*start_slice=*/0);
}

std::vector<AddressGraph> GraphConstructor::BuildGraphsFrom(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice, int end_slice) {
  BA_TRACE_SPAN("core.graph.build");
  Stopwatch watch;

  watch.Start();
  std::vector<AddressGraph> graphs;
  {
    BA_TRACE_SPAN("core.graph.extract");
    graphs = ExtractOriginalGraphs(snapshot, address, start_slice, end_slice);
  }
  watch.Stop();
  timings_.extract_seconds += watch.ElapsedSeconds();

  if (options_.enable_single_compression) {
    BA_TRACE_SPAN("core.graph.compress_single");
    watch.Reset();
    watch.Start();
    for (auto& g : graphs) CompressSingleTransactionAddresses(&g);
    watch.Stop();
    timings_.single_compress_seconds += watch.ElapsedSeconds();
  }

  if (options_.enable_multi_compression) {
    BA_TRACE_SPAN("core.graph.compress_multi");
    watch.Reset();
    watch.Start();
    for (auto& g : graphs) CompressMultiTransactionAddresses(&g);
    watch.Stop();
    timings_.multi_compress_seconds += watch.ElapsedSeconds();
  }

  if (options_.enable_augmentation) {
    BA_TRACE_SPAN("core.graph.augment");
    watch.Reset();
    watch.Start();
    for (auto& g : graphs) AugmentStructure(&g);
    watch.Stop();
    timings_.augment_seconds += watch.ElapsedSeconds();
  }
  return graphs;
}

std::vector<AddressGraph> GraphConstructor::ExtractOriginalGraphs(
    const chain::LedgerSnapshot& snapshot, chain::AddressId address,
    int start_slice, int end_slice) const {
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

    // Values incident to each node within this slice, used for the
    // node's SFE features; indexed by node id.
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

    // The target address is always node 0 of its graph.
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

    {
      BA_TRACE_SPAN("core.sfe");
      for (int i = 0; i < g.num_nodes(); ++i) {
        GraphNode& node = g.nodes[static_cast<size_t>(i)];
        node.features =
            MakeNodeFeatures(node.kind, node_values[static_cast<size_t>(i)]);
      }
    }
    g.nodes[static_cast<size_t>(g.target_node)]
        .features[static_cast<size_t>(kTargetFlagIndex)] = 1.0;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

void GraphConstructor::CompressSingleTransactionAddresses(
    AddressGraph* graph) const {
  const int n = graph->num_nodes();
  // Distinct transactions incident to each address node.
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

  // Group single-transaction addresses by (transaction, side).
  // Key: tx_node * 2 + (is_input ? 1 : 0).
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
    if (i == graph->target_node) continue;  // never merge the target
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
    if (members.size() < 2) continue;  // nothing to compress
    for (int m : members) group_of[static_cast<size_t>(m)] = num_groups;
    ++num_groups;
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kSingleHyper);
}

void GraphConstructor::CompressMultiTransactionAddresses(
    AddressGraph* graph) const {
  const int n = graph->num_nodes();
  // Multi-transaction candidates: plain address nodes (not the target)
  // incident to >= 2 distinct transactions.
  std::vector<std::unordered_set<int>> txs_of(static_cast<size_t>(n));
  std::unordered_map<int, int> tx_col;  // tx node index -> column
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
      continue;  // hyper-hyper artifacts cannot occur, but stay safe
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

  // A ∈ {0,1}^(n_multi x d): candidate-transaction incidence (Eq. 3).
  const int64_t rows = static_cast<int64_t>(candidates.size());
  const int64_t cols = static_cast<int64_t>(tx_col.size());
  const double psi = options_.similarity_threshold;
  std::vector<std::vector<int>> similar(static_cast<size_t>(rows));

  if (options_.use_sparse_similarity) {
    // Optimized backend: exploit that A is a sparse incidence matrix,
    // so S = A·Aᵀ only materializes co-occurring pairs. Produces the
    // same similar-sets as the dense computation below.
    std::vector<graph::Triplet> triplets;
    for (int64_t r = 0; r < rows; ++r) {
      for (int tx :
           txs_of[static_cast<size_t>(candidates[static_cast<size_t>(r)])]) {
        triplets.push_back({r, tx_col.at(tx), 1.0f});
      }
    }
    const graph::SparseMatrix a =
        graph::SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
    const graph::SparseMatrix s = a.Multiply(a.Transpose());
    // q_ij > 0  ⇔  s_ij / s_jj > Ψ (Eq. 4-6).
    for (int64_t i = 0; i < rows; ++i) {
      const auto idx = s.RowIndices(i);
      const auto vals = s.RowValues(i);
      for (size_t k = 0; k < idx.size(); ++k) {
        const int64_t j = idx[k];
        if (j == i) continue;
        const float degree_j = s.At(j, j);
        if (degree_j <= 0.0f) continue;
        if (static_cast<double>(vals[k]) / degree_j > psi) {
          similar[static_cast<size_t>(i)].push_back(static_cast<int>(j));
        }
      }
    }
  } else {
    // Paper-faithful dense computation (Eq. 3-5): materialize A, then
    // S = A·Aᵀ, M = S·D⁻¹ and Q = ReLU(M − Ψ·I) as dense matrices.
    // This all-pairs similarity is what makes Stage 3 the most
    // expensive construction stage in the paper's Table V.
    std::vector<float> a(static_cast<size_t>(rows * cols), 0.0f);
    for (int64_t r = 0; r < rows; ++r) {
      for (int tx :
           txs_of[static_cast<size_t>(candidates[static_cast<size_t>(r)])]) {
        a[static_cast<size_t>(r * cols + tx_col.at(tx))] = 1.0f;
      }
    }
    std::vector<float> s(static_cast<size_t>(rows * rows), 0.0f);
    for (int64_t i = 0; i < rows; ++i) {          // S = A·Aᵀ (Eq. 3)
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
        // M = S·D⁻¹ (Eq. 4), Q = ReLU(M − Ψ·I) (Eq. 5).
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
  }

  // Greedy merge, most-connected seeds first (the paper retains nodes
  // whose similar set exceeds σ and folds g_i^sim into them).
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

void GraphConstructor::AugmentStructure(AddressGraph* graph) const {
  const graph::AdjacencyList adj = graph->ToAdjacency();
  const std::vector<double> degree = graph::DegreeCentrality(adj);
  const graph::PathCentrality paths = graph::ShortestPathCentrality(adj);
  const std::vector<double>& closeness = paths.closeness;
  const std::vector<double>& betweenness = paths.betweenness;
  const std::vector<double> pagerank = graph::PageRank(adj);
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
    // PageRank rescaled to mean 1 before compression.
    f[static_cast<size_t>(base + 3)] =
        std::log1p(n * pagerank[static_cast<size_t>(i)]);
  }
}

}  // namespace ba::core
