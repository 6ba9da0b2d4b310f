#include "core/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <utility>

#include "graph/centrality.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ba::core {

namespace {

constexpr double kSatoshisPerCoin = 100'000'000.0;

double ToBtc(chain::Amount v) {
  return static_cast<double>(v) / kSatoshisPerCoin;
}

/// Keyed lists in one flat CSR: list k is
/// `values[offsets[k] .. offsets[k + 1])`.
template <typename T>
struct Buckets {
  std::vector<int32_t> offsets;
  std::vector<T> values;

  std::span<const T> operator[](size_t k) const {
    return {values.data() + offsets[k],
            static_cast<size_t>(offsets[k + 1] - offsets[k])};
  }
};

/// Stable counting sort into `num_keys` buckets. `for_each_pair(emit)`
/// must call `emit(key, value)` for every pair, the same sequence each
/// time (it runs twice: count, then fill); each bucket keeps its values
/// in that order, so sums over a bucket add in emission order.
template <typename T, typename ForEachPair>
void FillBuckets(size_t num_keys, ForEachPair for_each_pair,
                 Buckets<T>* out) {
  // Key k counts into offsets[k + 2]; after the prefix sum offsets[k + 1]
  // is k's first slot, and filling advances it to k + 1's first slot.
  out->offsets.assign(num_keys + 2, 0);
  for_each_pair([&](int key, const T&) {
    ++out->offsets[static_cast<size_t>(key) + 2];
  });
  for (size_t k = 2; k < num_keys + 2; ++k) {
    out->offsets[k] += out->offsets[k - 1];
  }
  out->values.resize(static_cast<size_t>(out->offsets[num_keys + 1]));
  for_each_pair([&](int key, const T& value) {
    out->values[static_cast<size_t>(
        out->offsets[static_cast<size_t>(key) + 1]++)] = value;
  });
  out->offsets.pop_back();
}

/// Address -> node index within one slice: open addressing with linear
/// probing over a power-of-two table at most half full, cleared per
/// slice.
class AddressTable {
 public:
  void Reset(size_t max_entries) {
    size_t capacity = 16;
    int bits = 4;
    while (capacity < 2 * max_entries) {
      capacity <<= 1;
      ++bits;
    }
    shift_ = 64 - bits;
    keys_.resize(capacity);
    nodes_.assign(capacity, -1);
  }

  /// The node slot of `a`: -1 until the caller assigns one.
  int& Slot(chain::AddressId a) {
    const size_t mask = nodes_.size() - 1;
    size_t i = static_cast<size_t>((static_cast<uint64_t>(a) *
                                    0x9E3779B97F4A7C15ULL) >>
                                   shift_);
    while (nodes_[i] >= 0 && keys_[i] != a) i = (i + 1) & mask;
    keys_[i] = a;
    return nodes_[i];
  }

 private:
  std::vector<chain::AddressId> keys_;
  std::vector<int> nodes_;
  int shift_ = 60;
};

/// Stage 1 scratch, reused by every slice a thread extracts.
struct ExtractScratch {
  std::vector<chain::TxId> txs;  // the window's transaction ids
  AddressTable table;
  struct Node {
    NodeKind kind;
    chain::AddressId address;
    chain::TxId txid;
  };
  std::vector<Node> nodes;
  Buckets<double> values;  // per-node incident values, edge order
};

/// ApplyMerges scratch.
struct MergeScratch {
  std::vector<int> new_index;
  std::vector<int> group_sizes;
  Buckets<double> values;  // per-group member edge values, edge order
  struct KeyedEdge {
    uint64_t key;  // (from, to, is_input) after remapping
    uint32_t index;  // position in the old edge list
    double value;
  };
  std::vector<KeyedEdge> keyed;
};

/// Rebuilds a graph after merging: `group_of[i]` >= 0 assigns node i to
/// a merge group; -1 keeps the node as-is. Kept nodes come first
/// (stable), then one node of `merged_kind` per group whose features
/// are the compressed SFE over all the member edge values (in edge
/// order); parallel (node, node, side) edges are summed, from 0.0 in
/// edge order, and the result is sorted by (from, to, is_input).
void ApplyMerges(AddressGraph* graph, std::span<const int> group_of,
                 int num_groups, NodeKind merged_kind) {
  if (num_groups == 0) return;
  const int old_n = graph->num_nodes();
  BA_CHECK_EQ(static_cast<int>(group_of.size()), old_n);
  thread_local MergeScratch scratch;

  std::vector<int>& new_index = scratch.new_index;
  new_index.assign(static_cast<size_t>(old_n), -1);
  int kept = 0;
  for (int i = 0; i < old_n; ++i) {
    if (group_of[static_cast<size_t>(i)] < 0) {
      new_index[static_cast<size_t>(i)] = kept++;
    }
  }
  scratch.group_sizes.assign(static_cast<size_t>(num_groups), 0);
  for (int i = 0; i < old_n; ++i) {
    const int g = group_of[static_cast<size_t>(i)];
    if (g >= 0) {
      new_index[static_cast<size_t>(i)] = kept + g;
      scratch.group_sizes[static_cast<size_t>(g)] +=
          graph->nodes[static_cast<size_t>(i)].merged_count;
    }
  }

  // Member edge values per group: the SFE input of Eq. 2/7.
  FillBuckets(
      static_cast<size_t>(num_groups),
      [&](auto&& emit) {
        for (const auto& e : graph->edges) {
          const int gf = group_of[static_cast<size_t>(e.from)];
          const int gt = group_of[static_cast<size_t>(e.to)];
          if (gf >= 0) emit(gf, e.value);
          if (gt >= 0) emit(gt, e.value);
        }
      },
      &scratch.values);

  // Exactly sized outputs: graphs outlive construction (datasets keep
  // them), so they carry no slack capacity.
  std::vector<GraphNode> new_nodes;
  new_nodes.reserve(static_cast<size_t>(kept + num_groups));
  for (int i = 0; i < old_n; ++i) {
    if (group_of[static_cast<size_t>(i)] < 0) {
      new_nodes.push_back(graph->nodes[static_cast<size_t>(i)]);
    }
  }
  for (int g = 0; g < num_groups; ++g) {
    GraphNode& node = new_nodes.emplace_back();
    node.kind = merged_kind;
    node.merged_count = scratch.group_sizes[static_cast<size_t>(g)];
    node.features = MakeNodeFeatures(
        merged_kind, scratch.values[static_cast<size_t>(g)]);
  }

  // Remap edges and sort by (from, to, is_input), ties in edge order,
  // so each run of parallel edges sums in edge order.
  std::vector<MergeScratch::KeyedEdge>& keyed = scratch.keyed;
  keyed.clear();
  for (size_t k = 0; k < graph->edges.size(); ++k) {
    const GraphEdge& e = graph->edges[k];
    const uint64_t from =
        static_cast<uint64_t>(new_index[static_cast<size_t>(e.from)]);
    const uint64_t to =
        static_cast<uint64_t>(new_index[static_cast<size_t>(e.to)]);
    keyed.push_back({(from << 33) | (to << 1) | (e.is_input ? 1u : 0u),
                     static_cast<uint32_t>(k), e.value});
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const MergeScratch::KeyedEdge& a,
               const MergeScratch::KeyedEdge& b) {
              return a.key != b.key ? a.key < b.key : a.index < b.index;
            });
  size_t runs = 0;
  for (size_t k = 0; k < keyed.size(); ++k) {
    runs += k == 0 || keyed[k].key != keyed[k - 1].key ? 1 : 0;
  }
  std::vector<GraphEdge> new_edges;
  new_edges.reserve(runs);
  for (size_t k = 0; k < keyed.size();) {
    const uint64_t key = keyed[k].key;
    double sum = 0.0;
    for (; k < keyed.size() && keyed[k].key == key; ++k) sum += keyed[k].value;
    new_edges.push_back({static_cast<int>(key >> 33),
                         static_cast<int>((key >> 1) & 0xFFFFFFFFULL), sum,
                         (key & 1) != 0});
  }

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
  if (!(similarity_threshold >= 0.0)) {  // also rejects NaN
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
  std::vector<AddressGraph> graphs;
  const size_t num_txs =
      std::min(snapshot.TxCountOf(address),
               static_cast<size_t>(options_.max_txs_per_address));
  const size_t slice_size = static_cast<size_t>(options_.slice_size);
  const int num_slices =
      static_cast<int>((num_txs + slice_size - 1) / slice_size);
  const int stop = std::min(num_slices, end_slice);
  if (start_slice >= stop) return graphs;
  graphs.reserve(static_cast<size_t>(stop - start_slice));

  thread_local ExtractScratch scratch;
  const size_t first = static_cast<size_t>(start_slice) * slice_size;
  snapshot.CopyTransactionsOf(
      address, first,
      std::min(num_txs, static_cast<size_t>(stop) * slice_size),
      &scratch.txs);

  for (int s = start_slice; s < stop; ++s) {
    const size_t begin = static_cast<size_t>(s) * slice_size - first;
    const size_t end = std::min(scratch.txs.size(), begin + slice_size);

    AddressGraph g;
    g.target = address;
    g.slice_index = s;

    // One edge per input and output; at most one address node each.
    size_t endpoints = 0;
    for (size_t t = begin; t < end; ++t) {
      const chain::Transaction& tx = snapshot.tx(scratch.txs[t]);
      endpoints += tx.inputs.size() + tx.outputs.size();
    }
    g.edges.reserve(endpoints);
    scratch.table.Reset(endpoints + 1);
    std::vector<ExtractScratch::Node>& nodes = scratch.nodes;
    nodes.clear();
    auto address_node = [&](chain::AddressId a) {
      int& slot = scratch.table.Slot(a);
      if (slot < 0) {
        slot = static_cast<int>(nodes.size());
        nodes.push_back({NodeKind::kAddress, a, 0});
      }
      return slot;
    };

    // The target address is always node 0 of its graph.
    g.target_node = address_node(address);

    for (size_t t = begin; t < end; ++t) {
      const chain::Transaction& tx = snapshot.tx(scratch.txs[t]);
      const int tx_idx = static_cast<int>(nodes.size());
      nodes.push_back({NodeKind::kTransaction, chain::kInvalidAddress,
                       tx.txid});
      for (const auto& in : tx.inputs) {
        g.edges.push_back({address_node(in.address), tx_idx, ToBtc(in.value),
                           /*is_input=*/true});
      }
      for (const auto& out : tx.outputs) {
        g.edges.push_back({tx_idx, address_node(out.address),
                           ToBtc(out.value), /*is_input=*/false});
      }
    }

    {
      BA_TRACE_SPAN("core.sfe");
      // Values incident to each node within this slice, in edge order:
      // the input of the node's SFE features.
      FillBuckets(
          nodes.size(),
          [&](auto&& emit) {
            for (const auto& e : g.edges) {
              emit(e.from, e.value);
              emit(e.to, e.value);
            }
          },
          &scratch.values);
      g.nodes.resize(nodes.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        GraphNode& node = g.nodes[i];
        node.kind = nodes[i].kind;
        node.address = nodes[i].address;
        node.txid = nodes[i].txid;
        node.features = MakeNodeFeatures(node.kind, scratch.values[i]);
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
  const std::vector<GraphNode>& nodes = graph->nodes;
  // The one transaction incident to each address node: -1 for none,
  // kMany once a second distinct one shows up. Plus whether the
  // address funds a transaction (its side).
  constexpr int kMany = -2;
  thread_local std::vector<int> only_tx;
  thread_local std::vector<char> is_input_side;
  only_tx.assign(static_cast<size_t>(n), -1);
  is_input_side.assign(static_cast<size_t>(n), 0);
  auto note = [&](int addr, int tx) {
    int& t = only_tx[static_cast<size_t>(addr)];
    if (t == -1) {
      t = tx;
    } else if (t != tx) {
      t = kMany;
    }
  };
  for (const auto& e : graph->edges) {
    if (nodes[static_cast<size_t>(e.from)].kind == NodeKind::kAddress) {
      note(e.from, e.to);
      if (e.is_input) is_input_side[static_cast<size_t>(e.from)] = 1;
    }
    if (nodes[static_cast<size_t>(e.to)].kind == NodeKind::kAddress) {
      note(e.to, e.from);
    }
  }

  // Group single-transaction addresses by (transaction, side), keyed
  // tx_node * 2 + (is_input ? 1 : 0), each key mapped to a slot. Group
  // numbers, and so hyper-node order, follow this map's iteration
  // order, which depends on its insertion history: it must be freshly
  // constructed and filled in ascending node order (a reused or
  // reserved map iterates differently and changes the graph).
  std::unordered_map<int64_t, int> side_groups;
  thread_local std::vector<int> slot_of;
  thread_local std::vector<int> slot_size;
  slot_of.assign(static_cast<size_t>(n), -1);
  slot_size.clear();
  for (int i = 0; i < n; ++i) {
    if (nodes[static_cast<size_t>(i)].kind != NodeKind::kAddress) continue;
    if (i == graph->target_node) continue;  // never merge the target
    const int tx = only_tx[static_cast<size_t>(i)];
    if (tx < 0) continue;  // not exactly one transaction
    const int64_t key = static_cast<int64_t>(tx) * 2 +
                        (is_input_side[static_cast<size_t>(i)] ? 1 : 0);
    const auto [it, inserted] =
        side_groups.try_emplace(key, static_cast<int>(slot_size.size()));
    if (inserted) slot_size.push_back(0);
    ++slot_size[static_cast<size_t>(it->second)];
    slot_of[static_cast<size_t>(i)] = it->second;
  }

  thread_local std::vector<int> slot_group;
  slot_group.assign(slot_size.size(), -1);
  int num_groups = 0;
  for (const auto& [key, slot] : side_groups) {
    if (slot_size[static_cast<size_t>(slot)] < 2) continue;  // nothing to compress
    slot_group[static_cast<size_t>(slot)] = num_groups++;
  }
  thread_local std::vector<int> group_of;
  group_of.assign(static_cast<size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    const int slot = slot_of[static_cast<size_t>(i)];
    if (slot >= 0) {
      group_of[static_cast<size_t>(i)] = slot_group[static_cast<size_t>(slot)];
    }
  }
  ApplyMerges(graph, group_of, num_groups, NodeKind::kSingleHyper);
}

void GraphConstructor::CompressMultiTransactionAddresses(
    AddressGraph* graph) const {
  const int n = graph->num_nodes();
  const std::vector<GraphNode>& nodes = graph->nodes;
  // Each transaction node gets a column of A in first-appearance
  // order; each node collects the columns of its incident transactions.
  thread_local std::vector<int> tx_col;
  tx_col.assign(static_cast<size_t>(n), -1);
  int num_cols = 0;
  struct Incidence {
    int node;
    int col;
  };
  thread_local std::vector<Incidence> incidence;
  incidence.clear();
  for (const auto& e : graph->edges) {
    int addr_side = -1;
    int tx_side = -1;
    if (nodes[static_cast<size_t>(e.from)].kind == NodeKind::kTransaction) {
      tx_side = e.from;
      addr_side = e.to;
    } else {
      addr_side = e.from;
      tx_side = e.to;
    }
    if (nodes[static_cast<size_t>(tx_side)].kind != NodeKind::kTransaction) {
      continue;  // hyper-hyper artifacts cannot occur, but stay safe
    }
    int& col = tx_col[static_cast<size_t>(tx_side)];
    if (col < 0) col = num_cols++;
    incidence.push_back({addr_side, col});
  }
  // Per node, its distinct transaction columns as a sorted unique list.
  thread_local Buckets<int> txs_of;
  FillBuckets(
      static_cast<size_t>(n),
      [&](auto&& emit) {
        for (const Incidence& inc : incidence) emit(inc.node, inc.col);
      },
      &txs_of);
  // Sort and dedupe each list, compacting the CSR leftwards in place.
  int32_t write = 0;
  int32_t begin = 0;
  for (int i = 0; i < n; ++i) {
    const int32_t end = txs_of.offsets[static_cast<size_t>(i) + 1];
    int* first = txs_of.values.data() + begin;
    int* last = txs_of.values.data() + end;
    std::sort(first, last);
    last = std::unique(first, last);
    txs_of.offsets[static_cast<size_t>(i)] = write;
    for (const int* v = first; v != last; ++v) {
      txs_of.values[static_cast<size_t>(write++)] = *v;
    }
    begin = end;
  }
  txs_of.offsets[static_cast<size_t>(n)] = write;

  // Multi-transaction candidates: plain address nodes (not the target)
  // incident to >= 2 distinct transactions.
  std::vector<int> candidates;
  for (int i = 0; i < n; ++i) {
    const auto& node = nodes[static_cast<size_t>(i)];
    if (node.kind != NodeKind::kAddress || i == graph->target_node) continue;
    if (txs_of[static_cast<size_t>(i)].size() >= 2) candidates.push_back(i);
  }
  if (candidates.size() < 2) return;

  // S = A·Aᵀ (Eq. 3) over the 0/1 candidate-transaction incidence A:
  // s_ij is the exact count |txs(i) ∩ txs(j)| and s_jj = |txs(j)|. Each
  // column's candidate rows are bucketed in ascending row order; row i
  // counts its overlaps through its own columns' buckets.
  const int64_t rows = static_cast<int64_t>(candidates.size());
  thread_local Buckets<int> rows_of;
  FillBuckets(
      static_cast<size_t>(num_cols),
      [&](auto&& emit) {
        for (int64_t r = 0; r < rows; ++r) {
          for (int col : txs_of[static_cast<size_t>(
                   candidates[static_cast<size_t>(r)])]) {
            emit(col, static_cast<int>(r));
          }
        }
      },
      &rows_of);
  thread_local std::vector<float> degree;  // s_jj
  degree.resize(static_cast<size_t>(rows));
  for (int64_t j = 0; j < rows; ++j) {
    degree[static_cast<size_t>(j)] = static_cast<float>(
        txs_of[static_cast<size_t>(candidates[static_cast<size_t>(j)])]
            .size());
  }
  thread_local std::vector<int> overlap;
  overlap.assign(static_cast<size_t>(rows), 0);
  const float psi = static_cast<float>(options_.similarity_threshold);
  std::vector<std::vector<int>> similar(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    for (int col :
         txs_of[static_cast<size_t>(candidates[static_cast<size_t>(i)])]) {
      for (int j : rows_of[static_cast<size_t>(col)]) {
        ++overlap[static_cast<size_t>(j)];
      }
    }
    // M = S·D⁻¹ (Eq. 4) and Q = ReLU(M − Ψ·I) (Eq. 5) in float, as the
    // dense matrices evaluate them; j joins i's similar set when
    // q_ij > 0. The ascending scan also clears the counts for row i + 1.
    for (int64_t j = 0; j < rows; ++j) {
      const int count = std::exchange(overlap[static_cast<size_t>(j)], 0);
      if (j == i) continue;
      const float m =
          static_cast<float>(count) / degree[static_cast<size_t>(j)];
      if (std::max(0.0f, m - psi) > 0.0f) {
        similar[static_cast<size_t>(i)].push_back(static_cast<int>(j));
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

  thread_local std::vector<int> group_of;
  group_of.assign(static_cast<size_t>(n), -1);
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
  thread_local graph::AdjacencyList adj;
  adj.Assign(graph->num_nodes(), graph->edges);
  const graph::PathCentrality paths = graph::ShortestPathCentrality(adj);
  const std::vector<double>& closeness = paths.closeness;
  const std::vector<double>& betweenness = paths.betweenness;
  const std::vector<double> pagerank = graph::PageRank(adj);
  const double n = static_cast<double>(graph->num_nodes());
  const int base = kCentralityFeatureOffset;
  for (int i = 0; i < graph->num_nodes(); ++i) {
    NodeFeatures& f = graph->nodes[static_cast<size_t>(i)].features;
    // Degree centrality (Eq. 8) straight from the CSR.
    f[static_cast<size_t>(base + 0)] =
        std::log1p(static_cast<double>(adj.Degree(i)));
    f[static_cast<size_t>(base + 1)] = closeness[static_cast<size_t>(i)];
    f[static_cast<size_t>(base + 2)] =
        std::log1p(betweenness[static_cast<size_t>(i)]);
    // PageRank rescaled to mean 1 before compression.
    f[static_cast<size_t>(base + 3)] =
        std::log1p(n * pagerank[static_cast<size_t>(i)]);
  }
}

}  // namespace ba::core
