#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "chain/types.h"
#include "core/sfe.h"

/// \file address_graph.h
/// \brief The heterogeneous address-transaction graph of §III-A: the
/// unit that flows through compression, augmentation and the GNN.

namespace ba::core {

/// \brief Kind of a node in an address graph.
enum class NodeKind : int {
  kAddress = 0,      ///< plain address node v^addr
  kTransaction = 1,  ///< transaction node v^tx
  kSingleHyper = 2,  ///< single-transaction hyper node (Fig 3)
  kMultiHyper = 3,   ///< multi-transaction hyper node (Fig 4)
};

inline constexpr int kNumNodeKinds = 4;

/// Structural-augmentation features appended in Stage 4 (Eq. 8-11).
inline constexpr int kNumCentralityFeatures = 4;

/// One extra flag marking the target address's own node, so graph-level
/// readouts know which address the graph describes.
inline constexpr int kTargetFlagDim = 1;

/// Width of a node feature vector after augmentation:
/// kind one-hot + target flag + SFE statistics + 4 centralities.
inline constexpr int kNodeFeatureDim =
    kNumNodeKinds + kTargetFlagDim + kSfeDim + kNumCentralityFeatures;

/// Feature index of the target flag.
inline constexpr int kTargetFlagIndex = kNumNodeKinds;

/// Feature index of the first SFE statistic.
inline constexpr int kSfeFeatureOffset = kNumNodeKinds + kTargetFlagDim;

/// Feature index of the first centrality slot.
inline constexpr int kCentralityFeatureOffset = kSfeFeatureOffset + kSfeDim;

/// A node's feature vector, stored inline in its node.
using NodeFeatures = std::array<double, kNodeFeatureDim>;

/// \brief One node of an address graph.
struct GraphNode {
  NodeKind kind = NodeKind::kAddress;
  /// Source address (plain address nodes), or kInvalidAddress for
  /// transaction and hyper nodes.
  chain::AddressId address = chain::kInvalidAddress;
  /// Source transaction (transaction nodes only).
  chain::TxId txid = 0;
  /// Number of original addresses this (hyper) node represents.
  int merged_count = 1;
  /// Feature vector: [kind one-hot | target flag | SFE | centralities].
  /// Centrality slots are zero until Stage 4 fills them.
  NodeFeatures features{};
};

/// \brief An edge between an address-side node and a transaction node.
/// Its `from`/`to` pair is what graph::AdjacencyList::Assign reads, so
/// the undirected adjacency of Stage 4 and tensor prep is built straight
/// from `AddressGraph::edges`.
struct GraphEdge {
  int from = 0;  ///< node index (address-side for inputs, tx for outputs)
  int to = 0;    ///< node index
  double value = 0.0;  ///< transferred amount in BTC
  bool is_input = false;  ///< address funds the transaction
};

/// \brief One chronological 100-transaction slice of an address's
/// history, as a heterogeneous graph.
struct AddressGraph {
  /// The address whose behavior this graph describes.
  chain::AddressId target = chain::kInvalidAddress;
  /// Index of the target's own node in `nodes`.
  int target_node = 0;
  std::vector<GraphNode> nodes;
  std::vector<GraphEdge> edges;
  /// Chronological slice index within the address (0-based).
  int slice_index = 0;

  int num_nodes() const { return static_cast<int>(nodes.size()); }
  int num_edges() const { return static_cast<int>(edges.size()); }

  /// Count of nodes of a given kind.
  int CountKind(NodeKind kind) const {
    int c = 0;
    for (const auto& n : nodes) c += (n.kind == kind) ? 1 : 0;
    return c;
  }
};

/// Initializes a node feature vector: kind one-hot + compressed SFE of
/// `values`, with zeroed target-flag and centrality slots (filled by
/// the construction pipeline).
inline NodeFeatures MakeNodeFeatures(NodeKind kind,
                                     std::span<const double> values) {
  NodeFeatures f{};
  f[static_cast<size_t>(kind)] = 1.0;
  const auto sfe = ComputeCompressedSfe(values);
  for (int i = 0; i < kSfeDim; ++i) {
    f[static_cast<size_t>(kSfeFeatureOffset + i)] =
        sfe[static_cast<size_t>(i)];
  }
  return f;
}

}  // namespace ba::core
