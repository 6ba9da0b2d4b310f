#include "core/gfn_features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/centrality.h"
#include "util/logging.h"

namespace ba::core {

GraphTensors PrepareGraphTensors(const AddressGraph& graph, int k_hops) {
  BA_CHECK_GE(k_hops, 0);
  const int64_t n = graph.num_nodes();
  BA_CHECK_GT(n, 0);
  constexpr int64_t kDim = kNodeFeatureDim;

  GraphTensors out;
  out.base_features = tensor::Tensor({n, kDim});
  float* x = out.base_features.data();
  for (int64_t i = 0; i < n; ++i) {
    const NodeFeatures& f = graph.nodes[static_cast<size_t>(i)].features;
    for (int64_t j = 0; j < kDim; ++j) {
      x[i * kDim + j] = static_cast<float>(f[static_cast<size_t>(j)]);
    }
  }

  thread_local graph::AdjacencyList adj;
  adj.Assign(n, graph.edges);
  out.norm_adj = std::make_shared<const graph::SparseMatrix>(
      graph::NormalizedAdjacency(adj));

  // X^G = [d | X | ÃX | … | ÃᵏX].
  const int64_t aug_dim = AugmentedDim(k_hops);
  out.augmented = tensor::Tensor({n, aug_dim});
  float* aug = out.augmented.data();
  for (int64_t i = 0; i < n; ++i) {
    aug[i * aug_dim] =
        static_cast<float>(std::log1p(static_cast<double>(adj.Degree(i))));
  }
  // Ãʰ⁻¹X -> ÃʰX ping-pongs between two per-thread buffers.
  thread_local std::vector<float> current;
  thread_local std::vector<float> next;
  const float* propagated = x;  // Ã⁰X
  int64_t col = 1;
  for (int hop = 0; hop <= k_hops; ++hop) {
    if (hop > 0) {
      next.resize(static_cast<size_t>(n * kDim));
      out.norm_adj->MultiplyDense(propagated, kDim, next.data());
      current.swap(next);
      propagated = current.data();
    }
    for (int64_t i = 0; i < n; ++i) {
      std::copy(propagated + i * kDim, propagated + (i + 1) * kDim,
                aug + i * aug_dim + col);
    }
    col += kDim;
  }
  BA_CHECK_EQ(col, aug_dim);
  return out;
}

}  // namespace ba::core
