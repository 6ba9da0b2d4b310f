#pragma once

// Serial reference for the serving tests: re-runs the whole inference
// path (graph construction, GFN embed, scaler, aggregator) for one
// address at a pinned epoch, with no cache, batching or concurrency.
// Every batched, cached, async or degraded answer the engine gives
// must agree with it at the tx count the answer reports.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "chain/ledger.h"
#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/gfn_features.h"
#include "core/graph_builder.h"

namespace ba::testutil {

/// The class `classifier` predicts for `address` at the epoch where it
/// had exactly `tx_count` (capped) transactions in `ledger`.
inline int PredictAtEpoch(const core::BaClassifier& classifier,
                          const chain::Ledger& ledger,
                          chain::AddressId address, uint64_t tx_count) {
  if (tx_count == 0) return 0;
  const std::vector<chain::TxId> full = ledger.TransactionsOf(address);
  EXPECT_LE(tx_count, full.size());
  const chain::LedgerSnapshot snap =
      ledger.SnapshotAt(full[static_cast<size_t>(tx_count) - 1] + 1);
  core::GraphConstructor ctor(classifier.options().dataset.construction);
  const std::vector<core::AddressGraph> graphs =
      ctor.BuildGraphs(snap, address);
  if (graphs.empty()) return 0;
  const core::GraphModel& model = classifier.graph_model();
  const int64_t embed_dim = model.embed_dim();
  std::vector<core::EmbeddingSequence> seqs(1);
  seqs[0].embeddings =
      tensor::Tensor({static_cast<int64_t>(graphs.size()), embed_dim});
  for (size_t g = 0; g < graphs.size(); ++g) {
    const core::GraphTensors gt = core::PrepareGraphTensors(
        graphs[g], classifier.options().dataset.k_hops);
    const tensor::Tensor e = model.Embed(gt);
    for (int64_t j = 0; j < embed_dim; ++j) {
      seqs[0].embeddings.at(static_cast<int64_t>(g), j) = e.at(0, j);
    }
  }
  classifier.scaler().Apply(&seqs);
  return classifier.aggregator().Predict(seqs[0].embeddings);
}

}  // namespace ba::testutil
