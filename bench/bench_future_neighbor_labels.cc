// Future-work experiment #2 (paper §V): using neighbor label
// information.
//
// "Our model only utilizes the topology ... which does not take account
//  into the label information of other nodes. In real-world scenarios,
//  nodes of the same type often cluster together. The accuracy of the
//  classification model can usually be improved by analyzing the types
//  of connected nodes."
//
// Implementation: each address's embedding sequence is augmented with a
// neighbor-label histogram — the distribution of KNOWN (training-set)
// labels among its ledger counterparties — and the LSTM+MLP classifier
// is retrained. Test counterparty labels are looked up only from the
// TRAIN set (transductive but leakage-free). Expected: a measurable F1
// gain, concentrated in the Service/Exchange confusion.

#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "bench/bench_common.h"
#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/graph_model.h"

namespace {

/// Histogram (fractions) of known labels among `address`'s distinct
/// ledger counterparties.
std::vector<float> NeighborLabelHistogram(
    const ba::chain::Ledger& ledger, ba::chain::AddressId address,
    const std::unordered_map<ba::chain::AddressId, int>& known) {
  std::vector<float> hist(ba::datagen::kNumBehaviors + 1, 0.0f);
  std::unordered_set<ba::chain::AddressId> seen;
  for (ba::chain::TxId txid : ledger.TransactionsOf(address)) {
    const auto& tx = ledger.tx(txid);
    auto touch = [&](ba::chain::AddressId other) {
      if (other == address || !seen.insert(other).second) return;
      auto it = known.find(other);
      if (it == known.end()) {
        hist.back() += 1.0f;  // unknown bucket
      } else {
        hist[static_cast<size_t>(it->second)] += 1.0f;
      }
    };
    for (const auto& in : tx.inputs) touch(in.address);
    for (const auto& out : tx.outputs) touch(out.address);
  }
  float total = 0.0f;
  for (float v : hist) total += v;
  if (total > 0.0f) {
    for (float& v : hist) v /= total;
  }
  return hist;
}

/// Appends `extra` columns to every row of each sequence.
void AugmentSequences(
    const ba::chain::Ledger& ledger,
    const std::vector<ba::core::AddressSample>& samples,
    const std::unordered_map<ba::chain::AddressId, int>& known,
    std::vector<ba::core::EmbeddingSequence>* sequences) {
  for (size_t i = 0; i < sequences->size(); ++i) {
    const auto hist =
        NeighborLabelHistogram(ledger, samples[i].address, known);
    auto& seq = (*sequences)[i].embeddings;
    const int64_t rows = seq.dim(0);
    const int64_t old_cols = seq.dim(1);
    const int64_t extra = static_cast<int64_t>(hist.size());
    ba::tensor::Tensor wider({rows, old_cols + extra});
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < old_cols; ++c) wider.at(r, c) = seq.at(r, c);
      for (int64_t c = 0; c < extra; ++c) {
        wider.at(r, old_cols + c) = hist[static_cast<size_t>(c)];
      }
    }
    seq = std::move(wider);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int trials = static_cast<int>(flags.GetInt("trials", 3));

  ba::metrics::ConfusionMatrix cm_base(ba::datagen::kNumBehaviors);
  ba::metrics::ConfusionMatrix cm_aug(ba::datagen::kNumBehaviors);

  for (int trial = 0; trial < trials; ++trial) {
    std::cout << "--- trial " << trial + 1 << "/" << trials << " ---\n";
    auto exp = ba::bench::BuildExperiment(flags, threads, /*verbose=*/trial == 0,
                                          /*seed_offset=*/100u * trial);
    const auto& ledger = exp.simulator->ledger();

    ba::core::GraphModelOptions gopts;
    gopts.epochs = static_cast<int>(flags.GetInt("gfn_epochs", 25));
    gopts.seed = seed + static_cast<uint64_t>(trial);
    ba::core::GraphModel gfn(gopts);
    gfn.Train(exp.train);

    auto train_seq = ba::core::BuildEmbeddingSequences(gfn, exp.train);
    auto test_seq = ba::core::BuildEmbeddingSequences(gfn, exp.test);
    const auto scaler = ba::core::EmbeddingScaler::Fit(train_seq);
    scaler.Apply(&train_seq);
    scaler.Apply(&test_seq);

    // Known labels = training addresses only (no test leakage).
    std::unordered_map<ba::chain::AddressId, int> known;
    for (const auto& s : exp.train) known[s.address] = s.label;

    auto run = [&](bool augmented) {
      auto tr = train_seq;
      auto te = test_seq;
      int64_t dim = gfn.embed_dim();
      if (augmented) {
        AugmentSequences(ledger, exp.train, known, &tr);
        AugmentSequences(ledger, exp.test, known, &te);
        dim += ba::datagen::kNumBehaviors + 1;
      }
      ba::core::AggregatorOptions opts;
      opts.embed_dim = dim;
      opts.epochs = static_cast<int>(flags.GetInt("clf_epochs", 120));
      opts.seed = seed + static_cast<uint64_t>(trial) + 1;
      ba::core::AggregatorModel agg(opts);
      agg.Train(tr);
      return agg.Evaluate(te);
    };

    const auto base = run(false);
    const auto aug = run(true);
    cm_base.Merge(base);
    cm_aug.Merge(aug);
    std::cout << "[trial] baseline F1 "
              << ba::TablePrinter::Num(base.WeightedAverage().f1)
              << " -> with neighbor labels "
              << ba::TablePrinter::Num(aug.WeightedAverage().f1) << "\n";
  }

  ba::TablePrinter table(
      {"Variant", "Type", "Precision", "Recall", "F1-score"});
  ba::bench::AddPerClassRows(&table, "LSTM+MLP (baseline)", cm_base);
  ba::bench::AddPerClassRows(&table, "LSTM+MLP + neighbor labels", cm_aug);
  table.Print(std::cout,
              "Future-work: neighbor-label augmentation (paper §V \"nodes "
              "of the same type often cluster together\"), pooled over " +
                  std::to_string(trials) + " economies");
  return 0;
}
