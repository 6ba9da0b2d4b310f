// Exchange monitor: a look inside the address-graph construction
// pipeline (§III-A) on one busy exchange hot wallet.
//
// Shows, per chronological slice: the raw graph size, what each
// compression stage removed, the centrality profile of the hot wallet's
// node, and the slice's GFN embedding trajectory — the same sequence
// the LSTM stage consumes.
//
// Run:  ./build/examples/exchange_monitor [--blocks 350] [--seed 5]

#include <iostream>

#include "core/gfn_features.h"
#include "core/graph_builder.h"
#include "core/graph_model.h"
#include "core/graph_dataset.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  ba::datagen::ScenarioConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 5));
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 350));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());

  // Pick the busiest Exchange-labeled address (a hot wallet).
  const auto labeled = simulator.CollectLabeledAddresses(3);
  ba::chain::AddressId hot = ba::chain::kInvalidAddress;
  size_t best_txs = 0;
  for (const auto& a : labeled) {
    if (a.label != ba::datagen::BehaviorLabel::kExchange) continue;
    const size_t n = simulator.ledger().TransactionsOf(a.address).size();
    if (n > best_txs) {
      best_txs = n;
      hot = a.address;
    }
  }
  BA_CHECK(hot != ba::chain::kInvalidAddress);
  std::cout << "monitoring hot wallet " << ba::chain::FormatAddress(hot)
            << " (" << best_txs << " transactions, balance "
            << ba::TablePrinter::Num(
                   static_cast<double>(simulator.ledger().BalanceOf(hot)) /
                       ba::chain::kCoin,
                   3)
            << " BTC)\n";

  // Stage-by-stage construction with a small slice so several slices
  // show up.
  ba::core::GraphConstructorOptions copts;
  copts.slice_size = 25;
  ba::core::GraphConstructor constructor(copts);

  ba::core::GraphConstructorOptions raw_opts = copts;
  raw_opts.enable_single_compression = false;
  raw_opts.enable_multi_compression = false;
  raw_opts.enable_augmentation = false;
  ba::core::GraphConstructor raw_constructor(raw_opts);

  const auto raw = raw_constructor.BuildGraphs(simulator.ledger(), hot);
  const auto compressed = constructor.BuildGraphs(simulator.ledger(), hot);
  BA_CHECK_EQ(raw.size(), compressed.size());

  ba::TablePrinter table({"Slice", "Raw nodes", "Compressed", "Single-hyper",
                          "Multi-hyper", "Target degree", "Target PageRank"});
  for (size_t s = 0; s < compressed.size(); ++s) {
    const auto& g = compressed[s];
    const auto& target_features =
        g.nodes[static_cast<size_t>(g.target_node)].features;
    table.AddRow(
        {std::to_string(s), std::to_string(raw[s].num_nodes()),
         std::to_string(g.num_nodes()),
         std::to_string(g.CountKind(ba::core::NodeKind::kSingleHyper)),
         std::to_string(g.CountKind(ba::core::NodeKind::kMultiHyper)),
         ba::TablePrinter::Num(
             target_features[ba::core::kCentralityFeatureOffset], 2),
         ba::TablePrinter::Num(
             target_features[ba::core::kCentralityFeatureOffset + 3], 2)});
  }
  table.Print(std::cout,
              "Per-slice construction report (degree/PageRank are the "
              "log-compressed Stage-4 features)");

  // Embedding trajectory under a freshly trained GFN.
  ba::core::GraphDatasetOptions dopts;
  dopts.construction = copts;
  const ba::chain::LedgerSnapshot snapshot = simulator.ledger().Snapshot();
  ba::Rng rng(config.seed);
  auto sample_set = ba::datagen::StratifiedSample(labeled, 300, &rng);
  const auto train = ba::core::BuildAddressSamples(snapshot, sample_set, dopts);
  ba::core::GraphModelOptions mopts;
  mopts.epochs = 15;
  ba::core::GraphModel gfn(mopts);
  gfn.Train(train);

  const auto own = ba::core::BuildAddressSamples(
      snapshot, {{hot, ba::datagen::BehaviorLabel::kExchange}}, dopts);
  BA_CHECK(!own.empty());
  std::cout << "\nGFN embedding trajectory (first 6 dims per slice):\n";
  for (const auto& gt : own[0].tensors) {
    const auto embed = gfn.Embed(gt);
    std::cout << "  [";
    for (int64_t j = 0; j < 6 && j < embed.dim(1); ++j) {
      if (j) std::cout << ", ";
      std::cout << ba::TablePrinter::Num(embed.at(0, j), 2);
    }
    std::cout << ", ...]  predicted="
              << ba::datagen::BehaviorName(static_cast<ba::datagen::BehaviorLabel>(
                     gfn.PredictGraph(gt)))
              << "\n";
  }
  return 0;
}
