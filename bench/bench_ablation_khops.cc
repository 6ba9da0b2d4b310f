// Ablation A3: GFN propagation depth k of the feature augmentation
// X^G = [d, X, ÃX, …, ÃᵏX] (Eq. 13). Sweeps k and reports graph-level
// F1, augmented feature width and training cost — quantifying how much
// multi-hop structure the precomputed propagation contributes.

#include <iostream>

#include "bench/bench_common.h"
#include "core/graph_model.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const auto config = ba::bench::ScenarioFromFlags(flags, ba::bench::ThreadsFlag(flags));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());
  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/3);
  ba::Rng rng(config.seed ^ 0xBEEF);
  labeled = ba::datagen::StratifiedSample(
      labeled, flags.GetInt("addresses", 500), &rng);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

  ba::TablePrinter table({"k (hops)", "Feature width", "Train s",
                          "Graph-level F1"});
  for (int k : {0, 1, 2, 3, 4}) {
    ba::core::GraphDatasetOptions dopts;
    dopts.k_hops = k;
    const ba::chain::LedgerSnapshot snapshot = simulator.ledger().Snapshot();
    const auto train =
        ba::core::BuildAddressSamples(snapshot, split.train, dopts);
    const auto test =
        ba::core::BuildAddressSamples(snapshot, split.test, dopts);

    ba::core::GraphModelOptions opts;
    opts.k_hops = k;
    opts.epochs = static_cast<int>(flags.GetInt("epochs", 25));
    opts.seed = config.seed;
    ba::core::GraphModel model(opts);
    ba::Stopwatch watch;
    watch.Start();
    model.Train(train);
    watch.Stop();
    const auto cm = model.EvaluateGraphLevel(test);
    table.AddRow({std::to_string(k),
                  std::to_string(ba::core::AugmentedDim(k)),
                  ba::TablePrinter::Num(watch.ElapsedSeconds(), 1),
                  ba::TablePrinter::Num(cm.WeightedAverage().f1)});
    std::cout << "[done] k=" << k << "\n";
  }
  table.Print(std::cout,
              "Ablation A3 — GFN propagation depth k (expected: k>=1 "
              "beats k=0; diminishing or negative returns at large k)");
  return 0;
}
