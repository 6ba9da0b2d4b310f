// Ablation A1: transaction slice size (the paper fixes 100 tx/graph,
// §III-A.1). Sweeps the slice size and reports end-to-end weighted F1,
// graph counts and construction cost — quantifying the unified-graph
// design choice DESIGN.md calls out.

#include <iostream>

#include "bench/bench_common.h"
#include "core/classifier.h"

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

  ba::TablePrinter table({"Slice size", "Train graphs", "Avg nodes/graph",
                          "Construction s", "Weighted F1"});
  for (int slice : {25, 50, 100, 200}) {
    ba::core::GraphDatasetOptions dopts;
    dopts.construction.slice_size = slice;
    const ba::chain::LedgerSnapshot snapshot = simulator.ledger().Snapshot();
    ba::core::StageTimings timings;
    const auto train =
        ba::core::BuildAddressSamples(snapshot, split.train, dopts, &timings);
    const auto test =
        ba::core::BuildAddressSamples(snapshot, split.test, dopts, &timings);

    int64_t graphs = 0, nodes = 0;
    for (const auto& s : train) {
      graphs += s.num_graphs();
      for (const auto& g : s.graphs) nodes += g.num_nodes();
    }

    ba::core::BaClassifier::Options opts;
    opts.dataset = dopts;
    opts.graph_model.epochs = static_cast<int>(flags.GetInt("gfn_epochs", 25));
    opts.aggregator.epochs = static_cast<int>(flags.GetInt("clf_epochs", 80));
    opts.graph_model.seed = config.seed;
    ba::core::BaClassifier clf(opts);
    BA_CHECK_OK(clf.TrainOnSamples(train));
    ba::metrics::ConfusionMatrix cm(opts.graph_model.num_classes);
    BA_CHECK_OK(clf.EvaluateSamples(test, &cm));

    table.AddRow({std::to_string(slice), std::to_string(graphs),
                  ba::TablePrinter::Num(
                      static_cast<double>(nodes) /
                          static_cast<double>(std::max<int64_t>(1, graphs)),
                      1),
                  ba::TablePrinter::Num(timings.TotalSeconds(), 2),
                  ba::TablePrinter::Num(cm.WeightedAverage().f1)});
    std::cout << "[done] slice=" << slice << "\n";
  }
  table.Print(std::cout,
              "Ablation A1 — transaction slice size (paper fixes 100)");
  return 0;
}
