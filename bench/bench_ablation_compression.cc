// Ablation A2: the compression stages and the similarity threshold Ψ
// (Eq. 5-6). Reports graph size reduction, construction cost and
// end-to-end F1 with compression disabled entirely and across Ψ values
// — quantifying the graph-node-compression contribution (§III-A.2).

#include <iostream>

#include "bench/bench_common.h"
#include "core/classifier.h"

namespace {

struct Variant {
  std::string name;
  bool single;
  bool multi;
  double psi;
};

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const auto config = ba::bench::ScenarioFromFlags(flags, ba::bench::ThreadsFlag(flags));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());
  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/3);
  ba::Rng rng(config.seed ^ 0xBEEF);
  labeled = ba::datagen::StratifiedSample(
      labeled, flags.GetInt("addresses", 400), &rng);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

  std::vector<Variant> variants = {
      {"no compression", false, false, 0.5},
      {"single only", true, false, 0.5},
      {"single+multi Psi=0.3", true, true, 0.3},
      {"single+multi Psi=0.5 (paper)", true, true, 0.5},
      {"single+multi Psi=0.7", true, true, 0.7},
      {"single+multi Psi=0.9", true, true, 0.9},
  };

  ba::TablePrinter table({"Variant", "Avg nodes/graph", "Compression",
                          "Construction s", "Weighted F1"});
  double baseline_nodes = 0.0;
  for (const auto& v : variants) {
    ba::core::GraphDatasetOptions dopts;
    dopts.construction.enable_single_compression = v.single;
    dopts.construction.enable_multi_compression = v.multi;
    dopts.construction.similarity_threshold = v.psi;
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
    const double avg_nodes =
        static_cast<double>(nodes) / static_cast<double>(std::max<int64_t>(1, graphs));
    if (baseline_nodes == 0.0) baseline_nodes = avg_nodes;

    ba::core::BaClassifier::Options opts;
    opts.dataset = dopts;
    opts.graph_model.epochs = static_cast<int>(flags.GetInt("gfn_epochs", 25));
    opts.aggregator.epochs = static_cast<int>(flags.GetInt("clf_epochs", 80));
    opts.graph_model.seed = config.seed;
    ba::core::BaClassifier clf(opts);
    BA_CHECK_OK(clf.TrainOnSamples(train));
    ba::metrics::ConfusionMatrix cm(opts.graph_model.num_classes);
    BA_CHECK_OK(clf.EvaluateSamples(test, &cm));

    table.AddRow({v.name, ba::TablePrinter::Num(avg_nodes, 1),
                  ba::TablePrinter::Num(avg_nodes / baseline_nodes * 100.0, 1) +
                      "% of raw",
                  ba::TablePrinter::Num(timings.TotalSeconds(), 2),
                  ba::TablePrinter::Num(cm.WeightedAverage().f1)});
    std::cout << "[done] " << v.name << "\n";
  }
  table.Print(std::cout,
              "Ablation A2 — graph node compression and similarity "
              "threshold Ψ (expected: large node reduction at equal or "
              "better F1; very high Ψ under-compresses)");
  return 0;
}
