// Reproduces Table V: runtime overhead of the four graph-construction
// stages (single-core CPU time, averaged per address).
//
// Paper: Stage 1 (extraction) 0.19s / 4.38%, Stage 2 (single-tx
// compression) 0.63s / 14.52%, Stage 3 (multi-tx compression) 2.71s /
// 62.44%, Stage 4 (augmentation) 0.81s / 18.66%; total 4.34s. Absolute
// times scale with address history size; the shape to reproduce is
// Stage 3 dominating.

#include <iostream>

#include "bench/bench_common.h"
#include "core/graph_builder.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  auto config = ba::bench::ScenarioFromFlags(flags, ba::bench::ThreadsFlag(flags));
  // Table V measures the cost profile in the paper's regime: mining
  // pools paying out to hundreds of addresses per transaction, which is
  // what makes Stage 3's pairwise similarity dominate: most candidate
  // pairs share transactions.
  config.miners_per_pool = static_cast<int>(flags.GetInt("miners", 250));
  config.pool_payout_interval_blocks = 10;
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());

  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/3);
  ba::Rng rng(config.seed);
  labeled = ba::datagen::StratifiedSample(
      labeled, flags.GetInt("addresses", 400), &rng);

  ba::core::GraphConstructorOptions opts;
  opts.slice_size = static_cast<int>(flags.GetInt("slice", 100));
  opts.similarity_threshold = flags.GetDouble("psi", 0.5);
  ba::core::GraphConstructor constructor(opts);

  int64_t total_graphs = 0;
  for (const auto& a : labeled) {
    total_graphs += static_cast<int64_t>(
        constructor.BuildGraphs(simulator.ledger(), a.address).size());
  }

  const ba::core::StageTimings& t = constructor.timings();
  const double n = static_cast<double>(labeled.size());
  const double total = t.TotalSeconds();
  const double stages[4] = {t.extract_seconds, t.single_compress_seconds,
                            t.multi_compress_seconds, t.augment_seconds};
  const char* stage_names[4] = {
      "Stage 1 (original graph extraction)",
      "Stage 2 (single-tx compression)",
      "Stage 3 (multi-tx compression)",
      "Stage 4 (structure augmentation)"};
  const double paper_seconds[4] = {0.19, 0.63, 2.71, 0.81};
  const double paper_ratio[4] = {4.38, 14.52, 62.44, 18.66};

  ba::TablePrinter table({"Metrics", "CPU time / address", "Ratio (ours)",
                          "Paper time", "Paper ratio"});
  for (int s = 0; s < 4; ++s) {
    table.AddRow({stage_names[s],
                  ba::TablePrinter::Num(stages[s] / n * 1e3, 3) + " ms",
                  ba::TablePrinter::Num(stages[s] / total * 100.0, 2) + "%",
                  ba::TablePrinter::Num(paper_seconds[s], 2) + " s",
                  ba::TablePrinter::Num(paper_ratio[s], 2) + "%"});
  }
  table.AddSeparator();
  table.AddRow({"Total", ba::TablePrinter::Num(total / n * 1e3, 3) + " ms",
                "100%", "4.34 s", "100%"});
  table.Print(std::cout,
              "Table V — per-stage graph construction cost over " +
                  std::to_string(labeled.size()) + " addresses (" +
                  std::to_string(total_graphs) +
                  " graphs); paper shape: Stage 3 dominates");
  return 0;
}
