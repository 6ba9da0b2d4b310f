// Reproduces Fig 6: learning-efficiency comparison of the six address
// classification models (LSTM+MLP vs BiLSTM / Attention / SUM / AVG /
// MAX + MLP) over epochs and wall-clock.
//
// Paper's shape: LSTM+MLP is consistently best across epochs and time.

#include <iostream>

#include "bench/bench_common.h"
#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/graph_model.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  auto exp = ba::bench::BuildExperiment(flags, ba::bench::ThreadsFlag(flags));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 60));

  // Shared frozen GFN encoder.
  ba::core::GraphModelOptions gopts;
  gopts.epochs = static_cast<int>(flags.GetInt("gfn_epochs", 25));
  gopts.seed = seed;
  gopts.k_hops = static_cast<int>(flags.GetInt("khops", 2));
  ba::core::GraphModel gfn(gopts);
  gfn.Train(exp.train);
  auto train_seq = ba::core::BuildEmbeddingSequences(gfn, exp.train);
  auto test_seq = ba::core::BuildEmbeddingSequences(gfn, exp.test);
  const auto scaler = ba::core::EmbeddingScaler::Fit(train_seq);
  scaler.Apply(&train_seq);
  scaler.Apply(&test_seq);

  struct Curve {
    std::string name;
    std::vector<ba::core::EpochStat> history;
  };
  std::vector<Curve> curves;
  for (ba::core::AggregatorKind kind : ba::core::AllAggregators()) {
    ba::core::AggregatorOptions opts;
    opts.kind = kind;
    opts.embed_dim = gfn.embed_dim();
    opts.epochs = epochs;
    opts.seed = seed + 1;
    ba::core::AggregatorModel agg(opts);
    Curve curve{ba::core::AggregatorName(kind), {}};
    agg.Train(train_seq, &test_seq, &curve.history);
    std::cout << "[train] " << curve.name << " done ("
              << ba::TablePrinter::Num(curve.history.back().seconds, 2)
              << "s)\n";
    curves.push_back(std::move(curve));
  }

  std::vector<std::string> header{"Epoch"};
  for (const auto& c : curves) header.push_back(c.name + " F1");
  ba::TablePrinter by_epoch(header);
  for (int e = 0; e < epochs; ++e) {
    std::vector<std::string> row{std::to_string(e + 1)};
    for (const auto& c : curves) {
      row.push_back(ba::TablePrinter::Num(
          c.history[static_cast<size_t>(e)].eval_f1));
    }
    by_epoch.AddRow(row);
  }
  by_epoch.Print(std::cout,
                 "Fig 6 (left) — test weighted F1 vs epoch (paper shape: "
                 "LSTM+MLP consistently on top)");

  ba::TablePrinter by_time({"Model", "Epoch", "Cumulative seconds", "Test F1"});
  for (const auto& c : curves) {
    for (const auto& stat : c.history) {
      by_time.AddRow({c.name, std::to_string(stat.epoch),
                      ba::TablePrinter::Num(stat.seconds, 3),
                      ba::TablePrinter::Num(stat.eval_f1)});
    }
    by_time.AddSeparator();
  }
  by_time.Print(std::cout,
                "Fig 6 (right) — test weighted F1 vs cumulative training "
                "time");
  return 0;
}
