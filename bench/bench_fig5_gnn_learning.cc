// Reproduces Fig 5: learning-efficiency comparison of the graph
// representation models (GFN vs GCN vs DiffPool).
//
// Left panel: test weighted F1 per training epoch. Right panel: test
// weighted F1 against cumulative training wall-clock. Paper's shape:
// GFN dominates at every epoch AND at every time budget — its
// structure-free MLP trains faster per epoch than message-passing GCN.

#include <algorithm>
#include <iostream>

#include "bench/bench_common.h"
#include "core/graph_model.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  auto exp = ba::bench::BuildExperiment(flags, ba::bench::ThreadsFlag(flags));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 24));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  struct Curve {
    std::string name;
    std::vector<ba::core::EpochStat> history;
  };
  std::vector<Curve> curves;
  for (auto kind : {ba::core::GraphEncoderKind::kGfn,
                    ba::core::GraphEncoderKind::kGcn,
                    ba::core::GraphEncoderKind::kDiffPool}) {
    ba::core::GraphModelOptions opts;
    opts.encoder = kind;
    opts.epochs = epochs;
    opts.k_hops = static_cast<int>(flags.GetInt("khops", 2));
    opts.seed = seed;
    ba::core::GraphModel model(opts);
    Curve curve{ba::core::GraphEncoderName(kind), {}};
    model.Train(exp.train, &exp.test, &curve.history);
    std::cout << "[train] " << curve.name << " done ("
              << ba::TablePrinter::Num(curve.history.back().seconds, 1)
              << "s training time)\n";
    curves.push_back(std::move(curve));
  }

  ba::TablePrinter by_epoch({"Epoch", "GFN F1", "GCN F1", "DiffPool F1"});
  for (int e = 0; e < epochs; ++e) {
    by_epoch.AddRow(
        {std::to_string(e + 1),
         ba::TablePrinter::Num(curves[0].history[static_cast<size_t>(e)].eval_f1),
         ba::TablePrinter::Num(curves[1].history[static_cast<size_t>(e)].eval_f1),
         ba::TablePrinter::Num(curves[2].history[static_cast<size_t>(e)].eval_f1)});
  }
  by_epoch.Print(std::cout,
                 "Fig 5 (left) — test weighted F1 vs training epoch "
                 "(paper shape: GFN above GCN above DiffPool throughout)");

  ba::TablePrinter by_time(
      {"Model", "Epoch", "Cumulative seconds", "Test F1"});
  for (const auto& c : curves) {
    for (const auto& stat : c.history) {
      by_time.AddRow({c.name, std::to_string(stat.epoch),
                      ba::TablePrinter::Num(stat.seconds, 2),
                      ba::TablePrinter::Num(stat.eval_f1)});
    }
    by_time.AddSeparator();
  }
  by_time.Print(std::cout,
                "Fig 5 (right) — test weighted F1 vs cumulative training "
                "time (paper shape: GFN reaches a given F1 sooner)");

  // Summary: best F1 attainable within shared wall-clock budgets (the
  // reading of the paper's right panel: "after X minutes of training,
  // who is ahead?").
  double max_time = 0.0;
  for (const auto& c : curves) {
    max_time = std::max(max_time, c.history.back().seconds);
  }
  const double budgets[] = {0.25 * max_time, 0.5 * max_time, max_time};
  ba::TablePrinter summary({"Model", "Final F1", "Seconds/epoch",
                            "Best F1 @25% time", "@50% time", "@100% time"});
  for (const auto& c : curves) {
    std::vector<std::string> row{
        c.name, ba::TablePrinter::Num(c.history.back().eval_f1),
        ba::TablePrinter::Num(c.history.back().seconds / epochs, 3)};
    for (double budget : budgets) {
      double best = 0.0;
      for (const auto& stat : c.history) {
        if (stat.seconds <= budget) best = std::max(best, stat.eval_f1);
      }
      row.push_back(ba::TablePrinter::Num(best));
    }
    summary.AddRow(row);
  }
  summary.Print(std::cout,
                "Fig 5 summary — best test F1 within shared time budgets");
  return 0;
}
