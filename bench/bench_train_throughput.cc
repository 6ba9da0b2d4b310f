// Training-throughput bench: serial vs data-parallel GraphModel::Train
// on the standard datagen economy, asserting the determinism contract
// (identical per-epoch losses at any lane count) and writing
// BENCH_train.json.
//
//   ./build/bench/bench_train_throughput [--blocks 400] [--addresses 700]
//       [--epochs 10] [--repeats 5] [--batch 16] [--threads N]
//       [--out BENCH_train.json]
//
// One unmeasured warm-up run (idle vCPUs take a while to reach full
// speed) precedes `--repeats` alternating serial and threaded runs of
// `--epochs` epochs each; the side that goes first alternates too. Each
// run yields its mean epoch seconds, and the JSON reports the median
// per side with its min and max. The speedup is the ratio of medians.
//
// --threads sizes the shared pool AND the threaded runs' lane count
// (default: the cores this process may run on); serial runs always use
// one lane. A speedup is only measured when every lane has a core:
// with more lanes than cores it is reported as unmeasured (JSON
// "speedup": null). Exits non-zero when any run's per-epoch losses
// differ from the first serial run's (they must be bit-identical).

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/graph_model.h"

namespace {

/// Trains a fresh model and returns its per-epoch stats.
std::vector<ba::core::EpochStat> RunTraining(
    const ba::bench::Experiment& exp, const ba::CliFlags& flags,
    int num_threads, int epochs) {
  ba::core::GraphModelOptions options;
  options.encoder = ba::core::GraphEncoderKind::kGfn;
  options.k_hops = static_cast<int>(flags.GetInt("khops", 2));
  options.epochs = epochs;
  options.batch_size = static_cast<int>(flags.GetInt("batch", 16));
  options.seed = 11;
  options.num_threads = num_threads;
  BA_CHECK_OK(options.Validate());
  ba::core::GraphModel model(options);
  std::vector<ba::core::EpochStat> history;
  BA_CHECK_OK(model.Train(exp.train, nullptr, &history));
  return history;
}

double MeanEpochSeconds(const std::vector<ba::core::EpochStat>& history) {
  // EpochStat.seconds is cumulative; the mean epoch time is total/N.
  return history.empty() ? 0.0
                         : history.back().seconds /
                               static_cast<double>(history.size());
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int cores = ba::bench::AffinityCores();
  const int threads_flag = ba::bench::ThreadsFlag(flags);
  const int threads = threads_flag > 0 ? threads_flag : cores;
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  BA_CHECK_GE(repeats, 1);
  const ba::bench::Experiment exp = ba::bench::BuildExperiment(flags, threads_flag);

  std::cout << "[train] warm-up run (" << threads << " lanes)...\n";
  RunTraining(exp, flags, threads, epochs);

  // Alternating repeats; the first serial run is the loss reference.
  std::vector<double> reference;
  std::vector<double> serial_runs, threaded_runs;
  bool loss_match = true;
  for (int r = 0; r < repeats; ++r) {
    for (const int side : r % 2 == 0 ? std::vector<int>{0, 1}
                                     : std::vector<int>{1, 0}) {
      const int lanes = side == 0 ? 1 : threads;
      const auto history = RunTraining(exp, flags, lanes, epochs);
      std::vector<double> losses;
      for (const auto& stat : history) losses.push_back(stat.train_loss);
      if (reference.empty()) reference = losses;
      if (losses != reference) {
        loss_match = false;
        std::cout << "[train] LOSS MISMATCH in repeat " << (r + 1) << " ("
                  << lanes << " lanes)\n";
      }
      const double seconds = MeanEpochSeconds(history);
      (side == 0 ? serial_runs : threaded_runs).push_back(seconds);
      std::cout << "[train] repeat " << (r + 1) << "/" << repeats << " "
                << (side == 0 ? "serial  " : "threaded") << " "
                << ba::TablePrinter::Num(seconds, 4) << " s/epoch\n";
    }
  }
  std::cout << "[train] per-epoch losses:" << std::setprecision(17);
  for (const double loss : reference) std::cout << " " << loss;
  std::cout << std::setprecision(6) << "\n";

  const ba::bench::Spread serial = ba::bench::SpreadOf(serial_runs);
  const ba::bench::Spread threaded = ba::bench::SpreadOf(threaded_runs);
  // Lanes beyond the cores time-slice one another: their ratio says
  // nothing about data-parallel scaling.
  const bool measured = threads <= cores && threaded.median > 0.0;
  const double speedup = measured ? serial.median / threaded.median : 0.0;
  const std::string shown =
      measured ? ba::TablePrinter::Num(speedup, 2) + "x"
               : "speedup unmeasured: " + std::to_string(threads) +
                     " lanes > " + std::to_string(cores) + " cores";
  std::cout << "[train] median serial "
            << ba::TablePrinter::Num(serial.median, 4)
            << " s/epoch, threaded "
            << ba::TablePrinter::Num(threaded.median, 4) << " s/epoch ("
            << shown << "), per-epoch losses "
            << (loss_match ? "identical" : "DIVERGED") << "\n";

  const std::string out_path = flags.GetString("out", "BENCH_train.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << "{" << ba::bench::SpreadJson("serial_epoch_seconds", serial) << ","
      << ba::bench::SpreadJson("threaded_epoch_seconds", threaded)
      << ",\"speedup\":" << (measured ? std::to_string(speedup) : "null")
      << ",\"loss_match\":" << (loss_match ? "true" : "false")
      << std::setprecision(17) << ",\"final_loss\":" << reference.back()
      << std::setprecision(6) << ",\"epochs\":" << epochs
      << ",\"repeats\":" << repeats
      << ",\"batch\":" << flags.GetInt("batch", 16)
      << ",\"train_examples\":" << exp.train.size()
      << ",\"lanes\":" << threads << ",\"cores\":" << cores
      << ",\"meta\":" << ba::bench::BenchMetaJson("train_throughput", threads)
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return loss_match ? 0 : 1;
}
