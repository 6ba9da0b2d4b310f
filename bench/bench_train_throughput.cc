// Training-throughput bench: serial vs data-parallel GraphModel::Train
// on the standard datagen economy, asserting the determinism contract
// (identical per-epoch losses at any lane count) and writing
// BENCH_train.json.
//
//   ./build/bench/bench_train_throughput [--blocks 400] [--addresses 700]
//       [--epochs 3] [--threads N] [--out BENCH_train.json]
//
// --threads sizes the shared pool AND the threaded run's lane count
// (default: the cores this process may run on); the serial run always
// uses one lane. A speedup is only measured when every lane has a core:
// with more lanes than cores it is reported as unmeasured (JSON
// "speedup": null). Exits non-zero when the two runs' per-epoch losses
// diverge (they must be bit-identical).

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/graph_model.h"

namespace {

/// Trains a fresh model and returns its per-epoch stats.
std::vector<ba::core::EpochStat> RunTraining(
    const ba::bench::Experiment& exp, const ba::CliFlags& flags,
    int num_threads) {
  ba::core::GraphModelOptions options;
  options.encoder = ba::core::GraphEncoderKind::kGfn;
  options.k_hops = static_cast<int>(flags.GetInt("khops", 2));
  options.epochs = static_cast<int>(flags.GetInt("epochs", 3));
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
  const int threads = static_cast<int>(flags.GetInt("threads", cores));
  const ba::bench::Experiment exp = ba::bench::BuildExperiment(flags);

  std::cout << "[train] serial run...\n";
  const auto serial = RunTraining(exp, flags, /*num_threads=*/1);
  std::cout << "[train] threaded run (" << threads << " lanes)...\n";
  const auto threaded = RunTraining(exp, flags, threads);

  BA_CHECK_EQ(serial.size(), threaded.size());
  bool loss_match = true;
  for (size_t e = 0; e < serial.size(); ++e) {
    if (serial[e].train_loss != threaded[e].train_loss) {
      loss_match = false;
      std::cout << "[train] LOSS MISMATCH epoch " << (e + 1) << ": serial "
                << serial[e].train_loss << " threaded "
                << threaded[e].train_loss << "\n";
    }
  }

  const double serial_epoch_s = MeanEpochSeconds(serial);
  const double threaded_epoch_s = MeanEpochSeconds(threaded);
  // Lanes beyond the cores time-slice one another: their ratio says
  // nothing about data-parallel scaling.
  const bool measured = threads <= cores && threaded_epoch_s > 0.0;
  const double speedup = measured ? serial_epoch_s / threaded_epoch_s : 0.0;
  const std::string shown =
      measured ? ba::TablePrinter::Num(speedup, 2) + "x"
               : "speedup unmeasured: " + std::to_string(threads) +
                     " lanes > " + std::to_string(cores) + " cores";
  std::cout << "[train] serial " << ba::TablePrinter::Num(serial_epoch_s, 3)
            << " s/epoch, threaded "
            << ba::TablePrinter::Num(threaded_epoch_s, 3) << " s/epoch ("
            << shown << "), per-epoch losses "
            << (loss_match ? "identical" : "DIVERGED") << "\n";

  const std::string out_path = flags.GetString("out", "BENCH_train.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\"serial_epoch_seconds\":" << serial_epoch_s
      << ",\"threaded_epoch_seconds\":" << threaded_epoch_s
      << ",\"speedup\":" << (measured ? std::to_string(speedup) : "null")
      << ",\"loss_match\":" << (loss_match ? "true" : "false")
      << ",\"final_loss_serial\":" << serial.back().train_loss
      << ",\"final_loss_threaded\":" << threaded.back().train_loss
      << ",\"epochs\":" << serial.size()
      << ",\"train_examples\":" << exp.train.size()
      << ",\"lanes\":" << threads << ",\"cores\":" << cores
      << ",\"meta\":" << ba::bench::BenchMetaJson(flags, "train_throughput") << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return loss_match ? 0 : 1;
}
