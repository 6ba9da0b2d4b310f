#pragma once

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/graph_dataset.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "metrics/classification.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/cli.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

/// \file bench_common.h
/// \brief Shared scaffolding for the per-table / per-figure benchmark
/// harnesses: economy construction, dataset materialization, and the
/// per-class table rendering the paper's tables use.
///
/// Every bench additionally accepts `--trace-out=<path>` (tracing is
/// enabled for the whole run and a Perfetto-loadable trace is written
/// at process exit, see obs/trace.h) and `--threads=<n>` (sizes the
/// process-wide `util::SharedPool()` before its first use, so one
/// BENCH trajectory is comparable across machines).

namespace ba::bench {

/// \brief Enables tracing when `--trace-out` is set. Called from
/// ScenarioFromFlags so every bench picks it up without code changes;
/// idempotent across repeated calls in multi-experiment benches.
inline void MaybeEnableTracing(const CliFlags& flags) {
  const std::string path = flags.GetString("trace-out", "");
  if (path.empty() || obs::Tracer::Instance().enabled()) return;
  obs::Tracer::Instance().Enable();
  obs::Tracer::Instance().SetCurrentThreadName("bench.main");
  obs::Tracer::Instance().SaveAtExit(path);
  std::cout << "tracing enabled, will save to " << path << "\n";
}

/// \brief The `--threads` flag, 0 when it is absent. A bench reads it
/// once and passes the value to ScenarioFromFlags (shared pool),
/// DatasetOptionsFromFlags (construction threads) and its own
/// engine or lane defaults, so they cannot disagree about the default.
inline int ThreadsFlag(const CliFlags& flags) {
  return static_cast<int>(flags.GetInt("threads", 0));
}

/// \brief Sizes the shared pool to `threads` when it is >= 1 (no-op for
/// 0, i.e. without the flag, or once the pool has materialized).
/// Mirrors MaybeEnableTracing — called from ScenarioFromFlags so every
/// bench honors the flag.
inline void MaybeSetSharedPoolThreads(int threads) {
  if (threads >= 1) util::SetSharedPoolThreads(static_cast<size_t>(threads));
}

// Fallbacks so bench_common.h also compiles in targets that don't go
// through ba_add_bench (which bakes the real values in).
#ifndef BA_BENCH_GIT_SHA
#define BA_BENCH_GIT_SHA "unknown"
#endif
#ifndef BA_BENCH_CXX_FLAGS
#define BA_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef BA_BENCH_COMPILER
#define BA_BENCH_COMPILER "unknown"
#endif

/// \brief The CPU "model name" from /proc/cpuinfo, or "unknown" where
/// that pseudo-file doesn't exist. GFLOPS entries are meaningless
/// without knowing the silicon that produced them.
inline std::string CpuModelName() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") != 0) continue;
    auto start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) start = colon + 1;
    return line.substr(start);
  }
  return "unknown";
}

/// \brief Cores this process may run on (its CPU affinity set), or
/// hardware_concurrency where the affinity mask is unavailable. A
/// parallel speedup needs this many cores, not the machine's total.
inline int AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

/// \brief JSON object recording the provenance every BENCH_*.json
/// needs to be comparable across machines and commits: which benchmark
/// wrote it, git SHA, compiler + flags, the thread count the bench ran
/// with, the shared pool's effective size, the machine's hardware
/// concurrency, the CPU model, and which fp32 target_clones / int8
/// kernel variants actually dispatch on this host. Every bench JSON
/// writer goes through this one helper — add a provenance field here
/// and all of them pick it up.
///
/// `threads` is written as `threads_flag`: the worker-thread count the
/// bench's measured work ran with, after that bench's own default — the
/// engine pool of the serve benches (`--threads`, bench_net_loadgen's
/// `--engine-threads`), the lane count of bench_train_throughput, the
/// shared pool of bench_gemm.
inline std::string BenchMetaJson(const char* bench_name, int threads) {
  std::ostringstream os;
  os << "{\"bench\":\"" << bench_name << "\",";
  // Free-text fields are escaped: flags may carry quoted -D defines.
  os << "\"git_sha\":\"";
  obs::AppendJsonEscaped(&os, BA_BENCH_GIT_SHA);
  os << "\",\"compiler\":\"";
  obs::AppendJsonEscaped(&os, BA_BENCH_COMPILER);
  os << "\",\"cxx_flags\":\"";
  obs::AppendJsonEscaped(&os, BA_BENCH_CXX_FLAGS);
  os << "\",\"threads_flag\":" << threads
     << ",\"shared_pool_threads\":" << util::SharedPoolThreads()
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"affinity_cores\":" << AffinityCores() << ",\"cpu_model\":\"";
  obs::AppendJsonEscaped(&os, CpuModelName());
  os << "\",\"gemm_variant\":\"" << tensor::internal::GemmVariantName()
     << "\",\"int8_gemm_variant\":\"" << tensor::internal::Int8GemmVariantName()
     << "\"}";
  return os.str();
}

/// \brief Median, min and max of one side's repeated measurements.
struct Spread {
  double median = 0.0, min = 0.0, max = 0.0;
};

inline Spread SpreadOf(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  const size_t n = runs.size();
  const double median =
      n % 2 == 1 ? runs[n / 2] : 0.5 * (runs[n / 2 - 1] + runs[n / 2]);
  return {median, runs.front(), runs.back()};
}

/// `"key":median,"key_min":min,"key_max":max` (no enclosing braces).
inline std::string SpreadJson(const std::string& key, const Spread& s) {
  std::ostringstream os;
  os << "\"" << key << "\":" << s.median << ",\"" << key
     << "_min\":" << s.min << ",\"" << key << "_max\":" << s.max;
  return os.str();
}

/// \brief One materialized experiment: simulated economy + stratified
/// 80/20 split with tensors prepared.
struct Experiment {
  std::unique_ptr<datagen::Simulator> simulator;
  std::vector<core::AddressSample> train;
  std::vector<core::AddressSample> test;
  core::StageTimings construction_timings;
  int64_t addresses_used = 0;
};

/// \brief Default benchmark economy, rescalable from the command line:
///   --blocks N        simulation length           (default 400)
///   --addresses N     labeled addresses sampled   (default 700)
///   --seed S          master seed                 (default 42)
///   --slice N         transactions per graph      (default 100)
///   --khops K         GFN propagation depth       (default 2)
///   --noise X         behavioral noise            (default 0.12)
///   --threads N       shared pool size and graph-construction threads
///                     (default: pool left alone, 1 construction thread)
/// `threads` is ThreadsFlag(flags), read once by the bench.
inline datagen::ScenarioConfig ScenarioFromFlags(const CliFlags& flags,
                                                 int threads,
                                                 uint64_t seed_offset = 0) {
  MaybeEnableTracing(flags);
  MaybeSetSharedPoolThreads(threads);
  datagen::ScenarioConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42)) + seed_offset;
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 400));
  config.behavior_noise = flags.GetDouble("noise", 0.12);
  // Population tuned so label shares approximate the paper's Table I
  // ordering: Exchange > Service > Gambling > Mining.
  config.num_mining_pools = 2;
  config.miners_per_pool = 30;
  config.num_exchanges = 3;
  config.num_gambling_houses = 2;
  config.gamblers_per_house = 70;
  config.num_services = 5;
  config.num_retail_users = 180;
  config.mixes_per_block = 0.35;
  config.mix_fresh_entry_prob = 0.4;
  return config;
}

/// Dataset options from the flags; construction runs on `threads`
/// (ThreadsFlag) threads, or on 1 without the flag, as Table V's
/// single-core stage times need.
inline core::GraphDatasetOptions DatasetOptionsFromFlags(
    const CliFlags& flags, int threads) {
  core::GraphDatasetOptions opts;
  opts.construction.slice_size = static_cast<int>(flags.GetInt("slice", 100));
  opts.construction.similarity_threshold = flags.GetDouble("psi", 0.5);
  opts.k_hops = static_cast<int>(flags.GetInt("khops", 2));
  opts.num_threads = std::max(threads, 1);
  return opts;
}

/// Simulates the economy, samples labeled addresses (stratified), splits
/// 80/20 (the paper's protocol) and materializes graph tensors.
/// `threads` is ThreadsFlag(flags).
inline Experiment BuildExperiment(const CliFlags& flags, int threads,
                                  bool verbose = true,
                                  uint64_t seed_offset = 0) {
  Experiment exp;
  const auto config = ScenarioFromFlags(flags, threads, seed_offset);
  Stopwatch watch;
  watch.Start();
  exp.simulator = std::make_unique<datagen::Simulator>(config);
  BA_CHECK_OK(exp.simulator->Run());
  watch.Stop();
  if (verbose) {
    std::cout << "[setup] simulated " << config.num_blocks << " blocks, "
              << exp.simulator->ledger().num_transactions()
              << " transactions, " << exp.simulator->ledger().num_addresses()
              << " addresses in " << TablePrinter::Num(watch.ElapsedSeconds(), 2)
              << "s (seed " << config.seed << ")\n";
  }

  auto labeled = exp.simulator->CollectLabeledAddresses(
      static_cast<int>(flags.GetInt("min_txs", 2)));
  Rng rng(config.seed ^ 0xBEEF);
  labeled = datagen::StratifiedSample(
      labeled, flags.GetInt("addresses", 700), &rng);
  exp.addresses_used = static_cast<int64_t>(labeled.size());
  const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);

  watch.Reset();
  watch.Start();
  const core::GraphDatasetOptions dopts =
      DatasetOptionsFromFlags(flags, threads);
  const chain::LedgerSnapshot snapshot = exp.simulator->ledger().Snapshot();
  exp.train = core::BuildAddressSamples(snapshot, split.train, dopts,
                                        &exp.construction_timings);
  exp.test = core::BuildAddressSamples(snapshot, split.test, dopts,
                                       &exp.construction_timings);
  watch.Stop();
  if (verbose) {
    std::cout << "[setup] materialized " << exp.train.size() << " train / "
              << exp.test.size() << " test address samples in "
              << TablePrinter::Num(watch.ElapsedSeconds(), 2) << "s\n";
  }
  return exp;
}

/// Appends the per-class + weighted-average rows the paper's Tables
/// III/IV use for one model.
inline void AddPerClassRows(TablePrinter* table, const std::string& model,
                            const metrics::ConfusionMatrix& cm) {
  const auto names = datagen::BehaviorNames();
  const auto reports = cm.AllReports();
  for (int c = 0; c < cm.num_classes(); ++c) {
    table->AddRow({c == 0 ? model : "", names[static_cast<size_t>(c)],
                   TablePrinter::Num(reports[static_cast<size_t>(c)].precision),
                   TablePrinter::Num(reports[static_cast<size_t>(c)].recall),
                   TablePrinter::Num(reports[static_cast<size_t>(c)].f1)});
  }
  const auto w = cm.WeightedAverage();
  table->AddRow({"", "Weighted Avg", TablePrinter::Num(w.precision),
                 TablePrinter::Num(w.recall), TablePrinter::Num(w.f1)});
  table->AddSeparator();
}

}  // namespace ba::bench
