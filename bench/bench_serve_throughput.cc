// Serving throughput: batched + cached InferenceEngine vs the serial
// BaClassifier::Predict facade on a repeat-query monitoring workload
// (every client polls every watched address each round — the BitScope
// cadence). Reports queries/sec, latency percentiles and cache
// effectiveness, and writes a machine-readable BENCH_serve.json.
// Gates: median engine qps >= 3x median serial qps, and the sweep
// defence below. One phase is only `rounds` x the watched set (a few
// hundred queries, tens of milliseconds), so the serial and engine
// phases each run kRepeats times, alternating, the engine on a fresh
// cold cache every time; the JSON reports each median with its min
// and max.
//
// Sweep defence: a mixer_hunt-style cold sweep runs concurrently with
// a hot polling client against one engine whose cache holds twice the
// watched set. The engine's sweep detector (sweep_miss_streak 8) must
// flag the sweeper and stamp its requests no-promote, keeping the hot
// set's hit rate at >= 90% of its no-sweep value.
//
//   ./build/bench/bench_serve_throughput [--blocks 150] [--addresses 200]
//       [--rounds 5] [--clients 4] [--threads 2] [--out BENCH_serve.json]
//       [--poll-rounds 25] [--poll-interval-ms 20]
//
// With --precision int8 the bench instead compares an fp32 engine
// against an int8 (quantized embed path) engine on a cold-cache,
// embed-bound workload (--hidden defaults to 1024 there so the node MLP
// dominates): every sweep clears the cache, so each query pays graph
// construction + encoder forward. Gates: int8 qps >= 1.3x fp32, and
// the two engines' label accuracy may differ by at most 0.5 points.
//
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "core/classifier.h"
#include "serve/inference_engine.h"

namespace {

/// Serial and engine phases per run (see the file comment).
constexpr int kRepeats = 5;

/// Queries every address once per round through the serial facade — the
/// pre-engine deployment story: full graph rebuild on every query.
double SerialQps(const ba::core::BaClassifier& classifier,
                 const ba::chain::Ledger& ledger,
                 const std::vector<ba::datagen::LabeledAddress>& watched,
                 int rounds) {
  ba::Stopwatch watch;
  watch.Start();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& address : watched) {
      std::vector<int> predicted;
      BA_CHECK_OK(classifier.Predict(ledger, {address}, &predicted));
    }
  }
  watch.Stop();
  return static_cast<double>(watched.size()) * rounds /
         watch.ElapsedSeconds();
}

/// Fresh engine, `clients` threads splitting `rounds` polling rounds
/// over the watched set (so the query count matches SerialQps). Returns
/// queries/sec; the engine's final metrics land in `metrics`.
double EngineQps(const ba::core::BaClassifier& classifier,
                 const ba::chain::Ledger& ledger,
                 const ba::serve::InferenceEngineOptions& options,
                 const std::vector<ba::datagen::LabeledAddress>& watched,
                 int rounds, int clients,
                 ba::serve::InferenceMetricsSnapshot* metrics) {
  auto engine =
      ba::serve::InferenceEngine::Create(&classifier, &ledger, options);
  BA_CHECK_OK(engine.status());
  ba::Stopwatch watch;
  watch.Start();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (int r = c; r < rounds; r += clients) {
        for (const auto& address : watched) {
          BA_CHECK_OK(engine.value()->Classify(address.address).status());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  watch.Stop();
  *metrics = engine.value()->Metrics();
  return static_cast<double>(watched.size()) * rounds /
         watch.ElapsedSeconds();
}

/// Cold-cache engine sweep: every sweep clears the cache, then
/// `clients` threads split the watched set. Returns queries/sec over
/// all sweeps (each query rebuilds + re-embeds its graphs — the
/// embed-bound shape the precision comparison needs).
double ColdCacheQps(ba::serve::InferenceEngine* engine,
                    const std::vector<ba::datagen::LabeledAddress>& watched,
                    int sweeps, int clients) {
  ba::Stopwatch watch;
  watch.Start();
  for (int s = 0; s < sweeps; ++s) {
    engine->ClearCache();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < watched.size();
             i += static_cast<size_t>(clients)) {
          BA_CHECK_OK(engine->Classify(watched[i].address).status());
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  watch.Stop();
  return static_cast<double>(watched.size()) * sweeps /
         watch.ElapsedSeconds();
}

/// Label accuracy of fresh (cold-cache) engine predictions.
double EngineAccuracy(ba::serve::InferenceEngine* engine,
                      const std::vector<ba::datagen::LabeledAddress>& watched) {
  engine->ClearCache();
  size_t correct = 0;
  for (const auto& address : watched) {
    auto result = engine->Classify(address.address);
    BA_CHECK_OK(result.status());
    if (result.value().predicted == static_cast<int>(address.label)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(watched.size());
}

/// Hot-set hit rate while (optionally) a cold sweep hammers the same
/// small cache from a separate connection identity. The hot client
/// polls `watched` at a real monitoring cadence — one batch per
/// `poll_interval_ms` — which is exactly when an unprotected full-speed
/// sweep is lethal: dozens of cold insertions land between two polls,
/// pushing the idle hot entries to the LRU floor. The sweeper walks
/// `sweep` (classifiable addresses *outside* the hot set) continuously
/// until the poller finishes. Hits are counted from the hot client's
/// own results — exact, not a ratio of global counters the sweeper also
/// moves.
double HotHitRate(ba::serve::InferenceEngine* engine,
                  const std::vector<ba::chain::AddressId>& watched,
                  const std::vector<ba::chain::AddressId>& sweep,
                  int rounds, int poll_interval_ms, bool with_sweep) {
  for (const auto& r : engine->ClassifyBatch(watched)) {
    BA_CHECK_OK(r.status());
  }
  std::atomic<bool> stop_sweep{false};
  std::thread sweeper;
  if (with_sweep) {
    sweeper = std::thread([&] {
      ba::serve::ClassifyOptions sweep_options;
      sweep_options.client_id = 0xC01DBEEF;  // one scanning "connection"
      size_t i = 0;
      while (!stop_sweep.load(std::memory_order_relaxed)) {
        BA_CHECK_OK(
            engine->Classify(sweep[i % sweep.size()], sweep_options)
                .status());
        ++i;
      }
    });
  }
  uint64_t hot_hits = 0;
  uint64_t hot_total = 0;
  ba::serve::ClassifyOptions hot_options;
  hot_options.client_id = 1;
  for (int r = 0; r < rounds; ++r) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(poll_interval_ms));
    for (const auto& outcome : engine->ClassifyBatch(watched, hot_options)) {
      BA_CHECK_OK(outcome.status());
      ++hot_total;
      if (outcome.value().cache_hit) ++hot_hits;
    }
  }
  stop_sweep.store(true, std::memory_order_relaxed);
  if (sweeper.joinable()) sweeper.join();
  return hot_total == 0 ? 0.0
                        : static_cast<double>(hot_hits) /
                              static_cast<double>(hot_total);
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int rounds = static_cast<int>(flags.GetInt("rounds", 5));
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  // --threads sizes the shared pool, the dataset build and the engine;
  // without it the engine runs 2 threads and the dataset builds on 1.
  const int threads_flag = ba::bench::ThreadsFlag(flags);
  const int threads = threads_flag > 0 ? threads_flag : 2;
  const std::string precision = flags.GetString("precision", "fp32");
  BA_CHECK(precision == "fp32" || precision == "int8");

  ba::datagen::ScenarioConfig config = ba::bench::ScenarioFromFlags(flags, threads_flag);
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 150));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());
  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/3);
  ba::Rng rng(config.seed ^ 0xBEEF);
  labeled = ba::datagen::StratifiedSample(
      labeled, flags.GetInt("addresses", 200), &rng);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

  ba::core::BaClassifier::Options options;
  options.dataset = ba::bench::DatasetOptionsFromFlags(flags, threads_flag);
  options.dataset.construction.slice_size =
      static_cast<int>(flags.GetInt("slice", 20));
  options.graph_model.k_hops = options.dataset.k_hops;
  options.graph_model.epochs = static_cast<int>(flags.GetInt("epochs", 4));
  // The precision comparison wants an embed-bound workload, so the
  // node MLP defaults wider there; fp32 mode keeps the model defaults.
  options.graph_model.hidden_dim =
      flags.GetInt("hidden", precision == "int8" ? 1024 : 64);
  options.aggregator.epochs =
      static_cast<int>(flags.GetInt("agg_epochs", 8));
  auto created = ba::core::BaClassifier::Create(options);
  BA_CHECK_OK(created.status());
  const auto classifier = std::move(created).value();
  ba::Stopwatch train_watch;
  train_watch.Start();
  BA_CHECK_OK(classifier->Train(simulator.ledger(), split.train));
  train_watch.Stop();

  const std::vector<ba::datagen::LabeledAddress>& watched = split.test;
  std::cout << "[setup] watching " << watched.size() << " addresses, "
            << rounds << " polling rounds, " << clients
            << " clients (trained in "
            << ba::TablePrinter::Num(train_watch.ElapsedSeconds(), 1)
            << "s)\n";

  if (precision == "int8") {
    // --- fp32 engine vs int8 engine, cold-cache (embed-bound). --------
    std::vector<ba::core::AddressSample> calib;
    BA_CHECK_OK(
        classifier->BuildSamples(simulator.ledger(), split.train, &calib));
    BA_CHECK_OK(classifier->Quantize(calib));

    ba::serve::InferenceEngineOptions fp32_options;
    fp32_options.num_threads = threads;
    ba::serve::InferenceEngineOptions int8_options = fp32_options;
    int8_options.precision = ba::serve::Precision::kInt8;
    auto fp32_engine = ba::serve::InferenceEngine::Create(
        classifier.get(), &simulator.ledger(), fp32_options);
    BA_CHECK_OK(fp32_engine.status());
    auto int8_engine = ba::serve::InferenceEngine::Create(
        classifier.get(), &simulator.ledger(), int8_options);
    BA_CHECK_OK(int8_engine.status());

    // Interleaved best-of-N: scheduling noise on a shared box easily
    // swings a single cold-cache sweep by 20%+, and the gate compares
    // the two engines' best sustainable rates, not two noise draws.
    const int attempts =
        static_cast<int>(flags.GetInt("attempts", 3));
    double fp32_qps = 0.0, int8_qps = 0.0;
    for (int a = 0; a < attempts; ++a) {
      fp32_qps = std::max(
          fp32_qps,
          ColdCacheQps(fp32_engine.value().get(), watched, rounds, clients));
      int8_qps = std::max(
          int8_qps,
          ColdCacheQps(int8_engine.value().get(), watched, rounds, clients));
    }
    const double ratio = int8_qps / fp32_qps;
    const double fp32_acc = EngineAccuracy(fp32_engine.value().get(), watched);
    const double int8_acc = EngineAccuracy(int8_engine.value().get(), watched);
    const double acc_delta = std::abs(fp32_acc - int8_acc);
    const bool qps_ok = ratio >= 1.3;
    const bool acc_ok = acc_delta <= 0.005;
    std::cout << "[fp32] " << ba::TablePrinter::Num(fp32_qps, 1)
              << " queries/sec (cold cache)\n"
              << "[int8] " << ba::TablePrinter::Num(int8_qps, 1)
              << " queries/sec (" << ba::TablePrinter::Num(ratio, 2)
              << "x fp32)  gate>=1.3 " << (qps_ok ? "PASS" : "FAIL") << "\n"
              << "[accuracy] fp32 " << ba::TablePrinter::Num(fp32_acc, 4)
              << "  int8 " << ba::TablePrinter::Num(int8_acc, 4)
              << "  delta " << ba::TablePrinter::Num(acc_delta, 4)
              << "  gate<=0.005 " << (acc_ok ? "PASS" : "FAIL") << "\n";

    // Distinct default so an int8 run never clobbers the fp32 json.
    const std::string out_path =
        flags.GetString("out", "BENCH_serve_int8.json");
    std::ofstream out(out_path, std::ios::trunc);
    out << "{\"precision\":\"int8\",\"fp32_qps\":" << fp32_qps
        << ",\"int8_qps\":" << int8_qps << ",\"int8_speedup\":" << ratio
        << ",\"fp32_accuracy\":" << fp32_acc
        << ",\"int8_accuracy\":" << int8_acc
        << ",\"accuracy_delta\":" << acc_delta
        << ",\"sweeps\":" << rounds << ",\"clients\":" << clients
        << ",\"watched_addresses\":" << watched.size()
        << ",\"hidden_dim\":" << options.graph_model.hidden_dim
        << ",\"train_seconds\":" << train_watch.ElapsedSeconds()
        << ",\"int8_engine\":" << int8_engine.value()->Metrics().ToJson()
        << ",\"meta\":"
        << ba::bench::BenchMetaJson("serve_throughput", threads) << "}\n";
    std::cout << "\nwrote " << out_path << "\n";
    return (qps_ok && acc_ok) ? 0 : 1;
  }

  // --- Serial facade (full rebuild per query) vs the engine
  // (micro-batched clients over a shared cache), alternating. ---------
  ba::serve::InferenceEngineOptions engine_options;
  engine_options.num_threads = threads;
  ba::serve::InferenceMetricsSnapshot m;
  std::vector<double> serial_runs, engine_runs;
  for (int r = 0; r < kRepeats; ++r) {
    serial_runs.push_back(
        SerialQps(*classifier, simulator.ledger(), watched, rounds));
    engine_runs.push_back(EngineQps(*classifier, simulator.ledger(),
                                    engine_options, watched, rounds,
                                    clients, &m));
    std::cout << "[repeat " << (r + 1) << "/" << kRepeats << "] serial "
              << ba::TablePrinter::Num(serial_runs.back(), 1)
              << " queries/sec, engine "
              << ba::TablePrinter::Num(engine_runs.back(), 1)
              << " queries/sec\n";
  }
  const ba::bench::Spread serial = ba::bench::SpreadOf(serial_runs);
  const ba::bench::Spread engine = ba::bench::SpreadOf(engine_runs);
  const double speedup = engine.median / serial.median;
  std::cout << "[median] serial " << ba::TablePrinter::Num(serial.median, 1)
            << ", engine " << ba::TablePrinter::Num(engine.median, 1)
            << " queries/sec (" << ba::TablePrinter::Num(speedup, 2)
            << "x serial)  gate>=3 " << (speedup >= 3.0 ? "PASS" : "FAIL")
            << "\n\n"
            << m.ToString();

  // --- Sweep defence: hot set vs cold sweep on one engine. ------------
  // A cache that holds twice the hot set, and a sweep over every other
  // classifiable address — without the no-promote mode the sweep would
  // evict the hot set continuously.
  std::vector<ba::chain::AddressId> hot_list;
  hot_list.reserve(watched.size());
  for (const auto& a : watched) hot_list.push_back(a.address);
  std::unordered_set<ba::chain::AddressId> hot_ids(hot_list.begin(),
                                                   hot_list.end());
  std::vector<ba::chain::AddressId> sweep;
  for (const auto& a : simulator.CollectLabeledAddresses(/*min_txs=*/2)) {
    if (hot_ids.find(a.address) == hot_ids.end()) sweep.push_back(a.address);
  }
  BA_CHECK(!sweep.empty());
  ba::serve::InferenceEngineOptions small_options = engine_options;
  small_options.cache_capacity = 2 * watched.size();
  small_options.sweep_miss_streak = 8;
  const int poll_rounds = static_cast<int>(flags.GetInt("poll-rounds", 25));
  const int poll_interval_ms =
      static_cast<int>(flags.GetInt("poll-interval-ms", 20));
  // Fresh engine per measurement: no detector or cache carry-over.
  auto quiet = ba::serve::InferenceEngine::Create(
      classifier.get(), &simulator.ledger(), small_options);
  BA_CHECK_OK(quiet.status());
  const double hit_rate_quiet =
      HotHitRate(quiet.value().get(), hot_list, sweep, poll_rounds,
                 poll_interval_ms, /*with_sweep=*/false);
  auto swept = ba::serve::InferenceEngine::Create(
      classifier.get(), &simulator.ledger(), small_options);
  BA_CHECK_OK(swept.status());
  const double hit_rate_swept =
      HotHitRate(swept.value().get(), hot_list, sweep, poll_rounds,
                 poll_interval_ms, /*with_sweep=*/true);
  const double hit_ratio =
      hit_rate_quiet > 0.0 ? hit_rate_swept / hit_rate_quiet : 0.0;
  const bool sweep_ok = hit_ratio >= 0.9;
  std::cout << "\n[hot hit rate] quiet "
            << ba::TablePrinter::Num(hit_rate_quiet, 4) << "  under sweep "
            << ba::TablePrinter::Num(hit_rate_swept, 4) << " (ratio "
            << ba::TablePrinter::Num(hit_ratio, 3) << ", "
            << swept.value()->sweeping_clients()
            << " clients flagged sweeping)  gate>=0.9 "
            << (sweep_ok ? "PASS" : "FAIL") << "\n";

  const std::string out_path =
      flags.GetString("out", "BENCH_serve.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << "{" << ba::bench::SpreadJson("serial_qps", serial) << ","
      << ba::bench::SpreadJson("engine_qps", engine)
      << ",\"speedup\":" << speedup << ",\"repeats\":" << kRepeats
      << ",\"rounds\":" << rounds << ",\"clients\":" << clients
      << ",\"watched_addresses\":" << watched.size()
      << ",\"train_seconds\":" << train_watch.ElapsedSeconds()
      << ",\"engine\":" << m.ToJson()
      << ",\"hot_hit_rate_quiet\":" << hit_rate_quiet
      << ",\"hot_hit_rate_swept\":" << hit_rate_swept
      << ",\"hit_rate_ratio\":" << hit_ratio
      << ",\"sweeping_clients\":" << swept.value()->sweeping_clients()
      << ",\"sweep_addresses\":" << sweep.size()
      << ",\"sweep_cache_capacity\":" << small_options.cache_capacity
      << ",\"sweep_miss_streak\":" << small_options.sweep_miss_streak
      << ",\"meta\":" << ba::bench::BenchMetaJson("serve_throughput", threads)
      << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return (speedup >= 3.0 && sweep_ok) ? 0 : 1;
}
