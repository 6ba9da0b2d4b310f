// Overload behavior of the serving engine: closed-loop client fleets at
// 1x/2x/4x the base concurrency hammer an admission-controlled engine
// while a sealer thread keeps growing the watched addresses (so every
// poll does real graph work instead of hitting a warm cache). Reports
// per-load admitted/shed latency percentiles, writes a machine-readable
// BENCH_overload.json, and gates on the resilience contract:
//
//   * zero requests lost — every call resolves to success or an
//     explicit ResourceExhausted shed;
//   * shed requests are rejected fast (p99 < 1 ms) at 4x load;
//   * p99 latency of ADMITTED requests at 4x load stays within 4x of
//     the 1x-load p99 — overload is shed, not queued. The 1x fleet's
//     callers build in parallel on warm cores; the few requests the
//     token bucket admits at 4x run between bursts of shed clients and
//     measure 2-3x slower with nothing queued (4-vCPU Xeon: 1.0-1.6 ms
//     against 0.45-0.55 ms). An engine whose admission cannot see its
//     blocking callers admits everything at 4x and measures 8-9x.
//
//   ./build/bench/bench_serve_overload [--blocks 80] [--addresses 48]
//       [--clients 4] [--phase-seconds 2.0] [--threads 2]
//       [--out BENCH_overload.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/classifier.h"
#include "serve/inference_engine.h"

namespace {

using SteadyClock = std::chrono::steady_clock;

double PercentileOf(std::vector<double> sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const size_t idx = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted_in_place.size() - 1) + 0.5);
  return sorted_in_place[std::min(idx, sorted_in_place.size() - 1)];
}

struct LoadResult {
  int multiple = 0;
  int clients = 0;
  uint64_t requests = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t lost = 0;  // any outcome outside the contract
  double p50_admitted_s = 0.0;
  double p99_admitted_s = 0.0;
  double p99_shed_s = 0.0;
  double qps = 0.0;

  std::string ToJson() const {
    std::ostringstream os;
    os << "{\"multiple\":" << multiple << ",\"clients\":" << clients
       << ",\"requests\":" << requests << ",\"admitted\":" << admitted
       << ",\"shed\":" << shed << ",\"lost\":" << lost
       << ",\"p50_admitted_s\":" << p50_admitted_s
       << ",\"p99_admitted_s\":" << p99_admitted_s
       << ",\"p99_shed_s\":" << p99_shed_s << ",\"qps\":" << qps << "}";
    return os.str();
  }
};

/// One closed-loop phase: `clients` threads poll the watched addresses
/// for `seconds`, each call timed individually and bucketed by outcome.
LoadResult RunPhase(ba::serve::InferenceEngine* engine,
                    const std::vector<ba::datagen::LabeledAddress>& watched,
                    int multiple, int clients, double seconds) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> admitted_lat(
      static_cast<size_t>(clients));
  std::vector<std::vector<double>> shed_lat(static_cast<size_t>(clients));
  std::vector<uint64_t> lost(static_cast<size_t>(clients), 0);

  ba::Stopwatch watch;
  watch.Start();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t cursor = static_cast<size_t>(c);
      while (!stop.load(std::memory_order_acquire)) {
        const ba::chain::AddressId address =
            watched[cursor % watched.size()].address;
        cursor += static_cast<size_t>(clients);
        const SteadyClock::time_point t0 = SteadyClock::now();
        const auto result = engine->Classify(address);
        const double dt =
            std::chrono::duration<double>(SteadyClock::now() - t0)
                .count();
        if (result.ok()) {
          admitted_lat[static_cast<size_t>(c)].push_back(dt);
        } else if (result.status().code() ==
                   ba::StatusCode::kResourceExhausted) {
          shed_lat[static_cast<size_t>(c)].push_back(dt);
          // A real client backs off after a shed; a zero-delay retry
          // loop would just burn the cores the admitted work needs.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          ++lost[static_cast<size_t>(c)];
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  watch.Stop();

  LoadResult r;
  r.multiple = multiple;
  r.clients = clients;
  std::vector<double> all_admitted;
  std::vector<double> all_shed;
  for (int c = 0; c < clients; ++c) {
    const auto& a = admitted_lat[static_cast<size_t>(c)];
    const auto& s = shed_lat[static_cast<size_t>(c)];
    all_admitted.insert(all_admitted.end(), a.begin(), a.end());
    all_shed.insert(all_shed.end(), s.begin(), s.end());
    r.lost += lost[static_cast<size_t>(c)];
  }
  r.admitted = all_admitted.size();
  r.shed = all_shed.size();
  r.requests = r.admitted + r.shed + r.lost;
  r.p50_admitted_s = PercentileOf(all_admitted, 50.0);
  r.p99_admitted_s = PercentileOf(all_admitted, 99.0);
  r.p99_shed_s = PercentileOf(all_shed, 99.0);
  r.qps = static_cast<double>(r.requests) / watch.ElapsedSeconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int base_clients = static_cast<int>(flags.GetInt("clients", 4));
  const double phase_seconds = flags.GetDouble("phase-seconds", 2.0);
  const int threads_flag = ba::bench::ThreadsFlag(flags);

  ba::datagen::ScenarioConfig config = ba::bench::ScenarioFromFlags(flags, threads_flag);
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 80));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());
  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/3);
  ba::Rng rng(config.seed ^ 0xFEED);
  labeled = ba::datagen::StratifiedSample(
      labeled, flags.GetInt("addresses", 48), &rng);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

  ba::core::BaClassifier::Options options;
  options.dataset = ba::bench::DatasetOptionsFromFlags(flags, threads_flag);
  options.dataset.construction.slice_size =
      static_cast<int>(flags.GetInt("slice", 20));
  options.graph_model.k_hops = options.dataset.k_hops;
  options.graph_model.epochs = static_cast<int>(flags.GetInt("epochs", 2));
  options.aggregator.epochs =
      static_cast<int>(flags.GetInt("agg_epochs", 4));
  auto created = ba::core::BaClassifier::Create(options);
  BA_CHECK_OK(created.status());
  const auto classifier = std::move(created).value();
  BA_CHECK_OK(classifier->Train(simulator.ledger(), split.train));
  const std::vector<ba::datagen::LabeledAddress>& watched = split.test;

  // Admission sized to the base fleet: at 1x the backlog sits below the
  // high watermark (no shedding); at 4x it crosses and the controller
  // sheds the excess instead of queueing it.
  ba::serve::InferenceEngineOptions engine_options;
  engine_options.num_threads = threads_flag > 0 ? threads_flag : 2;
  // A cache big enough to hold the whole watch list turns this bench
  // into a memcache read loop; capping it at a quarter of the list
  // keeps the LRU churning so most requests pay for real graph
  // construction + encoder work — the load the admission layer exists
  // to protect.
  engine_options.cache_capacity = static_cast<size_t>(flags.GetInt(
      "cache-capacity",
      std::max<int64_t>(1, static_cast<int64_t>(watched.size()) / 4)));
  engine_options.enable_admission = true;
  engine_options.admission.max_inflight = 16 * base_clients;
  // The watermark caps the admitted backlog just above the 1x fleet's
  // natural depth: the base load never sheds, while overload beyond it
  // is rejected instead of queued — which is exactly what keeps the
  // admitted p99 bounded across load multiples.
  engine_options.admission.high_watermark = base_clients + 2;
  engine_options.admission.low_watermark = std::max(1, base_clients / 2);
  engine_options.admission.recovery_rate = 500.0;
  engine_options.admission.recovery_burst = base_clients;
  auto engine = ba::serve::InferenceEngine::Create(
      classifier.get(), &simulator.ledger(), engine_options);
  BA_CHECK_OK(engine.status());

  std::cout << "[setup] watching " << watched.size() << " addresses, "
            << base_clients << " base clients, "
            << ba::TablePrinter::Num(phase_seconds, 1)
            << "s per load phase\n";

  // Sealer: keeps paying the watched addresses so their tx counts move
  // and every poll round does fresh graph work (the monitoring
  // steady-state, not a warm-cache idle loop).
  std::atomic<bool> seal_stop{false};
  std::thread sealer([&] {
    ba::chain::Ledger* ledger = simulator.mutable_ledger();
    uint64_t sealed = 0;
    while (!seal_stop.load(std::memory_order_acquire)) {
      const ba::chain::Timestamp now =
          ledger->block(ledger->height() - 1).timestamp +
          ledger->options().block_interval_seconds;
      BA_CHECK_OK(
          ledger->ApplyCoinbase(now, watched[sealed % watched.size()].address)
              .status());
      BA_CHECK_OK(ledger->SealBlock(now));
      ++sealed;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<LoadResult> results;
  for (const int multiple : {1, 2, 4}) {
    const LoadResult r = RunPhase(engine.value().get(), watched, multiple,
                                  multiple * base_clients, phase_seconds);
    std::cout << "[" << multiple << "x] " << r.requests << " requests, "
              << r.admitted << " admitted, " << r.shed << " shed, "
              << r.lost << " lost | p50 "
              << ba::TablePrinter::Num(r.p50_admitted_s * 1e3, 2)
              << "ms p99 "
              << ba::TablePrinter::Num(r.p99_admitted_s * 1e3, 2)
              << "ms admitted, p99 "
              << ba::TablePrinter::Num(r.p99_shed_s * 1e3, 3)
              << "ms shed | "
              << ba::TablePrinter::Num(r.qps, 1) << " qps\n";
    results.push_back(r);
  }
  seal_stop.store(true, std::memory_order_release);
  sealer.join();

  const ba::serve::InferenceMetricsSnapshot m = engine.value()->Metrics();
  std::cout << "\n" << m.ToString();

  // --- Gates ----------------------------------------------------------
  const LoadResult& base = results.front();
  const LoadResult& peak = results.back();
  uint64_t total_lost = 0;
  for (const auto& r : results) total_lost += r.lost;
  const bool gate_lost = total_lost == 0;
  const bool gate_shed_fast = peak.shed == 0 || peak.p99_shed_s < 1e-3;
  const bool gate_p99 = base.admitted > 0 && peak.admitted > 0 &&
                        peak.p99_admitted_s <= 4.0 * base.p99_admitted_s;
  std::cout << "\n[gate] zero lost:        "
            << (gate_lost ? "PASS" : "FAIL") << " (" << total_lost
            << " lost)\n"
            << "[gate] shed p99 < 1ms:   "
            << (gate_shed_fast ? "PASS" : "FAIL") << " ("
            << ba::TablePrinter::Num(peak.p99_shed_s * 1e6, 1)
            << "us at 4x)\n"
            << "[gate] p99(4x) <= 4x p99(1x): "
            << (gate_p99 ? "PASS" : "FAIL") << " ("
            << ba::TablePrinter::Num(peak.p99_admitted_s * 1e3, 2)
            << "ms vs "
            << ba::TablePrinter::Num(base.p99_admitted_s * 1e3, 2)
            << "ms)\n";

  const std::string out_path =
      flags.GetString("out", "BENCH_overload.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << "{\"loads\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i) out << ",";
    out << results[i].ToJson();
  }
  out << "],\"gates\":{\"zero_lost\":" << (gate_lost ? "true" : "false")
      << ",\"shed_fast\":" << (gate_shed_fast ? "true" : "false")
      << ",\"p99_bounded\":" << (gate_p99 ? "true" : "false")
      << "},\"base_clients\":" << base_clients
      << ",\"phase_seconds\":" << phase_seconds
      << ",\"engine\":" << m.ToJson()
      << ",\"meta\":"
      << ba::bench::BenchMetaJson("serve_overload", engine_options.num_threads)
      << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return (gate_lost && gate_shed_fast && gate_p99) ? 0 : 1;
}
