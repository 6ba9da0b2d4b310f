// ba_serve: the network serving daemon.
//
// Simulates an economy, trains a classifier on it, then stands the
// whole serving stack up behind two TCP listeners:
//
//   data port   binary frame protocol (serve/protocol.h) dispatching
//               into InferenceEngine::ClassifyAsync — drive it with
//               net::Client or bench_net_loadgen
//   admin port  line commands: metrics / health / trace ... / quit
//
// The daemon runs until SIGINT/SIGTERM, an admin `quit`, or
// --duration seconds elapse, then drains in-flight requests and exits
// 0. With --seal-every-ms > 0 a background writer keeps sealing new
// blocks while queries run, so health's epoch watermark moves and
// clients exercise the serve-while-seal path.
//
// Build & run:  ./build/examples/ba_serve [--port 0] [--admin-port 0]
//     [--port-file /tmp/ba_serve.port] [--blocks 60] [--duration 0]
//     [--seal-every-ms 0] [--cache ''] [--admission 1]
//     [--flight-recorder 1024] [--slow-ms 0]
//
// One InferenceEngine answers every connection. Its sweep detector
// keys on the connection id: a connection whose answers keep missing
// the cache (a mixer_hunt-style scan) is served no-promote after 32
// consecutive misses, so it cannot evict the polling fleet's hot set
// (`serve.sweep.requests` in `metrics` counts those requests).
//
// --flight-recorder N keeps the last N request timelines queryable
// over the admin port (`slowlog`, `timeline <trace_id>`); --slow-ms T
// additionally copies requests at or past T milliseconds into a slow
// ring and logs each as one structured serve.slowlog line.
//
// With --port 0 the kernel picks ephemeral ports; --port-file writes
// "<data_port> <admin_port>\n" (atomic rename) once both listeners are
// bound — scripts poll that file instead of racing the bind.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "net/server.h"
#include "serve/inference_engine.h"
#include "util/cli.h"

namespace {

std::atomic<ba::net::Server*> g_server{nullptr};

void HandleSignal(int) {
  ba::net::Server* server = g_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);

  // --- Economy + trained classifier (small by default: a smoke-test
  // daemon should be serving within seconds). -------------------------
  ba::datagen::ScenarioConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 60));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());

  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/2);
  ba::Rng rng(config.seed);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

  ba::core::BaClassifier::Options options;
  options.dataset.construction.slice_size =
      static_cast<int>(flags.GetInt("slice", 20));
  options.graph_model.epochs = static_cast<int>(flags.GetInt("epochs", 2));
  options.aggregator.epochs =
      static_cast<int>(flags.GetInt("agg-epochs", 6));
  auto created = ba::core::BaClassifier::Create(options);
  BA_CHECK_OK(created.status());
  const auto classifier = std::move(created).value();
  BA_CHECK_OK(classifier->Train(simulator.ledger(), split.train));
  std::cout << "trained on " << split.train.size() << " addresses over "
            << simulator.ledger().height() << " blocks ("
            << simulator.ledger().num_addresses() << " addresses total)\n";

  // --- Engine. --------------------------------------------------------
  ba::serve::InferenceEngineOptions engine_options;
  engine_options.num_threads =
      static_cast<int>(flags.GetInt("threads", 2));
  engine_options.cache_path = flags.GetString("cache", "");
  engine_options.enable_admission = flags.GetBool("admission", true);
  engine_options.admission.max_inflight =
      flags.GetInt("max-inflight", 1024);
  engine_options.admission.high_watermark =
      flags.GetInt("high-watermark", 256);
  engine_options.admission.low_watermark =
      flags.GetInt("low-watermark", 64);
  engine_options.flight_recorder_capacity =
      static_cast<size_t>(flags.GetInt("flight-recorder", 1024));
  engine_options.slow_request_threshold =
      static_cast<double>(flags.GetInt("slow-ms", 0)) / 1000.0;
  auto created_engine = ba::serve::InferenceEngine::Create(
      classifier.get(), &simulator.ledger(), engine_options);
  BA_CHECK_OK(created_engine.status());
  const auto engine = std::move(created_engine).value();

  // --- Server. --------------------------------------------------------
  ba::net::ServerOptions server_options;
  server_options.port =
      static_cast<uint16_t>(flags.GetInt("port", 0));
  server_options.admin_port =
      static_cast<uint16_t>(flags.GetInt("admin-port", 0));
  server_options.idle_timeout_sec =
      static_cast<int>(flags.GetInt("idle-timeout", 0));
  auto server = ba::net::Server::Create(
      engine.get(), &simulator.ledger(), server_options);
  BA_CHECK_OK(server.status());
  BA_CHECK_OK(server.value()->Start());
  std::cout << "serving on 127.0.0.1:" << server.value()->port()
            << " (admin 127.0.0.1:" << server.value()->admin_port()
            << ", " << simulator.ledger().num_addresses()
            << " classifiable addresses)\n";

  // Port file: written via rename so a polling script never reads a
  // half-written line.
  const std::string port_file = flags.GetString("port-file", "");
  if (!port_file.empty()) {
    const std::string tmp = port_file + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << server.value()->port() << " "
          << server.value()->admin_port() << "\n";
    }
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::cerr << "failed to write port file " << port_file << "\n";
      return 1;
    }
  }

  g_server.store(server.value().get(), std::memory_order_relaxed);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Optional background writer: the ledger keeps growing while the
  // server answers, so clients see the epoch watermark advance.
  const int64_t seal_every_ms = flags.GetInt("seal-every-ms", 0);
  std::atomic<bool> sealer_stop{false};
  std::thread sealer;
  if (seal_every_ms > 0) {
    sealer = std::thread([&] {
      ba::chain::Ledger* ledger = simulator.mutable_ledger();
      ba::chain::Timestamp now =
          ledger->block(ledger->height() - 1).timestamp;
      ba::Rng pick(config.seed ^ 0xFEED);
      while (!sealer_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(seal_every_ms));
        now += ledger->options().block_interval_seconds;
        std::vector<ba::chain::AddressId> payouts;
        std::vector<double> weights;
        for (int i = 0; i < 3; ++i) {
          payouts.push_back(
              labeled[pick.UniformInt(
                          0, static_cast<int>(labeled.size()) - 1)]
                  .address);
          weights.push_back(1.0 / 3.0);
        }
        BA_CHECK_OK(ledger->ApplyCoinbase(now, payouts, weights).status());
        BA_CHECK_OK(ledger->SealBlock(now));
      }
    });
  }

  const int64_t duration_sec = flags.GetInt("duration", 0);
  std::atomic<bool> deadline_stop{false};
  std::thread deadline;
  if (duration_sec > 0) {
    deadline = std::thread([&] {
      const auto end = std::chrono::steady_clock::now() +
                       std::chrono::seconds(duration_sec);
      while (!deadline_stop.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (!deadline_stop.load(std::memory_order_relaxed)) {
        server.value()->RequestStop();
      }
    });
  }

  server.value()->Wait();  // SIGINT, admin quit, or --duration
  g_server.store(nullptr, std::memory_order_relaxed);
  sealer_stop.store(true, std::memory_order_relaxed);
  deadline_stop.store(true, std::memory_order_relaxed);
  if (sealer.joinable()) sealer.join();
  if (deadline.joinable()) deadline.join();
  server.value()->Stop();  // drain in-flight classifies

  if (!engine_options.cache_path.empty()) {
    BA_CHECK_OK(engine->SaveCache());
  }
  const auto m = engine->Metrics();
  std::cout << "served " << m.requests << " requests (" << m.shed
            << " shed, " << m.deadline_exceeded << " deadline-exceeded, "
            << m.slow_requests << " slow), hit rate "
            << static_cast<int>(m.hit_rate * 100.0 + 0.5) << "%\n"
            << "clean shutdown\n";
  return 0;
}
