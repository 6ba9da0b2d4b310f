// Serve monitor: a miniature production deployment of BAClassifier.
//
// 1. Simulate an economy and train a classifier on it.
// 2. Stand up an InferenceEngine (micro-batching + incremental cache).
// 3. Stream new blocks into the ledger; after each block, concurrent
//    monitoring clients re-classify every watched address. Repeat
//    queries hit the cache; addresses that gained transactions rebuild
//    only their tail slices.
// 4. Persist the cache after every block (crash-safe) and print the
//    engine's metrics snapshot as the stream progresses.
// 5. On exit, write a Perfetto-loadable trace of the whole run
//    (--trace-out, default /tmp/ba_serve_monitor_trace.json) — open it
//    at https://ui.perfetto.dev to see training epochs, serve batches
//    and thread-pool tasks on their timelines.
//
// Build & run:  ./build/examples/serve_monitor [--blocks 150]
//     [--stream 12] [--clients 3] [--cache /tmp/ba_serve_cache.basv]
//     [--trace-out /tmp/trace.json] [--admin <port>]
//     [--deadline-ms 0] [--overload 1]
//
// With --admin <port> the monitor exposes the net admin line protocol
// (metrics / health / trace / quit) while the stream runs; scrape it
// from another shell with the one-shot subcommand:
//
//     serve_monitor scrape --admin <port> [--cmd metrics]
//
// and pull the engine's flight recorder with the slowlog subcommand:
//
//     serve_monitor slowlog --admin <port> [--n 32]
//     serve_monitor slowlog --admin <port> --trace-id 0xdeadbeef
//
// which print one JSON line — the slow-request ring plus the most
// recent timelines, or (with --trace-id) the recorded timeline of one
// request.
//
// Resilience knobs: --deadline-ms gives every monitoring query a
// deadline (answers past it come back stale-but-labeled, since the
// monitor prefers a lagged answer over none); --overload N multiplies
// the client fleet N-fold and enables admission control, so the sweep
// demonstrates watermark shedding instead of unbounded queueing —
// watch the "resilience" line of the final metrics snapshot.

#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/inference_engine.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);

  // One-shot scrape subcommand: connect to a running monitor's (or
  // ba_serve's) admin port, send one command, print the reply line.
  if (argc > 1 && std::string(argv[1]) == "scrape") {
    const int port = static_cast<int>(flags.GetInt("admin", 0));
    if (port <= 0) {
      std::cerr << "usage: serve_monitor scrape --admin <port> "
                   "[--host 127.0.0.1] [--cmd metrics]\n";
      return 2;
    }
    const auto reply = ba::net::Client::AdminCommand(
        flags.GetString("host", "127.0.0.1"), static_cast<uint16_t>(port),
        flags.GetString("cmd", "metrics"));
    if (!reply.ok()) {
      std::cerr << "scrape failed: " << reply.status().message() << "\n";
      return 1;
    }
    std::cout << reply.value() << "\n";
    return 0;
  }

  // One-shot slowlog subcommand: pull the serving daemon's flight
  // recorder (or one request's timeline) over the admin port.
  if (argc > 1 && std::string(argv[1]) == "slowlog") {
    const int port = static_cast<int>(flags.GetInt("admin", 0));
    if (port <= 0) {
      std::cerr << "usage: serve_monitor slowlog --admin <port> "
                   "[--host 127.0.0.1] [--n 32] [--trace-id <id>]\n";
      return 2;
    }
    const std::string trace_id = flags.GetString("trace-id", "");
    const std::string command =
        trace_id.empty()
            ? "slowlog " + std::to_string(flags.GetInt("n", 32))
            : "timeline " + trace_id;
    const auto reply = ba::net::Client::AdminCommand(
        flags.GetString("host", "127.0.0.1"), static_cast<uint16_t>(port),
        command);
    if (!reply.ok()) {
      std::cerr << "slowlog failed: " << reply.status().message() << "\n";
      return 1;
    }
    std::cout << reply.value() << "\n";
    return 0;
  }

  // Tracing covers everything from training to the final query; the
  // trace is saved when the process exits.
  const std::string trace_out =
      flags.GetString("trace-out", "/tmp/ba_serve_monitor_trace.json");
  if (!trace_out.empty()) {
    ba::obs::Tracer::Instance().Enable();
    ba::obs::Tracer::Instance().SetCurrentThreadName("serve_monitor.main");
    ba::obs::Tracer::Instance().SaveAtExit(trace_out);
  }

  // --- 1. Economy + trained classifier. ------------------------------
  ba::datagen::ScenarioConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  config.num_blocks = static_cast<int>(flags.GetInt("blocks", 150));
  ba::datagen::Simulator simulator(config);
  BA_CHECK_OK(simulator.Run());

  auto labeled = simulator.CollectLabeledAddresses(/*min_txs=*/3);
  ba::Rng rng(config.seed);
  const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

  // One lane count for training and the engine's pool; any lane count
  // trains the same model (DESIGN.md §7).
  const int threads = static_cast<int>(flags.GetInt("threads", 2));
  ba::core::BaClassifier::Options options;
  options.dataset.construction.slice_size =
      static_cast<int>(flags.GetInt("slice", 20));
  options.graph_model.epochs = static_cast<int>(flags.GetInt("epochs", 6));
  options.graph_model.num_threads = threads;
  options.aggregator.epochs = 12;
  auto created = ba::core::BaClassifier::Create(options);
  BA_CHECK_OK(created.status());
  const auto classifier = std::move(created).value();
  BA_CHECK_OK(classifier->Train(simulator.ledger(), split.train));
  std::cout << "trained on " << split.train.size() << " addresses over "
            << simulator.ledger().height() << " blocks\n";

  // --- 2. The serving engine. ----------------------------------------
  const int overload = static_cast<int>(flags.GetInt("overload", 1));
  const int64_t deadline_ms = flags.GetInt("deadline-ms", 0);
  ba::serve::InferenceEngineOptions engine_options;
  engine_options.num_threads = threads;
  engine_options.cache_path =
      flags.GetString("cache", "/tmp/ba_serve_cache.basv");
  if (overload > 1) {
    // Overload drill: bound the backlog so the multiplied fleet is
    // shed fast instead of queueing behind the sweep.
    engine_options.enable_admission = true;
    engine_options.admission.high_watermark = 8;
    engine_options.admission.low_watermark = 2;
  }
  auto engine = ba::serve::InferenceEngine::Create(
      classifier.get(), &simulator.ledger(), engine_options);
  BA_CHECK_OK(engine.status());
  std::cout << "engine up (cache " << engine_options.cache_path << ", "
            << engine.value()->CacheSize() << " entries warm)\n";

  // --admin <port>: expose the admin line protocol while the stream
  // runs (0 picks an ephemeral port, printed below).
  std::unique_ptr<ba::net::Server> admin_server;
  if (flags.Has("admin")) {
    ba::net::ServerOptions server_options;
    server_options.admin_port =
        static_cast<uint16_t>(flags.GetInt("admin", 0));
    auto made = ba::net::Server::Create(
        engine.value().get(), &simulator.ledger(), server_options);
    BA_CHECK_OK(made.status());
    admin_server = std::move(made).value();
    BA_CHECK_OK(admin_server->Start());
    std::cout << "admin on 127.0.0.1:" << admin_server->admin_port()
              << " — scrape with: serve_monitor scrape --admin "
              << admin_server->admin_port() << "\n";
  }

  std::cout << "\n";

  // --- 3. Stream blocks, poll watched addresses each block. -----------
  const auto& watched = split.test;
  const int stream_blocks = static_cast<int>(flags.GetInt("stream", 12));
  const int clients =
      static_cast<int>(flags.GetInt("clients", 3)) * overload;
  ba::chain::Ledger* ledger = simulator.mutable_ledger();
  ba::chain::Timestamp now = ledger->block(ledger->height() - 1).timestamp;
  ba::Rng pick(config.seed ^ 0xFEED);

  for (int b = 0; b < stream_blocks; ++b) {
    // A new block arrives *while* the monitoring clients sweep: the
    // engine pins a ledger snapshot per micro-batch, so sealing needs
    // no quiescing — each query is answered at the epoch just before
    // or just after the seal, whichever its batch pinned.
    now += ledger->options().block_interval_seconds;
    std::vector<ba::chain::AddressId> payouts;
    std::vector<double> weights;
    for (int i = 0; i < 3; ++i) {
      payouts.push_back(
          watched[pick.UniformInt(0, static_cast<int>(watched.size()) - 1)]
              .address);
      weights.push_back(1.0 / 3.0);
    }
    std::thread sealer([&] {
      BA_CHECK_OK(ledger->ApplyCoinbase(now, payouts, weights).status());
      BA_CHECK_OK(ledger->SealBlock(now));
    });

    // Monitoring clients sweep the watch list concurrently. With a
    // deadline set, a query that can't finish in time falls back to the
    // last cached epoch (degraded, labeled with its lag); under an
    // overload drill, shed queries are an expected, explicit outcome.
    std::vector<std::thread> sweep;
    sweep.reserve(static_cast<size_t>(clients));
    std::atomic<uint64_t> swept{0};
    std::atomic<uint64_t> lagged{0};
    std::atomic<uint64_t> rejected{0};
    for (int c = 0; c < clients; ++c) {
      sweep.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < watched.size();
             i += static_cast<size_t>(clients)) {
          ba::serve::ClassifyOptions copts;
          if (deadline_ms > 0) {
            copts = ba::serve::ClassifyOptions::WithTimeout(
                static_cast<double>(deadline_ms) * 1e-3);
            copts.allow_degraded = true;
          }
          const auto result =
              engine.value()->Classify(watched[i].address, copts);
          if (result.ok()) {
            swept.fetch_add(1);
            if (result.value().degraded) lagged.fetch_add(1);
          } else if (result.status().code() ==
                         ba::StatusCode::kResourceExhausted ||
                     result.status().code() ==
                         ba::StatusCode::kDeadlineExceeded) {
            rejected.fetch_add(1);
          } else {
            BA_CHECK_OK(result.status());
          }
        }
      });
    }
    sealer.join();
    for (auto& t : sweep) t.join();
    if (lagged > 0 || rejected > 0) {
      std::cout << "  sweep: " << swept << " answered (" << lagged
                << " degraded), " << rejected << " rejected\n";
    }
    BA_CHECK_OK(engine.value()->SaveCache());

    const auto m = engine.value()->Metrics();
    std::cout << "block " << ledger->height() << ": " << m.requests
              << " queries served, hit rate "
              << static_cast<int>(m.hit_rate * 100.0 + 0.5) << "%, p99 "
              << ba::obs::FormatSeconds(m.request_latency.p99_seconds)
              << "\n";
  }

  // --- 4. Final metrics snapshot. -------------------------------------
  if (admin_server != nullptr) admin_server->Stop();
  std::cout << "\n" << engine.value()->Metrics().ToString();
  if (!trace_out.empty()) {
    std::cout << "\ntrace will be saved to " << trace_out
              << " (open in https://ui.perfetto.dev)\n";
  }
  return 0;
}
