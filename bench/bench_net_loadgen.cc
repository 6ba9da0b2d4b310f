// Network loadgen: drives the ba_serve front end the way a monitoring
// fleet would, and proves the wire adds little over the in-process
// engine.
//
// Phases (self-contained mode — builds its own economy + server):
//
//   inproc    InferenceEngine::Classify from --clients threads over
//             --rounds polling rounds, cold cache — the exact
//             measurement bench_serve_throughput's engine phase makes,
//             giving the qps baseline the wire is held against
//   net       a fleet of --connections blocking net::Client loops over
//             loopback TCP; gate: >= 80% of the in-process qps
//   churn     connect / one query / disconnect cycles (accept path,
//             teardown path, fd reuse)
//   overload  a second engine with tight admission watermarks behind
//             its own server, flooded by pipelined loader connections
//             to >= 4x its admitted capacity (verified by measurement)
//             while the batch pipeline is artificially slowed; its
//             one-entry cache keeps every request a miss, since cache
//             hits are answered at submit and never reach that
//             pipeline — probe
//             threads check shed answers come back fast (p99 < 5ms),
//             which is the whole point of admission control reaching
//             the socket layer
//   abuse     malformed-frame probes (bad magic, wrong version, CRC
//             flip, oversized length, truncation, slow-loris) — every
//             case must answer a descriptive error or close cleanly,
//             never hang, and the server must keep serving afterwards
//
// With --connect <port> the fleet/churn/abuse phases run against an
// external ba_serve instead (no baseline, no overload — those need
// in-process state); this is what `scripts/check.sh net` does.
//
// "Lost" counts transport failures only — refused connects, resets,
// read timeouts (a hung server). Application answers (shed, invalid
// address) rode the wire fine and count as served.
//
// Writes BENCH_net.json (--out) with per-phase numbers, gate verdicts
// and the standard provenance meta. Exit code 0 iff every applicable
// gate passed.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/classifier.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/inference_engine.h"
#include "util/fs.h"

namespace {

constexpr const char* kHost = "127.0.0.1";

struct PhaseStats {
  double qps = 0.0;
  std::vector<double> latencies;  // seconds, answered requests only
  uint64_t ok = 0;
  uint64_t shed = 0;
  /// Transport-level failures: refused connects, resets, timeouts —
  /// the "lost or hung" count the acceptance gate wants at zero.
  uint64_t lost = 0;
};

/// Samples that must lie beyond a reported percentile — bench_profile's
/// rule: below it, the "p99" of a few hundred samples is just one of
/// the largest values, which says nothing about a tail.
constexpr size_t kMinBeyond = 10;

/// Nearest-rank `p`-th percentile of `lat` (seconds) in milliseconds,
/// or nullopt when fewer than kMinBeyond samples lie beyond its rank.
std::optional<double> PercentileMs(std::vector<double>* lat, double p) {
  const size_t n = lat->size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))), 1,
      std::max<size_t>(n, 1));
  if (n == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(lat->begin(), lat->begin() + static_cast<long>(rank - 1),
                   lat->end());
  return (*lat)[rank - 1] * 1e3;
}

/// A percentile for the console: "n/a (N samples)" when unsupported.
std::string ShowMs(const std::optional<double>& ms, size_t samples) {
  if (!ms) return "n/a (" + std::to_string(samples) + " samples)";
  return ba::TablePrinter::Num(*ms, 2) + "ms";
}

/// A percentile for the JSON: null when unsupported.
std::string JsonMs(const std::optional<double>& ms) {
  return ms ? std::to_string(*ms) : "null";
}

bool IsTransportFailure(const ba::Status& status) {
  // DeadlineExceeded here means the client's recv timeout fired (the
  // fleet sets no request deadlines) — i.e. the server hung.
  return status.code() == ba::StatusCode::kDeadlineExceeded ||
         status.code() == ba::StatusCode::kInternal;
}

/// Closed-loop fleet over TCP: every thread owns one connection and
/// issues back-to-back queries until the deadline. Addresses come from
/// `pool` when non-empty (all known-classifiable), else round-robin
/// over [0, address_max).
PhaseStats RunNetFleet(uint16_t port, int connections, double seconds,
                       const std::vector<uint64_t>& pool,
                       uint64_t address_max) {
  PhaseStats stats;
  std::vector<std::thread> workers;
  std::vector<PhaseStats> per_thread(static_cast<size_t>(connections));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      PhaseStats& mine = per_thread[static_cast<size_t>(c)];
      auto client = ba::net::Client::Connect(kHost, port);
      if (!client.ok()) {
        ++mine.lost;
        return;
      }
      uint64_t i = static_cast<uint64_t>(c);
      while (std::chrono::steady_clock::now() < deadline) {
        const uint64_t address =
            pool.empty() ? i % address_max : pool[i % pool.size()];
        i += 13;
        // Every bench request carries trace context, so the measured
        // qps includes the v2 wire fields, per-request timelines and
        // flight-recorder writes — the always-on cost this benchmark
        // gates.
        ba::serve::ClassifyOptions copts;
        copts.trace_id = (static_cast<uint64_t>(c) + 1) << 32 | (i & 0xFFFFFFFF);
        const auto start = std::chrono::steady_clock::now();
        const auto result = client.value().Classify(address, copts);
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (result.ok()) {
          ++mine.ok;
          mine.latencies.push_back(elapsed);
        } else if (result.status().code() ==
                   ba::StatusCode::kResourceExhausted) {
          ++mine.shed;
          mine.latencies.push_back(elapsed);
        } else if (IsTransportFailure(result.status())) {
          ++mine.lost;  // the connection is useless now
          return;
        } else {
          ++mine.ok;  // app-level answer (e.g. unknown address)
          mine.latencies.push_back(elapsed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (auto& t : per_thread) {
    stats.ok += t.ok;
    stats.shed += t.shed;
    stats.lost += t.lost;
    stats.latencies.insert(stats.latencies.end(), t.latencies.begin(),
                           t.latencies.end());
  }
  stats.qps = static_cast<double>(stats.ok + stats.shed) / seconds;
  return stats;
}

struct OverloadResult {
  /// Probe-observed shed latencies, seconds. Probes are a handful of
  /// closed-loop threads, so the numbers measure the server's
  /// rejection path — not the scheduler queueing that hundreds of
  /// client threads would add on a small machine.
  std::vector<double> shed_latencies;
  uint64_t offered = 0;   // requests answered (any code)
  uint64_t admitted = 0;  // ok answers
  uint64_t shed = 0;
  uint64_t lost = 0;
};

/// Floods the server far past its admission capacity: a few loader
/// threads each cycle a set of pipelined connections (send a window,
/// drain a window), while probe threads measure how fast sheds come
/// back. Overload is verified by measurement — offered/admitted is
/// reported and gated at >= 4x.
OverloadResult RunOverload(uint16_t port, int background_conns,
                           double seconds,
                           const std::vector<uint64_t>& pool) {
  constexpr int kLoaderThreads = 2;
  constexpr int kProbeThreads = 2;
  constexpr int kWindow = 2;  // pipelined requests per conn per cycle
  OverloadResult result;
  std::atomic<uint64_t> offered{0}, admitted{0}, shed{0}, lost{0};
  std::vector<std::vector<double>> probe_lat(
      static_cast<size_t>(kProbeThreads));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));

  std::vector<std::thread> workers;
  for (int t = 0; t < kLoaderThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<ba::net::Client> conns;
      const int mine = background_conns / kLoaderThreads;
      for (int c = 0; c < mine; ++c) {
        auto client = ba::net::Client::Connect(kHost, port);
        if (!client.ok()) {
          lost.fetch_add(1);
          continue;
        }
        conns.push_back(std::move(client).value());
      }
      uint64_t i = static_cast<uint64_t>(t);
      uint64_t id = 1;
      while (std::chrono::steady_clock::now() < deadline &&
             !conns.empty()) {
        for (size_t c = 0; c < conns.size(); ++c) {
          for (int w = 0; w < kWindow; ++w) {
            if (!conns[c].Send(id++, pool[i % pool.size()]).ok()) {
              lost.fetch_add(1);
              conns.erase(conns.begin() + static_cast<long>(c--));
              break;
            }
            i += 7;
          }
        }
        for (size_t c = 0; c < conns.size(); ++c) {
          for (int w = 0; w < kWindow; ++w) {
            const auto resp = conns[c].ReadResponse();
            if (!resp.ok()) {
              lost.fetch_add(1);
              conns.erase(conns.begin() + static_cast<long>(c--));
              break;
            }
            offered.fetch_add(1);
            if (resp.value().ToResult().ok()) {
              admitted.fetch_add(1);
            } else if (resp.value().ToResult().status().code() ==
                       ba::StatusCode::kResourceExhausted) {
              shed.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (int p = 0; p < kProbeThreads; ++p) {
    workers.emplace_back([&, p] {
      auto client = ba::net::Client::Connect(kHost, port);
      if (!client.ok()) {
        lost.fetch_add(1);
        return;
      }
      uint64_t i = static_cast<uint64_t>(p);
      while (std::chrono::steady_clock::now() < deadline) {
        const auto start = std::chrono::steady_clock::now();
        const auto r = client.value().Classify(pool[i % pool.size()]);
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        i += 7;
        if (r.ok()) {
          offered.fetch_add(1);
          admitted.fetch_add(1);
        } else if (r.status().code() ==
                   ba::StatusCode::kResourceExhausted) {
          offered.fetch_add(1);
          shed.fetch_add(1);
          probe_lat[static_cast<size_t>(p)].push_back(elapsed);
        } else if (IsTransportFailure(r.status())) {
          lost.fetch_add(1);
          return;
        } else {
          offered.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (auto& v : probe_lat) {
    result.shed_latencies.insert(result.shed_latencies.end(), v.begin(),
                                 v.end());
  }
  result.offered = offered.load();
  result.admitted = admitted.load();
  result.shed = shed.load();
  result.lost = lost.load();
  return result;
}

/// One abuse probe. Returns true when the server behaved: answered an
/// error frame or closed — anything but a hang — and still serves a
/// well-formed request on a fresh connection afterwards.
bool AbuseCase(const std::string& name, uint16_t port,
               uint64_t good_address,
               const std::function<ba::Status(ba::net::Client*)>& probe) {
  auto victim = ba::net::Client::Connect(kHost, port, /*timeout=*/5.0);
  if (!victim.ok()) {
    std::cout << "  [abuse] " << name << ": connect failed: "
              << victim.status().message() << "\n";
    return false;
  }
  const ba::Status sent = probe(&victim.value());
  if (!sent.ok()) {
    std::cout << "  [abuse] " << name << ": probe send failed: "
              << sent.message() << "\n";
    return false;
  }
  // Whatever comes back must come back *promptly*: an error response,
  // a clean close, or — for probes that stay syntactically valid — a
  // real answer. The 5s read timeout is the hang detector.
  const auto answer = victim.value().ReadResponse();
  if (!answer.ok() &&
      answer.status().code() == ba::StatusCode::kDeadlineExceeded) {
    std::cout << "  [abuse] " << name
              << ": server hung (no reply within 5s)\n";
    return false;
  }
  // The server must survive the probe.
  auto after = ba::net::Client::Connect(kHost, port, /*timeout=*/5.0);
  if (!after.ok() || !after.value().Classify(good_address).ok()) {
    std::cout << "  [abuse] " << name
              << ": server no longer answers well-formed requests\n";
    return false;
  }
  std::cout << "  [abuse] " << name << ": ok ("
            << (answer.ok() ? "answered" : answer.status().message())
            << ")\n";
  return true;
}

int RunAbuseSuite(uint16_t port, uint64_t good_address) {
  using ba::net::Client;
  using ba::serve::EncodeFrame;
  using ba::serve::MessageType;
  int failures = 0;

  // A valid frame to mutate.
  ba::serve::ClassifyRequest req;
  req.request_id = 7;
  req.address = good_address;
  const std::string valid = EncodeFrame(
      MessageType::kClassifyRequest,
      req.EncodePayload(std::chrono::steady_clock::now()));

  failures += !AbuseCase("bad-magic", port, good_address, [](Client* c) {
    return c->SendRaw("NOPE0123456789abcdef");
  });
  failures += !AbuseCase("wrong-version", port, good_address,
                         [&valid](Client* c) {
                           std::string f = valid;
                           f[4] = char(0x77);  // version word
                           f[5] = char(0x77);
                           return c->SendRaw(f);
                         });
  failures += !AbuseCase("crc-flip", port, good_address,
                         [&valid](Client* c) {
                           std::string f = valid;
                           f.back() = static_cast<char>(f.back() ^ 0x5A);
                           return c->SendRaw(f);
                         });
  failures += !AbuseCase(
      "oversized-length", port, good_address, [](Client* c) {
        std::string f("BANP", 4);
        const uint16_t version = ba::serve::kWireVersion;
        const uint16_t type = 1;
        const uint32_t huge = 64u << 20;  // 64MiB claim
        f.append(reinterpret_cast<const char*>(&version), 2);
        f.append(reinterpret_cast<const char*>(&type), 2);
        f.append(reinterpret_cast<const char*>(&huge), 4);
        return c->SendRaw(f);
      });
  failures += !AbuseCase("truncated-then-eof", port, good_address,
                         [&valid](Client* c) {
                           BA_RETURN_NOT_OK(c->SendRaw(
                               std::string_view(valid).substr(
                                   0, valid.size() / 2)));
                           return c->ShutdownWrite();
                         });
  failures += !AbuseCase("slow-loris-completes", port, good_address,
                         [&valid](Client* c) {
                           // One byte at a time: the reassembler must
                           // still produce the frame, and the answer
                           // must be a real classification.
                           for (char b : valid) {
                             BA_RETURN_NOT_OK(
                                 c->SendRaw(std::string_view(&b, 1)));
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(200));
                           }
                           return ba::Status::OK();
                         });
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  ba::CliFlags flags(argc, argv);
  const int threads = ba::bench::ThreadsFlag(flags);
  const int connections =
      static_cast<int>(flags.GetInt("connections", 64));
  const double seconds = flags.GetDouble("seconds", 2.0);
  const double overload_seconds =
      flags.GetDouble("overload-seconds", 1.5);
  const int churn_rounds =
      static_cast<int>(flags.GetInt("churn-rounds", 200));
  const std::string out_path = flags.GetString("out", "BENCH_net.json");
  const int engine_threads =
      static_cast<int>(flags.GetInt("engine-threads", 2));

  const bool external = flags.Has("connect");
  uint16_t data_port = static_cast<uint16_t>(flags.GetInt("connect", 0));
  uint64_t address_max =
      static_cast<uint64_t>(flags.GetInt("address-max", 200));

  // Self-contained mode: economy, classifier, engine, server — the
  // same shape bench_serve_throughput builds, so the baseline is the
  // same measurement.
  std::unique_ptr<ba::datagen::Simulator> simulator;
  std::unique_ptr<ba::core::BaClassifier> classifier;
  std::unique_ptr<ba::serve::InferenceEngine> engine;
  std::unique_ptr<ba::net::Server> server;
  double inproc_qps = 0.0;
  std::vector<uint64_t> pool;

  if (!external) {
    ba::datagen::ScenarioConfig config =
        ba::bench::ScenarioFromFlags(flags, threads);
    config.num_blocks = static_cast<int>(flags.GetInt("blocks", 120));
    simulator = std::make_unique<ba::datagen::Simulator>(config);
    BA_CHECK_OK(simulator->Run());
    auto labeled = simulator->CollectLabeledAddresses(/*min_txs=*/3);
    ba::Rng rng(config.seed ^ 0xBEEF);
    labeled = ba::datagen::StratifiedSample(
        labeled, flags.GetInt("addresses", 200), &rng);
    const auto split = ba::datagen::StratifiedSplit(labeled, 0.8, &rng);

    ba::core::BaClassifier::Options options;
    options.dataset = ba::bench::DatasetOptionsFromFlags(flags, threads);
    options.dataset.construction.slice_size =
        static_cast<int>(flags.GetInt("slice", 20));
    options.graph_model.k_hops = options.dataset.k_hops;
    options.graph_model.epochs =
        static_cast<int>(flags.GetInt("epochs", 4));
    options.aggregator.epochs =
        static_cast<int>(flags.GetInt("agg_epochs", 8));
    auto created = ba::core::BaClassifier::Create(options);
    BA_CHECK_OK(created.status());
    classifier = std::move(created).value();
    BA_CHECK_OK(classifier->Train(simulator->ledger(), split.train));
    for (const auto& w : split.test) pool.push_back(w.address);
    address_max = simulator->ledger().num_addresses();
    std::cout << "[setup] " << simulator->ledger().num_addresses()
              << " addresses, " << pool.size() << " watched\n";

    ba::serve::InferenceEngineOptions engine_options;
    engine_options.num_threads = engine_threads;
    auto made = ba::serve::InferenceEngine::Create(
        classifier.get(), &simulator->ledger(), engine_options);
    BA_CHECK_OK(made.status());
    engine = std::move(made).value();

    // --- Phase: in-process baseline — bench_serve_throughput's engine
    // measurement reproduced on a cold cache: --clients threads split
    // --rounds polling rounds over the watched set. ---------------------
    const int clients = static_cast<int>(flags.GetInt("clients", 4));
    const int rounds = static_cast<int>(flags.GetInt("rounds", 5));
    {
      ba::Stopwatch watch;
      watch.Start();
      std::vector<std::thread> workers;
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          for (int r = c; r < rounds; r += clients) {
            for (const uint64_t address : pool) {
              BA_CHECK_OK(engine->Classify(address).status());
            }
          }
        });
      }
      for (auto& w : workers) w.join();
      watch.Stop();
      inproc_qps = static_cast<double>(pool.size()) * rounds /
                   watch.ElapsedSeconds();
      std::cout << "[inproc] " << ba::TablePrinter::Num(inproc_qps, 1)
                << " qps (" << clients << " clients, " << rounds
                << " rounds, cold cache)\n";
    }
    engine->ClearCache();  // the net fleet re-earns its cache hits

    auto made_server =
        ba::net::Server::Create(engine.get(), &simulator->ledger(), {});
    BA_CHECK_OK(made_server.status());
    server = std::move(made_server).value();
    BA_CHECK_OK(server->Start());
    data_port = server->port();
    std::cout << "[setup] server on port " << data_port << "\n";
  }

  // --- Phase: closed-loop net fleet. ------------------------------------
  PhaseStats net =
      RunNetFleet(data_port, connections, seconds, pool, address_max);
  {
    std::cout << "[net] " << ba::TablePrinter::Num(net.qps, 1)
              << " qps, " << net.ok << " ok / " << net.shed << " shed / "
              << net.lost << " lost, p99 "
              << ShowMs(PercentileMs(&net.latencies, 99.0),
                        net.latencies.size());
    if (inproc_qps > 0) {
      std::cout << " ("
                << ba::TablePrinter::Num(100.0 * net.qps / inproc_qps, 1)
                << "% of in-process)";
    }
    std::cout << "\n";
  }

  // --- Phase: connection churn. -----------------------------------------
  uint64_t churn_failures = 0;
  {
    const int churn_threads = std::min(connections, 16);
    std::vector<std::thread> workers;
    std::atomic<uint64_t> failures{0};
    for (int t = 0; t < churn_threads; ++t) {
      workers.emplace_back([&, t] {
        for (int r = t; r < churn_rounds; r += churn_threads) {
          auto client = ba::net::Client::Connect(kHost, data_port);
          if (!client.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const uint64_t address =
              pool.empty() ? static_cast<uint64_t>(r) % address_max
                           : pool[static_cast<size_t>(r) % pool.size()];
          const auto result = client.value().Classify(address);
          if (!result.ok() && IsTransportFailure(result.status())) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    churn_failures = failures.load();
    std::cout << "[churn] " << churn_rounds
              << " connect/query/close rounds, " << churn_failures
              << " failures\n";
  }

  // --- Phase: overload against a tight-admission server. ----------------
  OverloadResult overload;
  double overload_factor = 0.0;
  std::optional<double> shed_p50_ms;
  std::optional<double> shed_p99_ms;
  if (!external) {
    ba::serve::InferenceEngineOptions tight;
    tight.num_threads = 2;
    tight.enable_admission = true;
    tight.admission.max_inflight = 64;
    tight.admission.high_watermark = 3;
    tight.admission.low_watermark = 1;
    // Only misses reach the slowed pipeline; with one entry the cache
    // holds none of the pool's addresses when they come round again.
    tight.cache_capacity = 1;
    auto made = ba::serve::InferenceEngine::Create(
        classifier.get(), &simulator->ledger(), tight);
    BA_CHECK_OK(made.status());
    auto overload_engine = std::move(made).value();
    auto made_server = ba::net::Server::Create(
        overload_engine.get(), &simulator->ledger(), {});
    BA_CHECK_OK(made_server.status());
    auto overload_server = std::move(made_server).value();
    BA_CHECK_OK(overload_server->Start());

    // Stall the batch pipeline so the backlog outruns the watermark —
    // the admission controller, not queueing, must answer the flood.
    ba::util::FaultInjector::Instance().ArmLatency(
        ba::serve::InferenceEngine::kFaultBatchBuild, 0.02);
    overload = RunOverload(overload_server->port(), connections,
                           overload_seconds, pool);
    ba::util::FaultInjector::Instance().DisarmAll();
    overload_server->Stop();

    overload_factor =
        overload.admitted > 0
            ? static_cast<double>(overload.offered) /
                  static_cast<double>(overload.admitted)
            : static_cast<double>(overload.offered);
    shed_p50_ms = PercentileMs(&overload.shed_latencies, 50.0);
    shed_p99_ms = PercentileMs(&overload.shed_latencies, 99.0);
    std::cout << "[overload] " << overload.offered << " offered / "
              << overload.admitted << " admitted ("
              << ba::TablePrinter::Num(overload_factor, 1)
              << "x capacity), " << overload.shed << " shed, probe p50 "
              << ShowMs(shed_p50_ms, overload.shed_latencies.size())
              << " / p99 "
              << ShowMs(shed_p99_ms, overload.shed_latencies.size()) << ", "
              << overload.lost << " lost\n";
  }

  // --- Phase: malformed-frame abuse. ------------------------------------
  const uint64_t good_address = pool.empty() ? 0 : pool.front();
  const int abuse_failures = RunAbuseSuite(data_port, good_address);
  std::cout << "[abuse] 6 cases, " << abuse_failures << " failures\n";

  if (server != nullptr) server->Stop();

  // --- Gates + JSON. -----------------------------------------------------
  const double qps_ratio = inproc_qps > 0 ? net.qps / inproc_qps : 0.0;
  const bool gate_ratio = external || qps_ratio >= 0.8;
  const bool gate_shed =
      external || (overload.shed > 0 && overload_factor >= 4.0 &&
                   shed_p99_ms && *shed_p99_ms < 5.0);
  const bool gate_lost =
      net.lost == 0 && churn_failures == 0 && overload.lost == 0;
  const bool gate_abuse = abuse_failures == 0;
  const bool all_ok = gate_ratio && gate_shed && gate_lost && gate_abuse;

  std::ofstream out(out_path, std::ios::trunc);
  out << "{\"mode\":\"" << (external ? "external" : "self_contained")
      << "\",\"connections\":" << connections
      << ",\"seconds\":" << seconds << ",\"inproc_qps\":" << inproc_qps
      << ",\"net_qps\":" << net.qps << ",\"qps_ratio\":" << qps_ratio
      << ",\"net_ok\":" << net.ok << ",\"net_shed\":" << net.shed
      << ",\"net_p50_ms\":" << JsonMs(PercentileMs(&net.latencies, 50.0))
      << ",\"net_p99_ms\":" << JsonMs(PercentileMs(&net.latencies, 99.0))
      << ",\"churn_rounds\":" << churn_rounds
      << ",\"churn_failures\":" << churn_failures
      << ",\"overload_offered\":" << overload.offered
      << ",\"overload_admitted\":" << overload.admitted
      << ",\"overload_factor\":" << overload_factor
      << ",\"overload_shed\":" << overload.shed
      << ",\"shed_p50_ms\":" << JsonMs(shed_p50_ms)
      << ",\"shed_p99_ms\":" << JsonMs(shed_p99_ms)
      << ",\"lost_connections\":"
      << (net.lost + churn_failures + overload.lost)
      << ",\"abuse_failures\":" << abuse_failures
      << ",\"gates\":{\"qps_ratio_ok\":"
      << (gate_ratio ? "true" : "false")
      << ",\"shed_p99_ok\":" << (gate_shed ? "true" : "false")
      << ",\"zero_lost_ok\":" << (gate_lost ? "true" : "false")
      << ",\"abuse_ok\":" << (gate_abuse ? "true" : "false")
      << ",\"all_ok\":" << (all_ok ? "true" : "false") << "}";
  if (engine != nullptr) {
    out << ",\"engine\":" << engine->Metrics().ToJson();
  }
  out << ",\"meta\":" << ba::bench::BenchMetaJson("net_loadgen", engine_threads)
      << "}\n";
  std::cout << "\nwrote " << out_path
            << (all_ok ? " (all gates ok)\n" : " (GATE FAILURE)\n");
  return all_ok ? 0 : 1;
}
