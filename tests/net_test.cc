// End-to-end tests for the network serving front end: a real Server
// on ephemeral ports, real blocking Clients over loopback. Covers
// wire-vs-in-process answer equivalence, pipelined correlation ids,
// the admin line protocol, protocol-violation goodbyes (one kError
// frame, then close), shedding under an admission-controlled engine,
// concurrent connections, sweep detection keyed on the connection, and
// clean Stop with requests in flight.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/inference_engine.h"
#include "util/fs.h"
#include "util/rng.h"

namespace ba {
namespace {

using chain::AddressId;
using net::Client;
using net::Server;
using net::ServerOptions;
using serve::ClassifyOptions;
using serve::InferenceEngine;
using serve::RequestOutcome;

/// Structural JSON well-formedness: every brace/bracket balances and
/// every string closes, honoring escapes. Admin replies and saved
/// traces must satisfy this even when produced under overload.
bool JsonWellFormed(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !text.empty();
}

/// Every fault-injection test must leave the global injector clean.
class FaultGuard {
 public:
  FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
};

/// One trained classifier + simulated economy shared by every test;
/// each test stands up its own engine and server on ephemeral ports.
class NetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 23;
    config.num_blocks = 60;
    config.num_retail_users = 20;
    config.miners_per_pool = 8;
    config.gamblers_per_house = 4;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());

    auto labeled = simulator_->CollectLabeledAddresses(3);
    Rng rng(1);
    const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);
    ASSERT_GE(split.test.size(), 6u);
    watched_ = new std::vector<datagen::LabeledAddress>(split.test);

    core::BaClassifier::Options opts;
    opts.dataset.construction.slice_size = 20;
    opts.graph_model.epochs = 2;
    opts.graph_model.embed_dim = 16;
    opts.graph_model.hidden_dim = 32;
    opts.aggregator.epochs = 4;
    auto created = core::BaClassifier::Create(opts);
    ASSERT_TRUE(created.ok()) << created.status().message();
    classifier_ = created.value().release();
    ASSERT_TRUE(classifier_->Train(simulator_->ledger(), split.train).ok());
  }

  static void TearDownTestSuite() {
    delete classifier_;
    delete simulator_;
    delete watched_;
    classifier_ = nullptr;
    simulator_ = nullptr;
    watched_ = nullptr;
  }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      serve::InferenceEngineOptions options = {}) {
    options.num_threads = 2;
    auto engine = InferenceEngine::Create(
        classifier_, &simulator_->ledger(), std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().message();
    return std::move(engine.value());
  }

  static std::unique_ptr<Server> MakeServer(InferenceEngine* engine,
                                            ServerOptions options = {}) {
    auto server =
        Server::Create(engine, &simulator_->ledger(), std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().message();
    EXPECT_TRUE(server.value()->Start().ok());
    return std::move(server.value());
  }

  static Client Dial(const Server& server) {
    auto client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().message();
    return std::move(client.value());
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* watched_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* NetTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* NetTest::watched_ = nullptr;
core::BaClassifier* NetTest::classifier_ = nullptr;

TEST_F(NetTest, WireAnswersMatchInProcessClassify) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  for (size_t i = 0; i < std::min<size_t>(watched_->size(), 6); ++i) {
    const AddressId address = (*watched_)[i].address;
    const auto wire = client.Classify(address);
    ASSERT_TRUE(wire.ok()) << wire.status().message();
    const auto local = engine->Classify(address);
    ASSERT_TRUE(local.ok()) << local.status().message();
    EXPECT_EQ(wire.value().predicted, local.value().predicted)
        << "address " << address;
    EXPECT_EQ(wire.value().tx_count, local.value().tx_count);
    // The wire query warmed the cache; the local re-ask must hit it.
    EXPECT_TRUE(local.value().cache_hit);
  }
  server->Stop();
}

TEST_F(NetTest, PipelinedResponsesCorrelateByRequestId) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  // Burst of sends with distinctive ids, then drain: every response
  // carries an id from the burst, each exactly once, each OK.
  constexpr uint64_t kBase = 7000;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    const AddressId address =
        (*watched_)[static_cast<size_t>(i) % watched_->size()].address;
    ASSERT_TRUE(client.Send(kBase + static_cast<uint64_t>(i), address).ok());
  }
  std::vector<bool> seen(kBurst, false);
  for (int i = 0; i < kBurst; ++i) {
    const auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    const uint64_t id = resp.value().request_id;
    ASSERT_GE(id, kBase);
    ASSERT_LT(id, kBase + kBurst);
    EXPECT_FALSE(seen[id - kBase]) << "duplicate response for " << id;
    seen[id - kBase] = true;
    EXPECT_TRUE(resp.value().ToResult().ok());
  }
  server->Stop();
}

TEST_F(NetTest, UnknownAddressAnswersInvalidArgumentNotDisconnect) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  const auto bad = client.Classify(
      simulator_->ledger().num_addresses() + 1000);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // The connection survives an application-level error.
  const auto good = client.Classify((*watched_)[0].address);
  EXPECT_TRUE(good.ok()) << good.status().message();
  server->Stop();
}

TEST_F(NetTest, ExpiredDeadlineCrossesTheWireAsDeadlineExceeded) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  ClassifyOptions options;
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  const auto result = client.Classify((*watched_)[0].address, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  server->Stop();
}

TEST_F(NetTest, MalformedFrameAnswersErrorFrameThenCloses) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  ASSERT_TRUE(client.SendRaw("GARBAGE-NOT-A-FRAME-....").ok());
  const auto resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_FALSE(resp.value().ToResult().ok());
  EXPECT_EQ(resp.value().ToResult().status().code(),
            StatusCode::kInvalidArgument);

  // After the goodbye frame the server closes: the next read is EOF,
  // never a hang.
  const auto eof = client.ReadResponse();
  EXPECT_FALSE(eof.ok());

  // The listener is unaffected — fresh connections still serve.
  Client again = Dial(*server);
  EXPECT_TRUE(again.Classify((*watched_)[0].address).ok());
  server->Stop();
}

TEST_F(NetTest, ShedRequestsAnswerResourceExhaustedOverTheWire) {
  FaultGuard guard;
  serve::InferenceEngineOptions options;
  options.enable_admission = true;
  options.admission.max_inflight = 64;
  options.admission.high_watermark = 3;
  options.admission.low_watermark = 1;
  auto engine = MakeEngine(std::move(options));
  auto server = MakeServer(engine.get());

  // Stall the build stage so a pipelined burst stacks a backlog the
  // watermark must shed.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.02);

  Client client = Dial(*server);
  constexpr int kBurst = 48;
  for (int i = 0; i < kBurst; ++i) {
    const AddressId address =
        (*watched_)[static_cast<size_t>(i) % watched_->size()].address;
    ASSERT_TRUE(client.Send(static_cast<uint64_t>(i + 1), address).ok());
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    const auto outcome = resp.value().ToResult();
    if (outcome.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(outcome.status().code(), StatusCode::kResourceExhausted)
          << outcome.status().message();
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "burst never tripped the watermark";
  server->Stop();
}

TEST_F(NetTest, ConcurrentConnectionsAllGetTheirOwnAnswers) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());

  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> fleet;
  fleet.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    fleet.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 3; ++round) {
        const size_t pick =
            static_cast<size_t>(c * 3 + round) % watched_->size();
        const auto result =
            client.value().Classify((*watched_)[pick].address);
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : fleet) t.join();
  EXPECT_EQ(failures.load(), 0);
  server->Stop();
}

TEST_F(NetTest, SweepingConnectionIsFlaggedAndForgottenOnClose) {
  serve::InferenceEngineOptions options;
  options.sweep_miss_streak = 4;
  auto engine = MakeEngine(options);
  auto server = MakeServer(engine.get());
  const auto cold = simulator_->CollectLabeledAddresses(3);
  ASSERT_GT(cold.size(), static_cast<size_t>(options.sweep_miss_streak));
  {
    // One connection classifies more distinct cold addresses than the
    // streak: the server stamps its connection id as the client id, so
    // the engine's detector marks it sweeping. The detector observes an
    // answer before it is sent, so the mark is set by the last reply.
    Client client = Dial(*server);
    for (int i = 0; i <= options.sweep_miss_streak; ++i) {
      const auto r = client.Classify(cold[static_cast<size_t>(i)].address);
      ASSERT_TRUE(r.ok()) << r.status().message();
      ASSERT_FALSE(r.value().cache_hit);
    }
    EXPECT_EQ(engine->sweeping_clients(), 1u);
  }
  // The client hung up: closing the connection forgets its id.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine->sweeping_clients() != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine->sweeping_clients(), 0u);
  server->Stop();
}

TEST_F(NetTest, StopDrainsInflightRequestsBeforeReturning) {
  FaultGuard guard;
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());

  // Slow the pipeline, launch a burst, then Stop while answers are
  // still in flight: Stop must drain (no callback ever fires against
  // a destroyed server) and the already-sent requests must not wedge.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.01);
  Client client = Dial(*server);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client
                    .Send(static_cast<uint64_t>(i + 1),
                          (*watched_)[static_cast<size_t>(i) %
                                      watched_->size()]
                              .address)
                    .ok());
  }
  server->Stop();  // must not hang, must not crash
}

TEST_F(NetTest, AdminMetricsHealthAndUnknownCommands) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());

  // Serve one query so the counters are non-trivial.
  Client client = Dial(*server);
  ASSERT_TRUE(client.Classify((*watched_)[0].address).ok());

  const auto health = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "health");
  ASSERT_TRUE(health.ok()) << health.status().message();
  EXPECT_NE(health.value().find("\"status\":\"ok\""), std::string::npos)
      << health.value();
  EXPECT_NE(health.value().find("\"admission\""), std::string::npos);

  const auto metrics = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().message();
  EXPECT_NE(metrics.value().find("net.requests"), std::string::npos)
      << metrics.value();

  const auto unknown = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "frobnicate");
  ASSERT_TRUE(unknown.ok());
  EXPECT_NE(unknown.value().find("unknown"), std::string::npos)
      << unknown.value();
  server->Stop();
}

TEST_F(NetTest, AdminQuitRequestsShutdownAndWaitReturns)
{
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());

  const auto bye =
      Client::AdminCommand("127.0.0.1", server->admin_port(), "quit");
  ASSERT_TRUE(bye.ok()) << bye.status().message();
  EXPECT_EQ(bye.value(), "bye");
  server->Wait();  // the loop exits on quit; must not hang
  EXPECT_TRUE(server->quit_requested());
  server->Stop();
}

TEST_F(NetTest, SlowLorisByteAtATimeStillGetsAnswered) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  serve::ClassifyRequest req;
  req.request_id = 424242;
  req.address = (*watched_)[0].address;
  const std::string frame =
      serve::EncodeFrame(serve::MessageType::kClassifyRequest,
                         req.EncodePayload(std::chrono::steady_clock::now()));
  for (char byte : frame) {
    ASSERT_TRUE(client.SendRaw(std::string_view(&byte, 1)).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp.value().request_id, 424242u);
  EXPECT_TRUE(resp.value().ToResult().ok());
  server->Stop();
}

TEST_F(NetTest, WireTimelinesStitchToTraceContextAndOutcome) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  Client client = Dial(*server);

  // Nominal answer: the v2 response carries the server-side timeline,
  // echoing our trace context, with monotone stamps and an outcome
  // matching what the wire delivered.
  ClassifyOptions options;
  options.trace_id = 0xACE0FBA5E;
  options.span_id = 7;
  const auto ok = client.Classify((*watched_)[0].address, options);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  const serve::RequestTimeline& tl = ok.value().timeline;
  EXPECT_EQ(tl.trace_id, options.trace_id);
  EXPECT_EQ(tl.span_id, options.span_id);
  EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
  EXPECT_EQ(tl.outcome, ok.value().degraded ? RequestOutcome::kDegraded
                                            : RequestOutcome::kOk);

  // Error answers carry their timeline too: an expired deadline comes
  // back as a DeadlineExceeded response whose timeline says kDeadline.
  ClassifyOptions expired;
  expired.trace_id = 0xDEAD;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  ASSERT_TRUE(client.Send(31337, (*watched_)[0].address, expired).ok());
  const auto resp = client.ReadResponse();
  ASSERT_TRUE(resp.ok()) << resp.status().message();
  EXPECT_EQ(resp.value().ToResult().status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(resp.value().timeline.trace_id, 0xDEADu);
  EXPECT_EQ(resp.value().timeline.outcome, RequestOutcome::kDeadline);
  EXPECT_TRUE(resp.value().timeline.Monotone())
      << resp.value().timeline.ToJson();
  server->Stop();
}

TEST_F(NetTest, PipelinedAndShedCompletionsAllCarryMatchingTimelines) {
  FaultGuard guard;
  serve::InferenceEngineOptions options;
  options.enable_admission = true;
  options.admission.max_inflight = 64;
  options.admission.high_watermark = 3;
  options.admission.low_watermark = 1;
  auto engine = MakeEngine(std::move(options));
  auto server = MakeServer(engine.get());
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.02);

  // Pipelined burst, every request traced with a distinctive id. Each
  // completion — batched answer or inline shed — must answer with a
  // monotone timeline whose trace id and outcome label match the wire
  // response it rode in on.
  Client client = Dial(*server);
  constexpr int kBurst = 48;
  constexpr uint64_t kTraceBase = 0x7700000000000000ULL;
  for (int i = 0; i < kBurst; ++i) {
    const AddressId address =
        (*watched_)[static_cast<size_t>(i) % watched_->size()].address;
    ClassifyOptions traced;
    traced.trace_id = kTraceBase + static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(
        client.Send(static_cast<uint64_t>(i + 1), address, traced).ok());
  }

  // Overload is the interesting moment for the admin surface: slowlog
  // must stay one well-formed JSON line while the burst is in flight.
  const auto mid_burst = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "slowlog 8");
  ASSERT_TRUE(mid_burst.ok()) << mid_burst.status().message();
  EXPECT_TRUE(JsonWellFormed(mid_burst.value())) << mid_burst.value();

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto resp = client.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().message();
    const serve::RequestTimeline& tl = resp.value().timeline;
    EXPECT_EQ(tl.trace_id, kTraceBase + resp.value().request_id);
    EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
    const auto outcome = resp.value().ToResult();
    if (outcome.ok()) {
      EXPECT_EQ(tl.outcome, outcome.value().degraded
                                ? RequestOutcome::kDegraded
                                : RequestOutcome::kOk);
      ++ok;
    } else {
      ASSERT_EQ(outcome.status().code(), StatusCode::kResourceExhausted)
          << outcome.status().message();
      EXPECT_EQ(tl.outcome, RequestOutcome::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "burst never tripped the watermark";
  server->Stop();
}

TEST_F(NetTest, AdminSlowlogAndTimelineAnswerJson) {
  serve::InferenceEngineOptions options;
  options.flight_recorder_capacity = 64;
  options.slow_request_threshold = 1e-9;  // everything is "slow"
  auto engine = MakeEngine(std::move(options));
  auto server = MakeServer(engine.get());

  Client client = Dial(*server);
  ClassifyOptions traced;
  traced.trace_id = 0xBEEF;
  ASSERT_TRUE(client.Classify((*watched_)[0].address, traced).ok());
  ASSERT_TRUE(client.Classify((*watched_)[1].address).ok());

  // slowlog: one well-formed JSON object with both rings; the traced
  // request shows up (threshold 1ns means every request is slow).
  const auto slowlog = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "slowlog");
  ASSERT_TRUE(slowlog.ok()) << slowlog.status().message();
  EXPECT_TRUE(JsonWellFormed(slowlog.value())) << slowlog.value();
  EXPECT_NE(slowlog.value().find("\"threshold_seconds\""),
            std::string::npos);
  EXPECT_NE(slowlog.value().find("\"slow\""), std::string::npos);
  EXPECT_NE(slowlog.value().find("\"recent\""), std::string::npos);
  EXPECT_NE(slowlog.value().find("\"trace_id\":48879"), std::string::npos)
      << slowlog.value();

  // timeline lookup: decimal and 0x-hex spellings both resolve.
  for (const char* spelling : {"timeline 48879", "timeline 0xBEEF"}) {
    const auto found = Client::AdminCommand(
        "127.0.0.1", server->admin_port(), spelling);
    ASSERT_TRUE(found.ok()) << found.status().message();
    EXPECT_TRUE(JsonWellFormed(found.value())) << found.value();
    EXPECT_NE(found.value().find("\"trace_id\":48879"), std::string::npos)
        << found.value();
    EXPECT_NE(found.value().find("\"outcome\""), std::string::npos);
  }

  // Unknown trace id: still one well-formed JSON line, not a hang or
  // an empty reply.
  const auto missing = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "timeline 424242");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(JsonWellFormed(missing.value())) << missing.value();
  EXPECT_NE(missing.value().find("not found"), std::string::npos);
  server->Stop();
}

TEST_F(NetTest, AdminTraceLifecycleUnderConcurrentLoad) {
  auto engine = MakeEngine();
  auto server = MakeServer(engine.get());
  const std::string path =
      "/tmp/ba_net_trace_" + std::to_string(::getpid()) + ".json";

  // trace start → hammer the data port from several connections →
  // trace save → trace stop. The saved file must be well-formed JSON
  // even though events were being recorded while Save ran.
  const auto started = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "trace start");
  ASSERT_TRUE(started.ok()) << started.status().message();
  EXPECT_NE(started.value().find("OK"), std::string::npos);

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> fleet;
  fleet.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    fleet.emplace_back([&, c] {
      auto worker = Client::Connect("127.0.0.1", server->port());
      if (!worker.ok()) {
        failures.fetch_add(1);
        return;
      }
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ClassifyOptions traced;
        traced.trace_id =
            (static_cast<uint64_t>(c) + 1) << 32 | ++i;
        const size_t pick = static_cast<size_t>(i) % watched_->size();
        if (!worker.value()
                 .Classify((*watched_)[pick].address, traced)
                 .ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Save mid-load, twice — the tracer must snapshot consistently while
  // the fleet keeps appending events.
  for (int round = 0; round < 2; ++round) {
    const auto saved = Client::AdminCommand(
        "127.0.0.1", server->admin_port(), "trace save " + path);
    ASSERT_TRUE(saved.ok()) << saved.status().message();
    EXPECT_NE(saved.value().find("OK"), std::string::npos)
        << saved.value();
    const auto text = util::ReadFileToString(path);
    ASSERT_TRUE(text.ok()) << text.status().message();
    EXPECT_TRUE(JsonWellFormed(text.value()))
        << "round " << round << ": saved trace is not well-formed JSON";
    EXPECT_NE(text.value().find("\"traceEvents\""), std::string::npos);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : fleet) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stopped = Client::AdminCommand(
      "127.0.0.1", server->admin_port(), "trace stop");
  ASSERT_TRUE(stopped.ok());
  EXPECT_NE(stopped.value().find("OK"), std::string::npos);
  std::remove(path.c_str());
  server->Stop();
}

}  // namespace
}  // namespace ba
