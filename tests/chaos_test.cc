// Chaos harness: randomized fault injection, overload, and concurrent
// ledger growth driven against the serving engine at once, with the
// correctness bar unchanged — every successful answer (nominal or
// degraded) must equal a serial re-run of the pipeline at the epoch it
// claims (`tx_count`), and every failure must be one of the explicit,
// documented error codes. Run under BA_SANITIZE=thread
// (`scripts/check.sh chaos`) to validate the concurrency claims.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "serve/inference_engine.h"
#include "util/fs.h"
#include "util/retry.h"
#include "util/rng.h"

#include "predict_at_epoch.h"

namespace ba {
namespace {

using chain::AddressId;
using serve::ClassifyOptions;
using serve::ClassifyResult;
using serve::InferenceEngine;

/// FaultInjector arming, firing, and disarming hammered from many
/// threads at once. The concurrent assertion is deliberately weak — the
/// test's value is running data-race-free under TSan while every mode
/// and the hit counter are exercised concurrently — and the exact
/// semantics are checked afterwards on a quiesced point.
TEST(FaultInjectorChaosTest, ConcurrentArmFireDisarmIsRaceFree) {
  auto& faults = util::FaultInjector::Instance();
  faults.DisarmAll();
  constexpr const char* kPoint = "chaos.injector.hammer";
  constexpr int kArmers = 3;
  constexpr int kFirers = 5;
  constexpr int kRounds = 400;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> threads;
  for (int a = 0; a < kArmers; ++a) {
    threads.emplace_back([&, a] {
      for (int i = 0; i < kRounds; ++i) {
        switch ((a + i) % 5) {
          case 0: faults.Arm(kPoint, 1 + i % 3); break;
          case 1: faults.ArmProbabilistic(kPoint, 0.5, i); break;
          case 2: faults.ArmEveryNth(kPoint, 1 + i % 4); break;
          case 3: faults.ArmLatency(kPoint, 1e-5); break;
          default: faults.Disarm(kPoint); break;
        }
      }
    });
  }
  for (int f = 0; f < kFirers; ++f) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        calls.fetch_add(1);
        if (faults.ShouldFail(kPoint)) fired.fetch_add(1);
      }
    });
  }
  for (int a = 0; a < kArmers; ++a) threads[a].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kArmers; t < threads.size(); ++t) threads[t].join();

  // Disarm erases the point and its hit count, so HitCount bounds
  // nothing after the hammer; what Disarm cannot reset is the firers'
  // own tally — no call fires more than once.
  EXPECT_LE(fired.load(), calls.load());

  // Exact semantics on a quiesced point: every kth of m calls fires.
  faults.DisarmAll();
  constexpr int kPeriod = 3;
  constexpr int kCalls = 20;
  faults.ArmEveryNth(kPoint, kPeriod);
  int quiesced_fired = 0;
  for (int i = 0; i < kCalls; ++i) {
    quiesced_fired += faults.ShouldFail(kPoint) ? 1 : 0;
  }
  EXPECT_EQ(quiesced_fired, kCalls / kPeriod);
  EXPECT_EQ(faults.HitCount(kPoint), kCalls);
  faults.DisarmAll();
  EXPECT_FALSE(faults.ShouldFail(kPoint));
}

/// One chaos client's view of a finished call.
struct Observation {
  AddressId address = 0;
  uint64_t tx_count = 0;
  int predicted = 0;
  bool ok = false;
  bool degraded = false;
  StatusCode code = StatusCode::kOk;
  std::string message;
};

class ChaosServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 29;
    config.num_blocks = 60;
    config.num_retail_users = 20;
    config.miners_per_pool = 8;
    config.gamblers_per_house = 4;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());

    auto labeled = simulator_->CollectLabeledAddresses(3);
    Rng rng(1);
    const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);
    ASSERT_GE(split.test.size(), 4u);
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

  /// Serial re-run of the full inference path at the epoch where
  /// `address` had exactly `tx_count` capped transactions — the
  /// ground truth every successful chaos answer is held to.
  static int PredictAtEpoch(AddressId address, uint64_t tx_count) {
    return testutil::PredictAtEpoch(*classifier_, simulator_->ledger(),
                                    address, tx_count);
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* watched_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* ChaosServeTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* ChaosServeTest::watched_ = nullptr;
core::BaClassifier* ChaosServeTest::classifier_ = nullptr;

/// The acceptance test from the issue: blocks sealed concurrently with
/// classification while probabilistic faults, injected latency, tight
/// deadlines, and admission control all fire at once. Invariants:
/// no hang (the ctest TIMEOUT property is the watchdog), no lost
/// request (every call returns), every success correct at its claimed
/// epoch, every failure an explicit documented code.
TEST_F(ChaosServeTest, SealWhileClassifyUnderRandomFaultsAndOverload) {
  auto& faults = util::FaultInjector::Instance();
  faults.DisarmAll();

  serve::InferenceEngineOptions options;
  options.num_threads = 2;
  options.enable_admission = true;
  options.admission.max_inflight = 64;
  options.admission.high_watermark = 12;
  options.admission.low_watermark = 2;
  options.admission.recovery_rate = 2000.0;
  options.admission.recovery_burst = 8;
  auto created = InferenceEngine::Create(
      classifier_, &simulator_->ledger(), std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().message();
  auto engine = std::move(created.value());

  // ~5% of micro-batches die at build, ~5% at aggregate, and every
  // lookup boundary stalls 2ms so short deadlines genuinely expire
  // between stages.
  faults.ArmProbabilistic(InferenceEngine::kFaultBatchBuild, 0.05, 101);
  faults.ArmProbabilistic(InferenceEngine::kFaultBatchAggregate, 0.05,
                          202);
  faults.ArmLatency(InferenceEngine::kFaultBatchBuild, 0.002);

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 40;
  std::atomic<bool> seal_stop{false};

  // Writer thread: keeps sealing blocks that pay the watched
  // addresses, so their live tx counts move during the run.
  std::thread sealer([&] {
    chain::Ledger* ledger = simulator_->mutable_ledger();
    uint64_t sealed = 0;
    while (!seal_stop.load(std::memory_order_acquire)) {
      const chain::Timestamp now =
          ledger->block(ledger->height() - 1).timestamp +
          ledger->options().block_interval_seconds;
      const AddressId payout =
          (*watched_)[sealed % watched_->size()].address;
      ASSERT_TRUE(ledger->ApplyCoinbase(now, payout).ok());
      ASSERT_TRUE(ledger->SealBlock(now).ok());
      ++sealed;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Client threads vary deadline/degraded/priority per call; gtest
  // assertions are not thread-safe outside the main thread, so each
  // client only records observations for later verification.
  std::vector<std::vector<Observation>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(997 + c));
      auto& out = per_client[static_cast<size_t>(c)];
      out.reserve(kCallsPerClient);
      for (int i = 0; i < kCallsPerClient; ++i) {
        const AddressId address =
            (*watched_)[rng.UniformInt(watched_->size())].address;
        ClassifyOptions copts;
        const int dice = static_cast<int>(rng.UniformInt(4));
        if (dice == 1) {  // tight deadline, strict
          copts.deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(1);
        } else if (dice == 2) {  // tight deadline, degraded allowed
          copts.deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(1);
          copts.allow_degraded = true;
        } else if (dice == 3) {  // priority traffic
          copts.priority = 1;
        }
        const auto result = engine->Classify(address, copts);
        Observation ob;
        ob.address = address;
        ob.ok = result.ok();
        if (result.ok()) {
          ob.tx_count = result.value().tx_count;
          ob.predicted = result.value().predicted;
          ob.degraded = result.value().degraded;
        } else {
          ob.code = result.status().code();
          ob.message = result.status().message();
        }
        out.push_back(ob);
      }
    });
  }
  for (auto& t : clients) t.join();
  seal_stop.store(true, std::memory_order_release);
  sealer.join();
  faults.DisarmAll();

  // Every request resolved — nothing hung, nothing was lost.
  size_t total = 0;
  size_t successes = 0;
  size_t degraded = 0;
  std::map<std::pair<AddressId, uint64_t>, int> verified;
  for (const auto& observations : per_client) {
    ASSERT_EQ(observations.size(),
              static_cast<size_t>(kCallsPerClient));
    for (const Observation& ob : observations) {
      ++total;
      if (ob.ok) {
        ++successes;
        if (ob.degraded) ++degraded;
        // Correct at the epoch it claims, degraded or not: tx_count
        // names the epoch the answer was computed at, so one serial
        // re-run covers nominal, stale, and late answers alike.
        auto it = verified.find({ob.address, ob.tx_count});
        if (it == verified.end()) {
          it = verified
                   .emplace(std::make_pair(ob.address, ob.tx_count),
                            PredictAtEpoch(ob.address, ob.tx_count))
                   .first;
        }
        ASSERT_EQ(ob.predicted, it->second)
            << "address " << ob.address << " at epoch " << ob.tx_count
            << (ob.degraded ? " (degraded)" : "");
      } else {
        // Failures are explicit and documented — never a silent wrong
        // answer, never an unexpected code.
        const bool expected =
            ob.code == StatusCode::kDeadlineExceeded ||
            ob.code == StatusCode::kResourceExhausted ||
            (ob.code == StatusCode::kInternal &&
             ob.message.find("injected fault") != std::string::npos);
        ASSERT_TRUE(expected)
            << "unexpected failure: " << static_cast<int>(ob.code)
            << " " << ob.message;
      }
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kClients * kCallsPerClient));
  EXPECT_GT(successes, 0u);
  // The engine's own books match what clients saw.
  const auto m = engine->Metrics();
  EXPECT_EQ(m.requests, static_cast<uint64_t>(total));
  EXPECT_EQ(m.degraded_stale + m.degraded_fallback + m.degraded_late,
            static_cast<uint64_t>(degraded));

  // Calm after the storm: faults disarmed, a plain classify succeeds
  // (the token bucket readmits within milliseconds at this rate).
  bool recovered = false;
  for (int attempt = 0; attempt < 200 && !recovered; ++attempt) {
    recovered = engine->Classify((*watched_)[0].address).ok();
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(recovered);
}

/// Cache persistence under probabilistic save faults: a saver thread
/// races classification, every save either succeeds (possibly after
/// retries) or fails with the injected-fault error, and the survivor
/// file always warm-starts a fresh engine.
TEST_F(ChaosServeTest, CachePersistenceSurvivesRandomSaveFaults) {
  auto& faults = util::FaultInjector::Instance();
  faults.DisarmAll();
  const std::string path = "/tmp/ba_chaos_cache_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());

  serve::InferenceEngineOptions options;
  options.num_threads = 2;
  options.cache_path = path;
  options.save_retry = util::RetryPolicy::Standard(4);
  options.save_retry.initial_backoff_seconds = 1e-4;
  options.save_retry.max_backoff_seconds = 1e-3;
  auto created = InferenceEngine::Create(
      classifier_, &simulator_->ledger(), std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().message();
  auto engine = std::move(created.value());

  faults.ArmProbabilistic(InferenceEngine::kFaultCacheSave, 0.5, 31);
  std::atomic<bool> stop{false};
  std::atomic<int> saves_ok{0};
  std::atomic<int> saves_failed{0};
  std::atomic<bool> bad_failure{false};
  // The saver makes at least one attempt: the classify loop below can
  // finish before the thread is first scheduled.
  std::thread saver([&] {
    do {
      const Status st = engine->SaveCache();
      if (st.ok()) {
        saves_ok.fetch_add(1);
      } else {
        saves_failed.fetch_add(1);
        if (st.message().find("injected fault") == std::string::npos) {
          bad_failure.store(true);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (!stop.load(std::memory_order_acquire));
  });
  for (int i = 0; i < 3; ++i) {
    for (const auto& labeled : *watched_) {
      ASSERT_TRUE(engine->Classify(labeled.address).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  saver.join();
  faults.DisarmAll();
  EXPECT_FALSE(bad_failure.load());

  // One clean save, then a fresh engine warm-starts from the file and
  // serves every watched address from cache.
  ASSERT_TRUE(engine->SaveCache().ok());
  EXPECT_GT(saves_ok.load() + saves_failed.load(), 0);
  serve::InferenceEngineOptions warm_opts;
  warm_opts.num_threads = 2;
  warm_opts.cache_path = path;
  auto warm = InferenceEngine::Create(classifier_, &simulator_->ledger(),
                                      std::move(warm_opts));
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  const auto hit = warm.value()->Classify((*watched_)[0].address);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ba
