// Tests for the async Classify contract that the network front end
// depends on: the callback fires exactly once per submission — fast
// rejections (expired deadline, admission shed) and everything the
// submit-side cache lookup settles synchronously on the submitting
// thread, built answers on a worker; a miss never builds on the
// submitting thread, and one whose answer is already being built joins
// that build at submit; concurrent async and blocking callers get
// identical answers (verified against a serial re-run of the inference
// path); and destroying the engine with callbacks in flight blocks
// until every one has fired.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "util/fs.h"
#include "util/rng.h"

#include "predict_at_epoch.h"

namespace ba {
namespace {

using chain::AddressId;
using serve::ClassifyOptions;
using serve::ClassifyResult;
using serve::InferenceEngine;

/// Every fault-injection test must leave the global injector clean.
class FaultGuard {
 public:
  FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
};

class AsyncClassifyTest : public ::testing::Test {
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

  /// Serial re-run of the inference path at the epoch where `address`
  /// had exactly `tx_count` (capped) transactions — the ground truth
  /// every batched/cached/async answer must agree with.
  static int PredictAtEpoch(AddressId address, uint64_t tx_count) {
    return testutil::PredictAtEpoch(*classifier_, simulator_->ledger(),
                                    address, tx_count);
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* watched_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* AsyncClassifyTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* AsyncClassifyTest::watched_ = nullptr;
core::BaClassifier* AsyncClassifyTest::classifier_ = nullptr;

TEST_F(AsyncClassifyTest, ExpiredDeadlineFiresCallbackSynchronously) {
  auto engine = MakeEngine();
  ClassifyOptions options;
  options.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);

  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<int> fired{0};
  engine->ClassifyAsync(
      (*watched_)[0].address, options,
      [&](Result<ClassifyResult> outcome,
          const serve::RequestTimeline& tl) {
        // Fast-path rejection: delivered on the submitting thread,
        // before ClassifyAsync returns.
        EXPECT_EQ(std::this_thread::get_id(), submitter);
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
        // Error outcomes still deliver a timeline — the callback arg
        // is the only channel (a Status carries none).
        EXPECT_EQ(tl.outcome, serve::RequestOutcome::kDeadline);
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 1) << "callback did not fire synchronously";
}

TEST_F(AsyncClassifyTest, UnknownAddressFiresCallbackWithInvalidArgument) {
  auto engine = MakeEngine();
  std::atomic<int> fired{0};
  engine->ClassifyAsync(
      simulator_->ledger().num_addresses() + 99, {},
      [&](Result<ClassifyResult> outcome,
          const serve::RequestTimeline& tl) {
        ASSERT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(tl.outcome, serve::RequestOutcome::kError);
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 1);
}

TEST_F(AsyncClassifyTest, ShedRequestsFireCallbackWithResourceExhausted) {
  FaultGuard guard;
  serve::InferenceEngineOptions options;
  options.enable_admission = true;
  options.admission.max_inflight = 64;
  options.admission.high_watermark = 3;
  options.admission.low_watermark = 1;
  auto engine = MakeEngine(std::move(options));
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.02);

  constexpr int kBurst = 48;
  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    engine->ClassifyAsync(
        (*watched_)[static_cast<size_t>(i) % watched_->size()].address, {},
        [&](Result<ClassifyResult> outcome,
            const serve::RequestTimeline& tl) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
          if (outcome.ok()) {
            // The timeline's outcome label always matches what was
            // delivered — including on the inline shed fast path.
            EXPECT_EQ(tl.outcome, outcome.value().degraded
                                      ? serve::RequestOutcome::kDegraded
                                      : serve::RequestOutcome::kOk);
            EXPECT_EQ(outcome.value().timeline.outcome, tl.outcome);
            ++ok;
          } else {
            EXPECT_EQ(outcome.status().code(),
                      StatusCode::kResourceExhausted)
                << outcome.status().message();
            EXPECT_EQ(tl.outcome, serve::RequestOutcome::kShed);
            ++shed;
          }
          ++fired;
          cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                          [&] { return fired == kBurst; }))
      << fired << " of " << kBurst << " callbacks fired";
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "burst never tripped the watermark";
}

TEST_F(AsyncClassifyTest, AsyncAndBlockingCallersAgreeWithSerialRerun) {
  auto engine = MakeEngine();
  const size_t n = std::min<size_t>(watched_->size(), 6);

  // Half the addresses async, half blocking, all concurrent — every
  // answer must match the serial re-run at its own pinned epoch.
  std::mutex mu;
  std::condition_variable cv;
  size_t async_done = 0;
  std::vector<Result<ClassifyResult>> async_results;
  async_results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    async_results.emplace_back(Status::Internal("not yet delivered"));
  }
  std::vector<Result<ClassifyResult>> blocking_results;

  std::thread blocker([&] {
    for (size_t i = 0; i < n; ++i) {
      blocking_results.push_back(engine->Classify((*watched_)[i].address));
    }
  });
  for (size_t i = 0; i < n; ++i) {
    engine->ClassifyAsync((*watched_)[i].address, {},
                          [&, i](Result<ClassifyResult> outcome,
                                 const serve::RequestTimeline&) {
                            std::lock_guard<std::mutex> lock(mu);
                            async_results[i] = std::move(outcome);
                            ++async_done;
                            cv.notify_all();
                          });
  }
  blocker.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(120),
                            [&] { return async_done == n; }));
  }

  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(async_results[i].ok())
        << async_results[i].status().message();
    ASSERT_TRUE(blocking_results[i].ok())
        << blocking_results[i].status().message();
    const auto& a = async_results[i].value();
    const auto& b = blocking_results[i].value();
    const AddressId address = (*watched_)[i].address;
    EXPECT_EQ(a.predicted, PredictAtEpoch(address, a.tx_count))
        << "async answer diverged from serial re-run, address " << address;
    EXPECT_EQ(b.predicted, PredictAtEpoch(address, b.tx_count))
        << "blocking answer diverged from serial re-run, address "
        << address;
  }
}

TEST_F(AsyncClassifyTest, DestructionDrainsCallbacksInFlight) {
  FaultGuard guard;
  std::atomic<int> fired{0};
  constexpr int kInflight = 6;
  {
    auto engine = MakeEngine();
    // Slow the pipeline so the engine dies with work genuinely queued.
    util::FaultInjector::Instance().ArmLatency(
        InferenceEngine::kFaultBatchBuild, 0.01);
    for (int i = 0; i < kInflight; ++i) {
      engine->ClassifyAsync(
          (*watched_)[static_cast<size_t>(i) % watched_->size()].address,
          {}, [&](Result<ClassifyResult>, const serve::RequestTimeline&) {
            fired.fetch_add(1);
          });
    }
    // ~InferenceEngine blocks until every callback has fired.
  }
  EXPECT_EQ(fired.load(), kInflight);
}

TEST_F(AsyncClassifyTest, CacheHitIsDeliveredInlineWithoutPoolWork) {
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[0].address;
  const auto warm = engine->Classify(address);
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  const obs::Counter* tasks =
      obs::MetricsRegistry::Instance().GetCounter("util.thread_pool.tasks");
  const uint64_t tasks_before = tasks->value();

  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<int> fired{0};
  engine->ClassifyAsync(
      address, {},
      [&](Result<ClassifyResult> outcome, const serve::RequestTimeline& tl) {
        EXPECT_EQ(std::this_thread::get_id(), submitter);
        ASSERT_TRUE(outcome.ok()) << outcome.status().message();
        EXPECT_TRUE(outcome.value().cache_hit);
        EXPECT_EQ(outcome.value().predicted, warm.value().predicted);
        EXPECT_EQ(tl.outcome, serve::RequestOutcome::kOk);
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        EXPECT_LT(tl.enqueue_ns, 0) << "a hit never queues";
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 1) << "hit was not delivered before return";
  EXPECT_EQ(tasks->value(), tasks_before);
  const auto m = engine->Metrics();
  EXPECT_EQ(m.full_hits, 1u);
  EXPECT_EQ(m.batches, 1u) << "only the warming call ran a batch";
}

TEST_F(AsyncClassifyTest, MissNeverBuildsOnTheSubmittingThread) {
  FaultGuard guard;
  auto engine = MakeEngine();
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.15);
  const AddressId address = (*watched_)[1].address;

  const std::thread::id submitter = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread::id delivered_on;
  Result<ClassifyResult> result(Status::Internal("not yet delivered"));
  const auto start = std::chrono::steady_clock::now();
  engine->ClassifyAsync(
      address, {},
      [&](Result<ClassifyResult> outcome, const serve::RequestTimeline&) {
        std::lock_guard<std::mutex> lock(mu);
        delivered_on = std::this_thread::get_id();
        result = std::move(outcome);
        done = true;
        cv.notify_all();
      });
  const double submit_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_LT(submit_s, 0.02) << "the submitting thread waited on a build";

  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] { return done; }));
  EXPECT_NE(delivered_on, submitter);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_FALSE(result.value().cache_hit);
  EXPECT_EQ(result.value().predicted,
            PredictAtEpoch(address, result.value().tx_count));
}

TEST_F(AsyncClassifyTest, SubmitJoinsABlockingCallersBuild) {
  FaultGuard guard;
  auto engine = MakeEngine();
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.15);
  const AddressId address = (*watched_)[2].address;

  Result<ClassifyResult> blocking(Status::Internal("not yet delivered"));
  std::thread caller([&] { blocking = engine->Classify(address); });
  // The miss is counted at the caller's lookup; its build then stalls
  // at the build boundary with the address's flight held.
  while (engine->Metrics().misses == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::thread::id submitter = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread::id delivered_on;
  Result<ClassifyResult> joined(Status::Internal("not yet delivered"));
  engine->ClassifyAsync(
      address, {},
      [&](Result<ClassifyResult> outcome, const serve::RequestTimeline& tl) {
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        std::lock_guard<std::mutex> lock(mu);
        delivered_on = std::this_thread::get_id();
        joined = std::move(outcome);
        done = true;
        cv.notify_all();
      });
  EXPECT_EQ(engine->Metrics().coalesced, 1u) << "did not join at submit";
  caller.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(60), [&] { return done; }));
  }
  EXPECT_NE(delivered_on, submitter);
  ASSERT_TRUE(blocking.ok()) << blocking.status().message();
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  EXPECT_EQ(joined.value().predicted, blocking.value().predicted);
  EXPECT_EQ(joined.value().tx_count, blocking.value().tx_count);
  const auto m = engine->Metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.coalesced, 1u);
  EXPECT_EQ(m.batches, 1u) << "the joined request ran a batch of its own";
}

TEST_F(AsyncClassifyTest, DestructionWaitsForARequestThatJoinedAtSubmit) {
  FaultGuard guard;
  std::atomic<int> fired{0};
  std::atomic<int> ok{0};
  const auto count = [&](Result<ClassifyResult> outcome,
                         const serve::RequestTimeline&) {
    if (outcome.ok()) ok.fetch_add(1);
    fired.fetch_add(1);
  };
  {
    auto engine = MakeEngine();
    util::FaultInjector::Instance().ArmLatency(
        InferenceEngine::kFaultBatchBuild, 0.1);
    const AddressId address = (*watched_)[3].address;
    engine->ClassifyAsync(address, {}, count);  // a pool task builds
    while (engine->Metrics().misses == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine->ClassifyAsync(address, {}, count);  // joins that build
    EXPECT_EQ(engine->Metrics().coalesced, 1u);
    EXPECT_EQ(fired.load(), 0);
    // ~InferenceEngine blocks until both callbacks have fired.
  }
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(ok.load(), 2);
}

TEST_F(AsyncClassifyTest, LookupFaultFailsAnInlineHitExplicitly) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[0].address;
  ASSERT_TRUE(engine->Classify(address).ok());
  util::FaultInjector::Instance().Arm(InferenceEngine::kFaultBatchLookup);

  std::atomic<int> fired{0};
  engine->ClassifyAsync(
      address, {},
      [&](Result<ClassifyResult> outcome, const serve::RequestTimeline& tl) {
        ASSERT_FALSE(outcome.ok()) << "a faulted lookup must not answer";
        EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
        EXPECT_NE(outcome.status().message().find(
                      InferenceEngine::kFaultBatchLookup),
                  std::string::npos)
            << outcome.status().ToString();
        EXPECT_EQ(tl.outcome, serve::RequestOutcome::kError);
        EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 1) << "faulted hit was not delivered before return";
  EXPECT_EQ(engine->Metrics().full_hits, 0u);

  // The one-shot fault is spent: the next submit is a plain inline hit.
  engine->ClassifyAsync(
      address, {},
      [&](Result<ClassifyResult> outcome, const serve::RequestTimeline&) {
        EXPECT_TRUE(outcome.ok()) << outcome.status().message();
        fired.fetch_add(1);
      });
  EXPECT_EQ(fired.load(), 2);
}

}  // namespace
}  // namespace ba
