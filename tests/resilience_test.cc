// Tests for the serving resilience layer: the AdmissionController
// state machine (injected clock, no real sleeps on the decision path),
// per-request deadlines at every stage boundary, labeled degraded
// answers (stale cache / fallback / fresh-but-late) with epoch_lag
// verified against a serial re-run, retry-wrapped cache persistence,
// and the registry export of load gauges and admission instruments.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "chain/ledger.h"
#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/flight_recorder.h"
#include "serve/inference_engine.h"
#include "util/fs.h"
#include "util/retry.h"
#include "util/rng.h"

#include "predict_at_epoch.h"

namespace ba {
namespace {

using chain::AddressId;
using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::ClassifyOptions;
using serve::ClassifyResult;
using serve::InferenceEngine;
using Clock = AdmissionController::Clock;
using State = AdmissionController::State;
using Ms = std::chrono::milliseconds;

/// Every fault-injection test must leave the global injector clean.
class FaultGuard {
 public:
  FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
  ~FaultGuard() { util::FaultInjector::Instance().DisarmAll(); }
};

AdmissionOptions SmallAdmission() {
  AdmissionOptions o;
  o.max_inflight = 4;
  o.high_watermark = 10;
  o.low_watermark = 2;
  o.recovery_rate = 100.0;
  o.recovery_burst = 5;
  return o;
}

TEST(AdmissionOptionsTest, ValidateCatchesBadFields) {
  EXPECT_TRUE(AdmissionOptions{}.Validate().ok());
  AdmissionOptions o;
  o.max_inflight = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = AdmissionOptions{};
  o.low_watermark = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = AdmissionOptions{};
  o.high_watermark = o.low_watermark;
  EXPECT_FALSE(o.Validate().ok());
  o = AdmissionOptions{};
  o.recovery_rate = 0.0;
  EXPECT_FALSE(o.Validate().ok());
  o = AdmissionOptions{};
  o.recovery_burst = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(AdmissionControllerTest, AcceptsUnderLowBacklogShedsAtHighWatermark) {
  AdmissionController ctl(SmallAdmission());
  const Clock::time_point t0 = Clock::now();
  EXPECT_TRUE(ctl.AdmitAt(t0, 0, 0).ok());
  EXPECT_EQ(ctl.state(), State::kAccepting);
  ctl.Release();

  // Backlog at the high watermark flips to shedding; the rejection is
  // ResourceExhausted and the state sticks for subsequent requests.
  const Status st = ctl.AdmitAt(t0, 10, 0);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.state(), State::kShedding);
  EXPECT_EQ(ctl.AdmitAt(t0, 5, 0).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.inflight(), 0);
  EXPECT_EQ(ctl.admitted(), 1u);
  EXPECT_EQ(ctl.shed(), 2u);
}

TEST(AdmissionControllerTest, PriorityBypassesWatermarkButNotHardCap) {
  AdmissionController ctl(SmallAdmission());
  const Clock::time_point t0 = Clock::now();
  ASSERT_FALSE(ctl.AdmitAt(t0, 50, 0).ok());
  ASSERT_EQ(ctl.state(), State::kShedding);
  // Priority traffic cuts through the shed...
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ctl.AdmitAt(t0, 50, 1).ok()) << "priority admit " << i;
  }
  // ...until the hard in-flight budget, which binds everyone.
  EXPECT_EQ(ctl.AdmitAt(t0, 50, 1).code(),
            StatusCode::kResourceExhausted);
  for (int i = 0; i < 4; ++i) ctl.Release();
}

TEST(AdmissionControllerTest, RecoversGraduallyThroughTokenBucket) {
  AdmissionController ctl(SmallAdmission());
  const Clock::time_point t0 = Clock::now();
  ASSERT_FALSE(ctl.AdmitAt(t0, 20, 0).ok());
  ASSERT_EQ(ctl.state(), State::kShedding);

  // Backlog drained: the first probe enters recovery and consumes the
  // single up-front token; an immediate second probe finds it empty.
  EXPECT_TRUE(ctl.AdmitAt(t0 + Ms(10), 0, 0).ok());
  EXPECT_EQ(ctl.state(), State::kRecovering);
  ctl.Release();
  EXPECT_EQ(ctl.AdmitAt(t0 + Ms(10), 0, 0).code(),
            StatusCode::kResourceExhausted);

  // 20ms at 100 tokens/s refills 2 tokens — two more admits, then dry.
  EXPECT_TRUE(ctl.AdmitAt(t0 + Ms(30), 3, 0).ok());
  ctl.Release();
  EXPECT_TRUE(ctl.AdmitAt(t0 + Ms(30), 3, 0).ok());
  ctl.Release();
  EXPECT_EQ(ctl.AdmitAt(t0 + Ms(30), 3, 0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.state(), State::kRecovering);

  // A re-spike mid-recovery drops straight back to shedding.
  EXPECT_FALSE(ctl.AdmitAt(t0 + Ms(40), 30, 0).ok());
  EXPECT_EQ(ctl.state(), State::kShedding);

  // Drain again, then give the bucket time to fill completely with the
  // backlog low: full acceptance resumes.
  EXPECT_TRUE(ctl.AdmitAt(t0 + Ms(50), 0, 0).ok());
  ctl.Release();
  ASSERT_EQ(ctl.state(), State::kRecovering);
  EXPECT_TRUE(ctl.AdmitAt(t0 + Ms(200), 0, 0).ok());
  EXPECT_EQ(ctl.state(), State::kAccepting);
  ctl.Release();
}

TEST(AdmissionControllerTest, ShedDecisionIsFast) {
  AdmissionController ctl(SmallAdmission());
  const Clock::time_point t0 = Clock::now();
  ASSERT_FALSE(ctl.AdmitAt(t0, 100, 0).ok());
  // 1000 shed decisions in well under a second — each is one mutex
  // hold, no sleeps, no allocation beyond the status message.
  const auto start = Clock::now();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(ctl.AdmitAt(t0, 100, 0).ok());
  }
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - start).count(),
            1.0);
}

// Regression: the hard-budget rejection used to run BEFORE the state
// machine advanced, so sustained budget-exhausted overload kept the
// controller parked in `accepting` — and the instant one slot freed it
// admitted at full rate instead of metering through recovery.
TEST(AdmissionControllerTest, BudgetExhaustionStillAdvancesStateMachine) {
  AdmissionController ctl(SmallAdmission());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ctl.AdmitAt(t0, 0, 1).ok()) << "fill slot " << i;
  }
  ASSERT_EQ(ctl.state(), State::kAccepting);

  // Budget-bound shed arriving with the backlog past high_watermark:
  // the rejection is the budget's, but the state still transitions.
  const Status budget_shed = ctl.AdmitAt(t0 + Ms(1), 50, 0);
  ASSERT_EQ(budget_shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(budget_shed.message().find("budget"), std::string::npos)
      << budget_shed.ToString();
  EXPECT_EQ(ctl.state(), State::kShedding);

  // Backlog drains while the budget still binds: shedding -> recovering
  // happens on a budget-shed call too (and arms the one up-front token).
  EXPECT_EQ(ctl.AdmitAt(t0 + Ms(2), 0, 0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.state(), State::kRecovering);

  // Slots free with no time for the bucket to refill: exactly the
  // up-front token is admitted, then the bucket meters — the pre-fix
  // controller would still be `accepting` here and admit everything.
  for (int i = 0; i < 4; ++i) ctl.Release();
  EXPECT_TRUE(ctl.AdmitAt(t0 + Ms(2), 0, 0).ok());
  EXPECT_EQ(ctl.AdmitAt(t0 + Ms(2), 0, 0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ctl.state(), State::kRecovering);
  ctl.Release();
}

/// Fills `recorder` with `n` entries whose seq/address/trace_id all
/// identify the record order.
void FillRecorder(serve::FlightRecorder* recorder, uint64_t n) {
  serve::RequestTimeline t;
  for (uint64_t i = 0; i < n; ++i) {
    t.trace_id = i + 1;
    t.deliver_ns = static_cast<int64_t>(i);
    recorder->Record(/*address=*/i, t);
  }
}

// Regression: Snapshot reserved `max_entries` instead of the ring
// capacity (reallocating while collecting) and fully sorted the whole
// ring even when asked for a handful of entries.
TEST(FlightRecorderTest, TruncatedSnapshotKeepsNewestEntries) {
  serve::FlightRecorder recorder(64);
  FillRecorder(&recorder, 200);

  const auto top = recorder.Snapshot(10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 0; i < top.size(); ++i) {
    // Newest first: seqs 199, 198, ... — and each entry's payload is
    // the one recorded under that seq (record i got seq i).
    EXPECT_EQ(top[i].seq, 199u - i);
    EXPECT_EQ(top[i].address, top[i].seq);
    EXPECT_EQ(top[i].timeline.trace_id, top[i].seq + 1);
  }

  // The truncated snapshot is exactly the head of the full one.
  const auto full = recorder.Snapshot(recorder.capacity());
  ASSERT_EQ(full.size(), 64u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(full[i].seq, top[i].seq);
  }
}

TEST(FlightRecorderTest, TruncatedSnapshotIsNotTaxedLikeAFullOne) {
  // Regression: Snapshot used to reserve `max_entries` (so a truncated
  // snapshot of a big ring reallocated its way through 64k collected
  // entries) and then fully sorted the whole ring before truncating —
  // Snapshot(16) cost measurably MORE than Snapshot(capacity), whose
  // reserve happened to be right. Post-fix both reserve the ring size
  // and the truncated path partial_sorts, so it can only be cheaper.
  // Walking the per-slot mutexes dominates either way, so the gate is
  // deliberately "no slower", not a large speedup.
  serve::FlightRecorder recorder(1 << 16);
  FillRecorder(&recorder, recorder.capacity());

  double truncated = 1e9;
  double full = 1e9;
  for (int attempt = 0; attempt < 7; ++attempt) {
    auto start = Clock::now();
    const auto top = recorder.Snapshot(16);
    truncated = std::min(
        truncated,
        std::chrono::duration<double>(Clock::now() - start).count());
    ASSERT_EQ(top.size(), 16u);

    start = Clock::now();
    const auto all = recorder.Snapshot(recorder.capacity());
    full = std::min(
        full, std::chrono::duration<double>(Clock::now() - start).count());
    ASSERT_EQ(all.size(), recorder.capacity());
  }
  EXPECT_LT(truncated, full * 1.05)
      << "Snapshot(16) " << truncated << "s vs full " << full << "s";
}

/// Engine fixture: one small trained classifier per suite, a growing
/// ledger, and helpers to re-run inference serially at a past epoch.
class ResilienceServeTest : public ::testing::Test {
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

  /// Capped tx count of `address` on the live ledger (the engine's
  /// cache-key function, reproduced).
  static uint64_t CappedTxCount(AddressId address) {
    const size_t total = simulator_->ledger().TxCountOf(address);
    const size_t cap = static_cast<size_t>(
        classifier_->options().dataset.construction.max_txs_per_address);
    return static_cast<uint64_t>(std::min(total, cap));
  }

  /// Serial re-run of the inference path at the epoch where `address`
  /// had exactly `tx_count` (capped) transactions.
  static int PredictAtEpoch(AddressId address, uint64_t tx_count) {
    return testutil::PredictAtEpoch(*classifier_, simulator_->ledger(),
                                    address, tx_count);
  }

  /// Seals one block paying `address` so its live tx count moves past
  /// every cached epoch.
  static void GrowAddress(AddressId address) {
    chain::Ledger* ledger = simulator_->mutable_ledger();
    const chain::Timestamp now =
        ledger->block(ledger->height() - 1).timestamp +
        ledger->options().block_interval_seconds;
    ASSERT_TRUE(ledger->ApplyCoinbase(now, address).ok());
    ASSERT_TRUE(ledger->SealBlock(now).ok());
  }

  static ClassifyOptions ExpiredDeadline(bool allow_degraded = false) {
    ClassifyOptions o;
    o.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    o.allow_degraded = allow_degraded;
    return o;
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* watched_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* ResilienceServeTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* ResilienceServeTest::watched_ =
    nullptr;
core::BaClassifier* ResilienceServeTest::classifier_ = nullptr;

TEST_F(ResilienceServeTest, ExpiredDeadlineAtSubmitRejectsBeforeAnyWork) {
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[0].address;
  const auto result = engine->Classify(address, ExpiredDeadline());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Rejected before enqueueing: no batch ran, no graph was built.
  const auto m = engine->Metrics();
  EXPECT_EQ(m.batches, 0u);
  EXPECT_EQ(m.slices_built, 0u);
  EXPECT_EQ(m.deadline_exceeded, 1u);
  EXPECT_EQ(m.requests, 1u);
}

TEST_F(ResilienceServeTest, ExpiredDeadlineAnswersDegradedFromStaleCache) {
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[1].address;
  const auto warm = engine->Classify(address);
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  ASSERT_GT(warm.value().tx_count, 0u);

  GrowAddress(address);
  const uint64_t live = CappedTxCount(address);
  ASSERT_GT(live, warm.value().tx_count);

  const auto stale = engine->Classify(address, ExpiredDeadline(true));
  ASSERT_TRUE(stale.ok()) << stale.status().message();
  EXPECT_TRUE(stale.value().degraded);
  EXPECT_TRUE(stale.value().cache_hit);
  // The answer is pinned at the cached epoch and labeled with its lag
  // against the live chain...
  EXPECT_EQ(stale.value().tx_count, warm.value().tx_count);
  EXPECT_EQ(stale.value().epoch_lag, live - warm.value().tx_count);
  // ...and is exactly what a serial re-run at that epoch produces.
  EXPECT_EQ(stale.value().predicted,
            PredictAtEpoch(address, stale.value().tx_count));
  EXPECT_EQ(engine->Metrics().degraded_stale, 1u);
}

TEST_F(ResilienceServeTest, ExpiredDeadlineWithColdCacheUsesFallback) {
  serve::InferenceEngineOptions options;
  std::atomic<int> fallback_calls{0};
  options.degraded_fallback = [&fallback_calls](AddressId) {
    fallback_calls.fetch_add(1);
    return 3;
  };
  auto engine = MakeEngine(std::move(options));
  const AddressId address = (*watched_)[2].address;
  const auto result = engine->Classify(address, ExpiredDeadline(true));
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().degraded);
  EXPECT_FALSE(result.value().cache_hit);
  EXPECT_EQ(result.value().predicted, 3);
  EXPECT_EQ(result.value().epoch_lag, 0u);
  EXPECT_EQ(fallback_calls.load(), 1);
  EXPECT_EQ(engine->Metrics().degraded_fallback, 1u);
}

TEST_F(ResilienceServeTest,
       ExpiredDeadlineWithColdCacheAndNoFallbackStaysAnError) {
  auto engine = MakeEngine();
  const auto result =
      engine->Classify((*watched_)[3].address, ExpiredDeadline(true));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ResilienceServeTest,
       DeadlineExpiringBeforeBuildSkipsGraphConstruction) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[4].address;
  // The injected stall sits between the lookup and build stages; a
  // 5ms deadline survives the lookup but is gone at the boundary
  // re-check, so the engine must reject without building anything.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.05);
  ClassifyOptions o;
  o.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  const auto result = engine->Classify(address, o);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const auto m = engine->Metrics();
  EXPECT_EQ(m.batches, 1u);       // the batch ran...
  EXPECT_EQ(m.misses, 1u);        // ...and saw the cold address...
  EXPECT_EQ(m.slices_built, 0u);  // ...but never built a graph for it.
}

TEST_F(ResilienceServeTest,
       DeadlineExpiringBeforeBuildAnswersStaleWhenAllowed) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[5].address;
  const auto warm = engine->Classify(address);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm.value().tx_count, 0u);
  GrowAddress(address);
  const uint64_t live = CappedTxCount(address);
  const uint64_t slices_after_warm = engine->Metrics().slices_built;

  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.05);
  ClassifyOptions o;
  o.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  o.allow_degraded = true;
  const auto result = engine->Classify(address, o);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().degraded);
  EXPECT_EQ(result.value().tx_count, warm.value().tx_count);
  EXPECT_EQ(result.value().epoch_lag, live - warm.value().tx_count);
  EXPECT_EQ(result.value().predicted,
            PredictAtEpoch(address, result.value().tx_count));
  // The degraded answer cost no graph work beyond the warm-up's.
  EXPECT_EQ(engine->Metrics().slices_built, slices_after_warm);
}

TEST_F(ResilienceServeTest, LateCompletionIsLabeledDegraded) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[0].address;
  // Stall between build and aggregate: the answer is computed on time
  // but delivered late. With allow_degraded it comes back labeled, at
  // lag 0 (it IS the fresh epoch); without, it is an explicit error.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchAggregate, 0.05);
  ClassifyOptions o;
  o.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  o.allow_degraded = true;
  const auto late = engine->Classify(address, o);
  ASSERT_TRUE(late.ok()) << late.status().message();
  EXPECT_TRUE(late.value().degraded);
  EXPECT_EQ(late.value().epoch_lag, 0u);
  EXPECT_EQ(late.value().predicted,
            PredictAtEpoch(address, late.value().tx_count));
  EXPECT_EQ(engine->Metrics().degraded_late, 1u);

  util::FaultInjector::Instance().DisarmAll();
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchAggregate, 0.05);
  ClassifyOptions strict;
  strict.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const auto rejected = engine->Classify((*watched_)[1].address, strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ResilienceServeTest, InjectedBatchFaultsSurfaceAsExplicitErrors) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[2].address;
  for (const char* point : {InferenceEngine::kFaultBatchLookup,
                            InferenceEngine::kFaultBatchBuild,
                            InferenceEngine::kFaultBatchAggregate}) {
    util::FaultInjector::Instance().Arm(point);
    const auto result = engine->Classify(address);
    ASSERT_FALSE(result.ok()) << "fault point " << point;
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_NE(result.status().message().find(point), std::string::npos)
        << result.status().ToString();
    util::FaultInjector::Instance().DisarmAll();
    engine->ClearCache();
  }
  // With faults gone the same address classifies fine.
  EXPECT_TRUE(engine->Classify(address).ok());
}

TEST_F(ResilienceServeTest, SaveCacheRetriesTransientFaults) {
  FaultGuard guard;
  const std::string path = "/tmp/ba_resilience_cache_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  serve::InferenceEngineOptions options;
  options.cache_path = path;
  options.save_retry = util::RetryPolicy::Standard(3);
  options.save_retry.initial_backoff_seconds = 1e-4;
  options.save_retry.max_backoff_seconds = 1e-3;
  auto engine = MakeEngine(std::move(options));
  ASSERT_TRUE(engine->Classify((*watched_)[0].address).ok());

  // The very next save attempt dies; the retry policy rides it out.
  util::FaultInjector::Instance().Arm(InferenceEngine::kFaultCacheSave, 1);
  EXPECT_TRUE(engine->SaveCache().ok());
  EXPECT_EQ(util::FaultInjector::Instance().HitCount(
                InferenceEngine::kFaultCacheSave),
            2);
  EXPECT_TRUE(util::FileExists(path));
  std::remove(path.c_str());
}

TEST_F(ResilienceServeTest, EngineShedsUnderOverloadThenRecovers) {
  FaultGuard guard;
  serve::InferenceEngineOptions options;
  options.enable_admission = true;
  options.admission.max_inflight = 64;
  options.admission.high_watermark = 3;
  options.admission.low_watermark = 1;
  options.admission.recovery_rate = 2000.0;
  options.admission.recovery_burst = 4;
  auto engine = MakeEngine(std::move(options));

  // Slow every batch so concurrent clients pile up a backlog.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.02);
  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 6;
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> other_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kCallsPerClient; ++i) {
        const AddressId address =
            (*watched_)[static_cast<size_t>(c * kCallsPerClient + i) %
                        watched_->size()]
                .address;
        const auto result = engine->Classify(address);
        if (result.ok()) {
          ok_count.fetch_add(1);
        } else if (result.status().code() ==
                   StatusCode::kResourceExhausted) {
          shed_count.fetch_add(1);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // No request lost and no unexpected outcome: every call resolved to
  // success or an explicit shed.
  EXPECT_EQ(ok_count + shed_count, kClients * kCallsPerClient);
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  // Blocking callers never queue, yet admission must still see them.
  EXPECT_GT(shed_count.load(), 0);
  const auto m = engine->Metrics();
  EXPECT_EQ(m.shed, static_cast<uint64_t>(shed_count.load()));

  // After the storm passes the engine readmits: the token bucket
  // refills within a few milliseconds at this recovery rate.
  util::FaultInjector::Instance().DisarmAll();
  bool recovered = false;
  for (int attempt = 0; attempt < 200 && !recovered; ++attempt) {
    recovered = engine->Classify((*watched_)[0].address).ok();
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(engine->admission()->inflight(), 0);
}

// Regression for the degraded-answer contract (protocol.h): the
// build-boundary stale path used to leave `slices_reused` at 0 while
// the submit fast path reported the cached entry's slice count — the
// same answer described two different ways depending on which stage
// produced it. Every stale answer now sets the same fields.
TEST_F(ResilienceServeTest, DegradedResultContractStaleAcrossPaths) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[2].address;
  const auto warm = engine->Classify(address);
  ASSERT_TRUE(warm.ok()) << warm.status().message();
  ASSERT_GT(warm.value().tx_count, 0u);
  GrowAddress(address);
  const uint64_t live = CappedTxCount(address);
  ASSERT_GT(live, warm.value().tx_count);

  // Path 1: dead on arrival — the submit fast path answers stale.
  const auto submit_stale = engine->Classify(address, ExpiredDeadline(true));
  ASSERT_TRUE(submit_stale.ok()) << submit_stale.status().message();

  // Path 2: alive through the cache lookup, expired at the build
  // boundary — the batch stale path answers.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.05);
  ClassifyOptions o;
  o.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  o.allow_degraded = true;
  const auto batch_stale = engine->Classify(address, o);
  ASSERT_TRUE(batch_stale.ok()) << batch_stale.status().message();

  for (const ClassifyResult* r :
       {&submit_stale.value(), &batch_stale.value()}) {
    EXPECT_TRUE(r->degraded);
    EXPECT_TRUE(r->cache_hit);
    EXPECT_EQ(r->tx_count, warm.value().tx_count);
    EXPECT_EQ(r->epoch_lag, live - warm.value().tx_count);
    EXPECT_GT(r->slices_reused, 0);
    EXPECT_EQ(r->predicted, PredictAtEpoch(address, r->tx_count));
  }
  // Field-for-field: both paths describe the same answer identically.
  EXPECT_EQ(submit_stale.value().predicted, batch_stale.value().predicted);
  EXPECT_EQ(submit_stale.value().slices_reused,
            batch_stale.value().slices_reused);
  EXPECT_EQ(engine->Metrics().degraded_stale, 2u);
}

// Companion contract pin for the fallback leg: a cold-cache degraded
// answer reports the live epoch with no lag and no cache reuse, from
// the submit fast path and from inside the batch alike.
TEST_F(ResilienceServeTest, DegradedResultContractFallbackAcrossPaths) {
  FaultGuard guard;
  serve::InferenceEngineOptions options;
  options.degraded_fallback = [](AddressId) { return 2; };
  auto engine = MakeEngine(std::move(options));
  const AddressId address = (*watched_)[3].address;
  const uint64_t live = CappedTxCount(address);
  ASSERT_GT(live, 0u);

  const auto submit_fb = engine->Classify(address, ExpiredDeadline(true));
  ASSERT_TRUE(submit_fb.ok()) << submit_fb.status().message();

  // Expire inside the batch: the injected stall sits in front of the
  // cache lookup, so the 5ms deadline dies mid-pipeline with the cache
  // still cold for this address.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchLookup, 0.05);
  ClassifyOptions o;
  o.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  o.allow_degraded = true;
  const auto batch_fb = engine->Classify(address, o);
  ASSERT_TRUE(batch_fb.ok()) << batch_fb.status().message();

  for (const ClassifyResult* r : {&submit_fb.value(), &batch_fb.value()}) {
    EXPECT_TRUE(r->degraded);
    EXPECT_FALSE(r->cache_hit);
    EXPECT_EQ(r->predicted, 2);
    EXPECT_EQ(r->tx_count, live);
    EXPECT_EQ(r->epoch_lag, 0u);
    EXPECT_EQ(r->slices_reused, 0);
    EXPECT_EQ(r->slices_built, 0);
  }
  EXPECT_EQ(engine->Metrics().degraded_fallback, 2u);
}

// Each async miss is a pool task of its own, so with default options a
// miss submitted while another one is stuck mid-build builds on the
// other worker instead of waiting behind it.
TEST_F(ResilienceServeTest, AsyncMissesBuildConcurrentlyOnThePool) {
  FaultGuard guard;
  auto engine = MakeEngine();
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.15);

  std::atomic<int> done{0};
  const auto deliver = [&done](Result<ClassifyResult> outcome,
                               const serve::RequestTimeline&) {
    EXPECT_TRUE(outcome.ok()) << outcome.status().message();
    done.fetch_add(1);
  };
  const auto start = std::chrono::steady_clock::now();
  engine->ClassifyAsync((*watched_)[0].address, {}, deliver);
  // A is counted at its task's lookup; its build then stalls at the
  // build boundary.
  while (engine->Metrics().misses == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine->ClassifyAsync((*watched_)[1].address, {}, deliver);
  while (done.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Serialized misses would stack the two 150ms stalls (>= 300ms). The
  // bound leaves slack for the real lookup/build work behind the stalls.
  EXPECT_LT(elapsed, 0.28) << "async misses serialized behind one another";
}

// The blocking twin: each blocking caller leads its own batch, so with
// default options two slow batches from two callers overlap too.
TEST_F(ResilienceServeTest, BlockingCallersLeadTheirOwnBatches) {
  FaultGuard guard;
  auto engine = MakeEngine();
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.15);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> callers;
  for (size_t i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] {
      const auto outcome = engine->Classify((*watched_)[i].address);
      EXPECT_TRUE(outcome.ok()) << outcome.status().message();
    });
  }
  for (auto& t : callers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 0.28) << "blocking callers serialized behind one leader";
}

// A sweep request (kNoPromote) owns a build and a normal request joins
// it after the build boundary. The joiner still earns the answer a
// cache slot, and its timeline records the build it waited on.
TEST_F(ResilienceServeTest, NormalJoinerOfASweepBuildEarnsTheCacheSlot) {
  FaultGuard guard;
  auto engine = MakeEngine();
  const AddressId address = (*watched_)[4].address;
  // Stalls the sweep's batch after its build, before its cache store.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchAggregate, 0.2);
  ClassifyOptions sweep;
  sweep.cache_mode = serve::CacheMode::kNoPromote;
  std::thread sweeper([&] {
    const auto outcome = engine->Classify(address, sweep);
    EXPECT_TRUE(outcome.ok()) << outcome.status().message();
  });
  std::this_thread::sleep_for(Ms(80));
  const auto joined = engine->Classify(address);
  sweeper.join();
  ASSERT_TRUE(joined.ok()) << joined.status().message();

  const auto m = engine->Metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.coalesced, 1u);
  EXPECT_EQ(engine->CacheSize(), 1u);
  const serve::RequestTimeline& tl = joined.value().timeline;
  EXPECT_GE(tl.lookup_ns, 0);
  EXPECT_GE(tl.build_ns, tl.lookup_ns);
  EXPECT_GE(tl.aggregate_ns, tl.build_ns);
}

TEST_F(ResilienceServeTest, RegistryExportsLoadAndAdmissionInstruments) {
  serve::InferenceEngineOptions options;
  options.enable_admission = true;
  auto engine = MakeEngine(std::move(options));
  ASSERT_TRUE(engine->Classify((*watched_)[0].address).ok());
  const auto m = engine->Metrics();  // refreshes the load gauges

  auto& reg = obs::MetricsRegistry::Instance();
  const std::string expo = reg.JsonExposition();
  // Per-engine load gauges exist under the engine's registry name...
  bool saw_backlog = false;
  bool saw_queue = false;
  for (const std::string& name : reg.Names()) {
    if (name.find(".pool_backlog") != std::string::npos) {
      saw_backlog = true;
    }
    if (name.find(".queue_depth") != std::string::npos) saw_queue = true;
  }
  EXPECT_TRUE(saw_backlog);
  EXPECT_TRUE(saw_queue);
  // ...and the process-wide admission instruments moved.
  EXPECT_NE(expo.find("\"serve.admission.inflight\""), std::string::npos);
  EXPECT_GT(reg.GetCounter("serve.admission.admitted")->value(), 0u);
  // Quiesced engine: everything admitted has been released.
  EXPECT_EQ(reg.GetGauge("serve.admission.inflight")->value(), 0);
  EXPECT_EQ(m.admission_state, "accepting");
}

}  // namespace
}  // namespace ba
