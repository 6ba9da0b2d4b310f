// Serving-layer tests: the batched concurrent InferenceEngine must
// agree with serial BaClassifier::Predict, reuse its cache correctly as
// the ledger grows, survive killed cache saves, report sane metrics,
// and keep a sweeping client from growing its cache (the sweep
// detector must mark scanners, and only scanners, with sticky
// unmarking). Run under BA_SANITIZE=thread to validate the concurrency.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "obs/metrics.h"
#include "predict_at_epoch.h"
#include "serve/inference_engine.h"
#include "serve/sweep_detector.h"
#include "util/fs.h"

namespace ba::serve {
namespace {

using chain::AddressId;

// ---------------------------------------------------------------------
// SweepDetector
// ---------------------------------------------------------------------

TEST(SweepDetectorTest, MarksAfterMissStreakHitResetsIt) {
  SweepDetector detector(4);
  const uint64_t client = 7;
  for (int i = 0; i < 3; ++i) detector.Observe(client, false);
  EXPECT_EQ(detector.ModeFor(client), CacheMode::kNormal);
  // A hit mid-streak resets it: three more misses are not enough.
  detector.Observe(client, true);
  for (int i = 0; i < 3; ++i) detector.Observe(client, false);
  EXPECT_EQ(detector.ModeFor(client), CacheMode::kNormal);
  EXPECT_EQ(detector.sweeping_clients(), 0u);
  // The fourth consecutive miss marks the client.
  detector.Observe(client, false);
  EXPECT_EQ(detector.ModeFor(client), CacheMode::kNoPromote);
  EXPECT_EQ(detector.sweeping_clients(), 1u);
}

TEST(SweepDetectorTest, UnmarkIsStickyAndRemarkIsFast) {
  SweepDetector detector(8);
  const uint64_t client = 3;
  for (int i = 0; i < 8; ++i) detector.Observe(client, false);
  ASSERT_EQ(detector.ModeFor(client), CacheMode::kNoPromote);

  // A scanner wrapping over its own few cached entries produces short
  // hit runs; one hit (or three) must not clear the mark.
  for (int i = 0; i < 3; ++i) {
    detector.Observe(client, true);
    EXPECT_EQ(detector.ModeFor(client), CacheMode::kNoPromote)
        << "unmarked after only " << i + 1 << " hits";
  }
  // The fourth consecutive hit clears it — a genuine working-set
  // client hits continuously and recovers normal promotion quickly.
  detector.Observe(client, true);
  EXPECT_EQ(detector.ModeFor(client), CacheMode::kNormal);
  EXPECT_EQ(detector.sweeping_clients(), 0u);

  // A repeat offender re-marks on a quarter of the threshold: the full
  // insertion budget is never sold twice.
  detector.Observe(client, false);
  EXPECT_EQ(detector.ModeFor(client), CacheMode::kNormal);
  detector.Observe(client, false);
  EXPECT_EQ(detector.ModeFor(client), CacheMode::kNoPromote);
}

TEST(SweepDetectorTest, AnonymousAndDisabledClientsAreNeverTracked) {
  SweepDetector detector(2);
  for (int i = 0; i < 10; ++i) detector.Observe(/*client_id=*/0, false);
  EXPECT_EQ(detector.ModeFor(0), CacheMode::kNormal);
  EXPECT_EQ(detector.sweeping_clients(), 0u);

  SweepDetector disabled(0);
  for (int i = 0; i < 10; ++i) disabled.Observe(5, false);
  EXPECT_EQ(disabled.ModeFor(5), CacheMode::kNormal);
  EXPECT_EQ(disabled.sweeping_clients(), 0u);
}

TEST(SweepDetectorTest, ForgetDropsClientState) {
  SweepDetector detector(3);
  for (int i = 0; i < 3; ++i) detector.Observe(11, false);
  ASSERT_EQ(detector.ModeFor(11), CacheMode::kNoPromote);
  detector.Forget(11);
  EXPECT_EQ(detector.ModeFor(11), CacheMode::kNormal);
  EXPECT_EQ(detector.sweeping_clients(), 0u);
  // A recycled connection id starts from a clean slate: the fast
  // re-mark path does not survive Forget.
  detector.Observe(11, false);
  detector.Observe(11, false);
  EXPECT_EQ(detector.ModeFor(11), CacheMode::kNormal);
}

// ---------------------------------------------------------------------
// InferenceEngine
// ---------------------------------------------------------------------

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/ba_serve_" + name + "_" + std::to_string(::getpid())) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Shared fixture: one small economy and one trained classifier,
/// materialized once per suite (training dominates the suite's cost).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 23;
    config.num_blocks = 100;
    config.num_retail_users = 30;
    config.miners_per_pool = 12;
    config.gamblers_per_house = 6;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());

    auto labeled = simulator_->CollectLabeledAddresses(3);
    Rng rng(1);
    const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);
    train_ = new std::vector<datagen::LabeledAddress>(split.train);
    test_ = new std::vector<datagen::LabeledAddress>(split.test);
    ASSERT_GE(test_->size(), 10u);

    core::BaClassifier::Options opts;
    opts.dataset.construction.slice_size = 20;
    opts.graph_model.epochs = 4;
    opts.graph_model.embed_dim = 16;
    opts.graph_model.hidden_dim = 32;
    opts.aggregator.epochs = 8;
    auto created = core::BaClassifier::Create(opts);
    ASSERT_TRUE(created.ok()) << created.status().message();
    classifier_ = created.value().release();
    ASSERT_TRUE(classifier_->Train(simulator_->ledger(), *train_).ok());
  }

  static void TearDownTestSuite() {
    delete classifier_;
    delete simulator_;
    delete train_;
    delete test_;
    classifier_ = nullptr;
    simulator_ = nullptr;
    train_ = nullptr;
    test_ = nullptr;
  }

  static std::unique_ptr<InferenceEngine> MakeEngine(
      InferenceEngineOptions options = {}) {
    auto engine = InferenceEngine::Create(classifier_, &simulator_->ledger(),
                                          options);
    EXPECT_TRUE(engine.ok()) << engine.status().message();
    return std::move(engine.value());
  }

  static std::vector<int> SerialTruth(
      const std::vector<datagen::LabeledAddress>& addresses) {
    std::vector<int> expected;
    EXPECT_TRUE(
        classifier_->Predict(simulator_->ledger(), addresses, &expected)
            .ok());
    return expected;
  }

  static datagen::Simulator* simulator_;
  static std::vector<datagen::LabeledAddress>* train_;
  static std::vector<datagen::LabeledAddress>* test_;
  static core::BaClassifier* classifier_;
};

datagen::Simulator* ServeTest::simulator_ = nullptr;
std::vector<datagen::LabeledAddress>* ServeTest::train_ = nullptr;
std::vector<datagen::LabeledAddress>* ServeTest::test_ = nullptr;
core::BaClassifier* ServeTest::classifier_ = nullptr;

TEST_F(ServeTest, ConcurrentClassifyMatchesSerialPredict) {
  const std::vector<int> expected = SerialTruth(*test_);
  auto engine = MakeEngine();

  // Four client threads, each querying every test address — repeats
  // included, exactly the monitoring workload the engine batches.
  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < test_->size(); ++i) {
        auto result = engine->Classify((*test_)[i].address);
        if (!result.ok() ||
            result.value().predicted != expected[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.requests, kClients * test_->size());
  EXPECT_GE(m.batches, 1u);
  // Every request is accounted for exactly once...
  EXPECT_EQ(m.full_hits + m.partial_hits + m.misses + m.coalesced +
                m.empty_history,
            m.requests);
  // ...and each address is computed at most once across all four client
  // passes — repeats are cache hits or batch-coalesced.
  EXPECT_LE(m.misses + m.partial_hits, test_->size());
  EXPECT_GE(m.full_hits + m.coalesced, (kClients - 1) * test_->size());
}

TEST_F(ServeTest, ClassifyBatchMatchesSerialPredict) {
  const std::vector<int> expected = SerialTruth(*test_);
  auto engine = MakeEngine();
  std::vector<chain::AddressId> addresses;
  for (const auto& a : *test_) addresses.push_back(a.address);

  const auto results = engine->ClassifyBatch(addresses);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].value().predicted, expected[i]);
  }
}

TEST_F(ServeTest, RepeatQueryIsAFullCacheHit) {
  auto engine = MakeEngine();
  const chain::AddressId address = (*test_)[0].address;

  auto first = engine->Classify(address);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  EXPECT_GT(first.value().slices_built, 0);

  auto second = engine->Classify(address);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(second.value().slices_built, 0);
  EXPECT_EQ(second.value().predicted, first.value().predicted);

  const InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.full_hits, 1u);
  EXPECT_EQ(m.misses, 1u);
}

TEST_F(ServeTest, LedgerGrowthInvalidatesOnlyTheTail) {
  // Give one test address extra transactions by paying it coinbases on
  // fresh blocks; complete cached slices must survive, the tail must
  // rebuild, and the result must equal a from-scratch classification.
  const int slice_size =
      classifier_->options().dataset.construction.slice_size;
  chain::Ledger* ledger = simulator_->mutable_ledger();
  // Busiest test address; pay it coinbases until it owns at least one
  // complete slice, so the second query has a prefix worth reusing.
  datagen::LabeledAddress target = (*test_)[0];
  for (const auto& a : *test_) {
    if (ledger->TransactionsOf(a.address).size() >
        ledger->TransactionsOf(target.address).size()) {
      target = a;
    }
  }
  chain::Timestamp seed_t = ledger->block(ledger->height() - 1).timestamp;
  while (ledger->TransactionsOf(target.address).size() <
         static_cast<size_t>(slice_size)) {
    seed_t += 600;
    ASSERT_TRUE(ledger->ApplyCoinbase(seed_t, target.address).ok());
    ASSERT_TRUE(ledger->SealBlock(seed_t).ok());
  }
  const uint64_t before = ledger->TransactionsOf(target.address).size();

  auto engine = MakeEngine();
  auto first = engine->Classify(target.address);
  ASSERT_TRUE(first.ok());

  chain::Timestamp t = seed_t;
  for (int i = 0; i < 3; ++i) {
    t += 600;
    ASSERT_TRUE(ledger->ApplyCoinbase(t, target.address).ok());
    ASSERT_TRUE(ledger->SealBlock(t).ok());
  }
  ASSERT_GT(ledger->TransactionsOf(target.address).size(), before);

  auto second = engine->Classify(target.address);
  ASSERT_TRUE(second.ok());
  const ClassifyResult r = second.value();
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.slices_reused,
            static_cast<int>(before) / slice_size);
  EXPECT_GT(r.slices_built, 0);

  // Incremental result == cold engine (no cache) == serial facade.
  auto cold = MakeEngine();
  auto from_scratch = cold->Classify(target.address);
  ASSERT_TRUE(from_scratch.ok());
  EXPECT_EQ(r.predicted, from_scratch.value().predicted);
  EXPECT_EQ(SerialTruth({target})[0], r.predicted);

  const InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.partial_hits, 1u);
  EXPECT_GT(m.slices_reused, 0u);
}

TEST_F(ServeTest, MultiWindowPartialRebuildMatchesAColdEngine) {
  // A history of more than two build windows, cached at a complete-slice
  // count that is not a window multiple, then grown by more than a
  // window: the rebuild starts mid-window and spans two windows, and
  // every slice row must land at its slice index.
  constexpr int kWindow = 8;  // slices a miss builds at a time
  const int slice_size =
      classifier_->options().dataset.construction.slice_size;
  chain::Ledger* ledger = simulator_->mutable_ledger();
  datagen::LabeledAddress target = (*test_)[0];
  for (const auto& a : *test_) {
    if (ledger->TransactionsOf(a.address).size() >
        ledger->TransactionsOf(target.address).size()) {
      target = a;
    }
  }
  chain::Timestamp t = ledger->block(ledger->height() - 1).timestamp;
  auto grow_to = [&](size_t tx_count) {
    while (ledger->TransactionsOf(target.address).size() < tx_count) {
      t += 600;
      ASSERT_TRUE(ledger->ApplyCoinbase(t, target.address).ok());
      ASSERT_TRUE(ledger->SealBlock(t).ok());
    }
  };
  // 17 complete slices plus half a slice: 18 slices over three windows.
  grow_to(static_cast<size_t>((2 * kWindow + 1) * slice_size +
                              slice_size / 2));
  const uint64_t before = ledger->TransactionsOf(target.address).size();
  const int complete = static_cast<int>(before) / slice_size;
  ASSERT_GE(complete, 2 * kWindow + 1);
  ASSERT_NE(complete % kWindow, 0);

  TempFile warm_file("multiwindow_warm");
  InferenceEngineOptions warm_options;
  warm_options.cache_path = warm_file.path();
  auto engine = MakeEngine(warm_options);
  auto first = engine->Classify(target.address);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first.value().tx_count, before);
  EXPECT_EQ(first.value().predicted,
            testutil::PredictAtEpoch(*classifier_, *ledger, target.address,
                                     before));

  // Grow by more than one window, so the rebuild spans two.
  grow_to(before + static_cast<size_t>((kWindow + 2) * slice_size + 3));
  const uint64_t after = ledger->TransactionsOf(target.address).size();
  const int num_slices =
      static_cast<int>((after + static_cast<uint64_t>(slice_size) - 1) /
                       static_cast<uint64_t>(slice_size));
  auto second = engine->Classify(target.address);
  ASSERT_TRUE(second.ok()) << second.status().message();
  const ClassifyResult r = second.value();
  EXPECT_EQ(r.tx_count, after);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.slices_reused, complete);
  EXPECT_EQ(r.slices_built, num_slices - complete);
  EXPECT_GT(r.slices_built, kWindow);
  EXPECT_EQ(r.predicted, testutil::PredictAtEpoch(*classifier_, *ledger,
                                                  target.address, after));

  // The grown entry equals a cold engine's, byte for byte: BASV holds
  // every slice row and no LRU tick.
  TempFile cold_file("multiwindow_cold");
  InferenceEngineOptions cold_options;
  cold_options.cache_path = cold_file.path();
  auto cold = MakeEngine(cold_options);
  auto from_scratch = cold->Classify(target.address);
  ASSERT_TRUE(from_scratch.ok()) << from_scratch.status().message();
  EXPECT_EQ(from_scratch.value().slices_built, num_slices);
  ASSERT_EQ(engine->CacheSize(), 1u);
  ASSERT_EQ(cold->CacheSize(), 1u);
  ASSERT_TRUE(engine->SaveCache().ok());
  ASSERT_TRUE(cold->SaveCache().ok());
  const auto warm_image = util::ReadFileToString(warm_file.path());
  const auto cold_image = util::ReadFileToString(cold_file.path());
  ASSERT_TRUE(warm_image.ok() && cold_image.ok());
  EXPECT_TRUE(warm_image.value() == cold_image.value())
      << "partially rebuilt cache entry differs from a cold build";
}

TEST_F(ServeTest, MetricsAreConsistent) {
  auto engine = MakeEngine();
  for (int round = 0; round < 2; ++round) {
    for (const auto& a : *test_) {
      ASSERT_TRUE(engine->Classify(a.address).ok());
    }
  }
  const InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.requests, 2 * test_->size());
  EXPECT_EQ(m.full_hits + m.partial_hits + m.misses + m.coalesced +
                m.empty_history,
            m.requests);
  EXPECT_EQ(m.request_latency.count, m.requests);
  EXPECT_LE(m.request_latency.p50_seconds, m.request_latency.p95_seconds);
  EXPECT_LE(m.request_latency.p95_seconds, m.request_latency.p99_seconds);
  EXPECT_LE(m.request_latency.p99_seconds,
            m.request_latency.max_seconds + 1e-9);
  EXPECT_GT(m.hit_rate, 0.0);
  EXPECT_NE(m.ToString().find("requests"), std::string::npos);
  EXPECT_NE(m.ToJson().find("\"requests\""), std::string::npos);
}

/// Keys of the JSON object `json` at its top level, in order. The text
/// of every value that is itself an object lands in `objects` under its
/// key. Enough JSON for the engine's own flat snapshot.
std::vector<std::string> TopLevelKeys(
    const std::string& json, std::map<std::string, std::string>* objects) {
  std::vector<std::string> keys;
  int depth = 0;
  size_t object_start = 0;
  char last = '\0';  // last structural character outside strings
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      size_t end = i + 1;
      while (end < json.size() && json[end] != '"') {
        end += json[end] == '\\' ? 2 : 1;
      }
      if (depth == 1 && (last == '{' || last == ',')) {
        keys.push_back(json.substr(i + 1, end - i - 1));
      }
      i = end;
      last = '"';
      continue;
    }
    if (c == '{' || c == '[') {
      if (++depth == 2 && c == '{') object_start = i;
    } else if (c == '}' || c == ']') {
      if (depth-- == 2 && c == '}' && !keys.empty()) {
        (*objects)[keys.back()] =
            json.substr(object_start, i - object_start + 1);
      }
    }
    if (c != ' ') last = c;
  }
  return keys;
}

TEST_F(ServeTest, MetricsJsonKeySetIsPinned) {
  auto engine = MakeEngine();
  ASSERT_TRUE(engine->Classify((*test_)[0].address).ok());
  const InferenceMetricsSnapshot m = engine->Metrics();

  // Consumers (bench JSON, the admin scrape, dashboards) key on these
  // names: adding, dropping or renaming one must be a visible change.
  const std::set<std::string> kKeys = {
      "requests",          "full_hits",       "partial_hits",
      "misses",            "coalesced",       "empty_history",
      "batches",           "slices_built",    "slices_reused",
      "cache_entries",     "cache_evictions", "pool_backlog",
      "queue_depth",       "shed",            "deadline_exceeded",
      "degraded_stale",    "degraded_fallback", "degraded_late",
      "slow_requests",     "admission_state", "hit_rate",
      "build_seconds",     "embed_seconds",   "aggregate_seconds",
      "request_latency",   "batch_latency"};
  const std::set<std::string> kHistogramKeys = {"count", "mean_s", "p50_s",
                                                "p95_s", "p99_s",  "max_s"};

  std::map<std::string, std::string> objects;
  const std::vector<std::string> keys = TopLevelKeys(m.ToJson(), &objects);
  EXPECT_EQ(keys.size(), kKeys.size()) << m.ToJson();  // no duplicates
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()), kKeys)
      << m.ToJson();
  ASSERT_EQ(objects.size(), 2u) << m.ToJson();
  for (const char* histogram : {"request_latency", "batch_latency"}) {
    std::map<std::string, std::string> nested;
    const std::vector<std::string> sub =
        TopLevelKeys(objects[histogram], &nested);
    EXPECT_EQ(sub.size(), kHistogramKeys.size()) << objects[histogram];
    EXPECT_EQ(std::set<std::string>(sub.begin(), sub.end()), kHistogramKeys)
        << histogram << ": " << objects[histogram];
    EXPECT_TRUE(nested.empty());
  }
  // The text rendering carries the same fields, one `name value` line
  // each.
  const std::string text = m.ToString();
  for (const std::string& key : kKeys) {
    EXPECT_NE(text.find(key + " "), std::string::npos) << key << "\n" << text;
  }
}

TEST_F(ServeTest, EnginePublishesRegistryProviderWhileAlive) {
  std::string provider_name;
  {
    auto engine = MakeEngine();
    ASSERT_TRUE(engine->Classify((*test_)[0].address).ok());
    // The engine registered a uniquely named serve.engine.<n> provider;
    // its JSON in the process-wide exposition is the same snapshot the
    // engine reports directly.
    const std::string expo =
        obs::MetricsRegistry::Instance().JsonExposition();
    // Find the provider entry (its value is a JSON object, "name":{...}),
    // skipping the engine's serve.engine.<n>.* load gauges whose values
    // are plain numbers.
    size_t at = expo.find("\"serve.engine.");
    while (at != std::string::npos) {
      const size_t close = expo.find('"', at + 1);
      ASSERT_NE(close, std::string::npos) << expo;
      if (expo.compare(close, 3, "\":{") == 0) break;
      at = expo.find("\"serve.engine.", close);
    }
    ASSERT_NE(at, std::string::npos) << expo;
    provider_name = expo.substr(at + 1, expo.find('"', at + 1) - at - 1);
    EXPECT_NE(expo.find("\"requests\":"), std::string::npos);
    // The migrated snapshot keeps its meaning: same counters through
    // the registry provider as through Metrics().
    const InferenceMetricsSnapshot m = engine->Metrics();
    EXPECT_NE(expo.find("\"requests\":" + std::to_string(m.requests)),
              std::string::npos);
  }
  // Destroyed engine must have unregistered its provider. Match the
  // exact JSON key: the engine's load gauges
  // (serve.engine.<n>.pool_backlog / .queue_depth) are registry
  // instruments and legitimately outlive it.
  EXPECT_EQ(obs::MetricsRegistry::Instance().JsonExposition().find(
                "\"" + provider_name + "\":"),
            std::string::npos);
}

TEST_F(ServeTest, ThreadPoolInstrumentsCountServeWork) {
  auto& reg = obs::MetricsRegistry::Instance();
  const uint64_t tasks_before =
      reg.GetCounter("util.thread_pool.tasks")->value();
  {
    auto engine = MakeEngine();
    std::vector<chain::AddressId> addresses;
    for (const auto& a : *test_) addresses.push_back(a.address);
    // One batch of many misses: its stage-2 fan-out submits pool
    // helpers, so the process-wide counter moved.
    for (const auto& r : engine->ClassifyBatch(addresses)) {
      ASSERT_TRUE(r.ok()) << r.status().message();
    }
    EXPECT_GT(reg.GetCounter("util.thread_pool.tasks")->value(),
              tasks_before);
  }
  // The engine's pool drained on teardown: every Add(+1) met its
  // Add(-1), including helpers that found no chunk left to claim.
  EXPECT_EQ(reg.GetGauge("util.thread_pool.queue_depth")->value(), 0);
}

TEST_F(ServeTest, ConcurrentMissesOnOneAddressBuildOnce) {
  util::FaultInjector::Instance().DisarmAll();
  const datagen::LabeledAddress target = (*test_)[0];
  const int expected = SerialTruth({target})[0];
  auto engine = MakeEngine();
  // Hold the first build at its build boundary long enough for every
  // other caller to find it in flight.
  util::FaultInjector::Instance().ArmLatency(
      InferenceEngine::kFaultBatchBuild, 0.3);
  constexpr int kCallers = 6;
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kCallers) std::this_thread::yield();
      const auto r = engine->Classify(target.address);
      if (!r.ok() || r.value().predicted != expected) wrong.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  util::FaultInjector::Instance().DisarmAll();
  EXPECT_EQ(wrong.load(), 0);
  const InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.requests, static_cast<uint64_t>(kCallers));
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.coalesced, static_cast<uint64_t>(kCallers - 1));
}

TEST_F(ServeTest, UnknownAddressIsRejectedNotFatal) {
  auto engine = MakeEngine();
  auto result = engine->Classify(static_cast<chain::AddressId>(1u << 30));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, CachePersistsAcrossRestart) {
  TempFile cache("warm");
  InferenceEngineOptions options;
  options.cache_path = cache.path();
  {
    auto engine = MakeEngine(options);
    for (const auto& a : *test_) {
      ASSERT_TRUE(engine->Classify(a.address).ok());
    }
    ASSERT_TRUE(engine->SaveCache().ok());
  }
  // "Restarted server": a fresh engine warm-starts from the file and
  // answers every repeat query from cache.
  auto engine = MakeEngine(options);
  EXPECT_GT(engine->CacheSize(), 0u);
  for (const auto& a : *test_) {
    auto result = engine->Classify(a.address);
    ASSERT_TRUE(result.ok());
    if (!simulator_->ledger().TransactionsOf(a.address).empty()) {
      EXPECT_TRUE(result.value().cache_hit);
    }
  }
  EXPECT_EQ(engine->Metrics().misses, 0u);
}

TEST_F(ServeTest, KilledCacheSaveLeavesPreviousFileIntact) {
  TempFile cache("killed");
  InferenceEngineOptions options;
  options.cache_path = cache.path();
  auto engine = MakeEngine(options);
  ASSERT_TRUE(engine->Classify((*test_)[0].address).ok());
  ASSERT_TRUE(engine->SaveCache().ok());

  // The save path itself is fault-injectable...
  util::FaultInjector::Instance().Arm(InferenceEngine::kFaultCacheSave);
  const Status s = engine->SaveCache();
  util::FaultInjector::Instance().DisarmAll();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find(InferenceEngine::kFaultCacheSave),
            std::string::npos);

  // ...and so is every filesystem stage beneath it; a kill at any of
  // them must leave the previous cache image loadable.
  ASSERT_TRUE(engine->Classify((*test_)[1].address).ok());
  for (const std::string& point : util::AtomicFileWriter::FaultPoints()) {
    util::FaultInjector::Instance().Arm(point);
    EXPECT_FALSE(engine->SaveCache().ok()) << point;
    util::FaultInjector::Instance().DisarmAll();

    auto restarted = MakeEngine(options);
    auto hit = restarted->Classify((*test_)[0].address);
    ASSERT_TRUE(hit.ok()) << point;
    EXPECT_TRUE(hit.value().cache_hit)
        << "stale cache torn by fault at " << point;
  }
}

TEST_F(ServeTest, CorruptCacheFileFailsCreateLoudly) {
  TempFile cache("corrupt");
  InferenceEngineOptions options;
  options.cache_path = cache.path();
  {
    auto engine = MakeEngine(options);
    ASSERT_TRUE(engine->Classify((*test_)[0].address).ok());
    ASSERT_TRUE(engine->SaveCache().ok());
  }
  // Flip one byte in the middle of the file.
  auto content = util::ReadFileToString(cache.path());
  ASSERT_TRUE(content.ok());
  std::string bytes = content.value();
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream out(cache.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto engine = InferenceEngine::Create(classifier_, &simulator_->ledger(),
                                        options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(engine.status().message().find("crc32"), std::string::npos);
}

TEST_F(ServeTest, WarmStartResavesTheSameBytes) {
  TempFile cache("resave");
  InferenceEngineOptions options;
  options.cache_path = cache.path();
  {
    auto engine = MakeEngine(options);
    for (const auto& a : *test_) {
      ASSERT_TRUE(engine->Classify(a.address).ok());
    }
    // Recency then differs from insertion order.
    for (size_t i = 0; i < test_->size(); i += 3) {
      ASSERT_TRUE(engine->Classify((*test_)[i].address).ok());
    }
    ASSERT_TRUE(engine->SaveCache().ok());
  }
  auto saved = util::ReadFileToString(cache.path());
  ASSERT_TRUE(saved.ok());
  auto warm = MakeEngine(options);
  ASSERT_GT(warm->CacheSize(), 1u);
  ASSERT_TRUE(warm->SaveCache().ok());
  auto resaved = util::ReadFileToString(cache.path());
  ASSERT_TRUE(resaved.ok());
  EXPECT_TRUE(saved.value() == resaved.value())
      << "a warm start re-saved " << resaved.value().size()
      << " bytes against " << saved.value().size();
}

TEST_F(ServeTest, CacheEntryWithImpossibleFieldsFailsCreate) {
  TempFile cache("fields");
  InferenceEngineOptions options;
  options.cache_path = cache.path();
  {
    auto engine = MakeEngine(options);
    ASSERT_TRUE(engine->Classify((*test_)[0].address).ok());
    ASSERT_TRUE(engine->SaveCache().ok());
  }
  auto file = util::ReadFileToString(cache.path());
  ASSERT_TRUE(file.ok());
  // magic | version | body | crc32. The body's header is slice_size,
  // k_hops, embed_dim, precision and the entry count (25 bytes); entry
  // 0 follows: address, tx_count, predicted, num_slices, then its rows.
  const std::string body = file.value().substr(8, file.value().size() - 12);
  constexpr size_t kTxCount = 25 + 8;
  constexpr size_t kPredicted = kTxCount + 8;
  constexpr size_t kSlices = kPredicted + 4;
  constexpr size_t kRows = kSlices + 4;
  int64_t embed_dim = 0;
  uint32_t slices = 0;
  std::memcpy(&embed_dim, body.data() + 8, sizeof(embed_dim));
  std::memcpy(&slices, body.data() + kSlices, sizeof(slices));
  const size_t row_bytes = static_cast<size_t>(embed_dim) * sizeof(float);
  // Entry 0 rewritten with these fields, its rows cut or zero-padded to
  // match `num_slices`, and the file re-sealed with a correct CRC.
  auto write_entry = [&](uint64_t tx_count, int32_t predicted,
                         uint32_t num_slices) {
    std::string b = body.substr(0, kRows) +
                    std::string(num_slices * row_bytes, '\0') +
                    body.substr(kRows + slices * row_bytes);
    body.copy(b.data() + kRows, std::min(slices, num_slices) * row_bytes,
              kRows);
    std::memcpy(b.data() + kTxCount, &tx_count, sizeof(tx_count));
    std::memcpy(b.data() + kPredicted, &predicted, sizeof(predicted));
    std::memcpy(b.data() + kSlices, &num_slices, sizeof(num_slices));
    const util::SealedFormat basv{{'B', 'A', 'S', 'V'}, 2, "serve cache"};
    std::ofstream out(cache.path(), std::ios::binary | std::ios::trunc);
    out << util::SealImage(basv, b);
  };
  uint64_t tx_count = 0;
  int32_t predicted = 0;
  std::memcpy(&tx_count, body.data() + kTxCount, sizeof(tx_count));
  std::memcpy(&predicted, body.data() + kPredicted, sizeof(predicted));
  write_entry(tx_count, predicted, slices);
  ASSERT_TRUE(InferenceEngine::Create(classifier_, &simulator_->ledger(),
                                      options).ok());

  const uint64_t slice = static_cast<uint64_t>(
      classifier_->options().dataset.construction.slice_size);
  const int num_classes = classifier_->options().aggregator.num_classes;
  const struct {
    uint64_t tx_count;
    int32_t predicted;
    uint32_t num_slices;
  } cases[] = {
      {2 * slice, predicted, 0},  // a partial hit would copy 2 rows of 0
      {0, predicted, 0},
      {2 * slice + 1, predicted, 2},
      {2 * slice, predicted, 3},
      {tx_count, num_classes, slices},
      {tx_count, -1, slices},
  };
  for (const auto& c : cases) {
    write_entry(c.tx_count, c.predicted, c.num_slices);
    auto engine = InferenceEngine::Create(classifier_, &simulator_->ledger(),
                                          options);
    ASSERT_FALSE(engine.ok()) << c.tx_count << " txs, class " << c.predicted
                              << ", " << c.num_slices << " slices";
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("entry 0"), std::string::npos)
        << engine.status().ToString();
    EXPECT_NE(engine.status().message().find(cache.path()), std::string::npos)
        << engine.status().ToString();
  }
}

TEST_F(ServeTest, CacheEvictionRespectsCapacity) {
  InferenceEngineOptions options;
  options.cache_capacity = 4;
  auto engine = MakeEngine(options);
  size_t classified = 0;
  for (const auto& a : *test_) {
    if (simulator_->ledger().TransactionsOf(a.address).empty()) continue;
    ASSERT_TRUE(engine->Classify(a.address).ok());
    if (++classified >= 8) break;
  }
  ASSERT_GE(classified, 5u);
  EXPECT_LE(engine->CacheSize(), options.cache_capacity);
  EXPECT_GT(engine->Metrics().cache_evictions, 0u);
}

TEST_F(ServeTest, CapacityOneCacheKeepsTheFreshEntry) {
  // At cache_capacity = 1 every insert overflows the cache, and the
  // eviction sweep must never select the entry just stored for the
  // current request: an immediate repeat query must be a full hit.
  InferenceEngineOptions options;
  options.cache_capacity = 1;
  auto engine = MakeEngine(options);
  int checked = 0;
  for (const auto& a : *test_) {
    if (simulator_->ledger().TxCountOf(a.address) == 0) continue;
    auto miss = engine->Classify(a.address);
    ASSERT_TRUE(miss.ok());
    EXPECT_FALSE(miss.value().cache_hit);
    auto hit = engine->Classify(a.address);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value().cache_hit)
        << "fresh entry for address " << a.address
        << " was evicted by its own insert";
    EXPECT_EQ(hit.value().predicted, miss.value().predicted);
    EXPECT_LE(engine->CacheSize(), 1u);
    if (++checked >= 4) break;
  }
  ASSERT_GE(checked, 2);
}

TEST_F(ServeTest, LookupsDuringEvictionStormStayCoherent) {
  // The eviction sweep orders its candidates OUTSIDE the cache lock
  // (the full scan-and-sort used to run under cache_mu_, stalling every
  // concurrent lookup) and re-validates each candidate's recency before
  // erasing it. This hammers lookups against eviction-heavy inserts so
  // the unlocked window and the re-validation both get exercised; run
  // under BA_SANITIZE=thread for the data-race half of the claim.
  InferenceEngineOptions options;
  options.cache_capacity = 6;
  auto engine = MakeEngine(options);

  const datagen::LabeledAddress hot = (*test_)[0];
  ASSERT_GT(simulator_->ledger().TxCountOf(hot.address), 0u);
  const int expected = SerialTruth({hot})[0];
  ASSERT_TRUE(engine->Classify(hot.address).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto r = engine->Classify(hot.address);
      if (!r.ok() || r.value().predicted != expected) {
        wrong.fetch_add(1);
      }
    }
  });

  // Two writers walk the whole test split repeatedly: every insert
  // overflows the 6-entry cache, so eviction sweeps run continuously
  // while the reader keeps touching (and re-warming) the hot entry.
  constexpr int kWriters = 2;
  constexpr int kRounds = 3;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = static_cast<size_t>(w); i < test_->size();
             i += kWriters) {
          (void)engine->Classify((*test_)[i].address);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Every concurrent lookup stayed correct, the capacity bound held
  // (give or take racing inserts), and sweeps actually ran.
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(engine->CacheSize(), options.cache_capacity + kWriters);
  EXPECT_GT(engine->Metrics().cache_evictions, 0u);
}

TEST_F(ServeTest, EmptyMetricsSnapshotJsonIsWellFormed) {
  // A scrape before the first request must produce clean JSON: hit_rate
  // stays 0 (not 0/0) and no "nan"/"inf" token leaks from the empty
  // latency histograms.
  auto engine = MakeEngine();
  const InferenceMetricsSnapshot m = engine->Metrics();
  EXPECT_EQ(m.requests, 0u);
  EXPECT_EQ(m.hit_rate, 0.0);
  const std::string json = m.ToJson();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rate\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request_latency\":{\"count\":0"),
            std::string::npos)
      << json;
  // Balanced braces — the object parses structurally.
  long depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ServeTest, FromCheckpointServesIdenticalPredictions) {
  TempFile file("bacl");
  ASSERT_TRUE(classifier_->Save(file.path()).ok());
  auto restored = core::BaClassifier::FromCheckpoint(file.path());
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_TRUE(restored.value()->trained());

  const std::vector<int> expected = SerialTruth(*test_);
  auto engine = InferenceEngine::Create(restored.value().get(),
                                        &simulator_->ledger(), {});
  ASSERT_TRUE(engine.ok());
  for (size_t i = 0; i < test_->size(); ++i) {
    auto result = engine.value()->Classify((*test_)[i].address);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().predicted, expected[i]);
  }
}

TEST_F(ServeTest, SharedPoolModeServesCorrectly) {
  // num_threads = 0 without an injected pool draws on the process-wide
  // util::SharedPool() instead of constructing a private one.
  InferenceEngineOptions options;
  options.num_threads = 0;
  auto engine = MakeEngine(options);
  const std::vector<int> expected = SerialTruth(*test_);
  for (size_t i = 0; i < test_->size(); ++i) {
    auto result = engine->Classify((*test_)[i].address);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().predicted, expected[i]);
  }
}

TEST_F(ServeTest, EngineRejectsBadSetups) {
  InferenceEngineOptions bad;
  bad.cache_capacity = 0;
  auto e1 = InferenceEngine::Create(classifier_, &simulator_->ledger(), bad);
  EXPECT_EQ(e1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(e1.status().message().find("cache_capacity"),
            std::string::npos);

  auto e2 = InferenceEngine::Create(nullptr, &simulator_->ledger(), {});
  EXPECT_EQ(e2.status().code(), StatusCode::kInvalidArgument);

  core::BaClassifier untrained(classifier_->options());
  auto e3 =
      InferenceEngine::Create(&untrained, &simulator_->ledger(), {});
  EXPECT_EQ(e3.status().code(), StatusCode::kFailedPrecondition);

  InferenceEngineOptions negative_threshold;
  negative_threshold.slow_request_threshold = -0.5;
  auto e4 = InferenceEngine::Create(classifier_, &simulator_->ledger(),
                                    negative_threshold);
  EXPECT_EQ(e4.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(e4.status().message().find("slow_request_threshold"),
            std::string::npos);
}

TEST_F(ServeTest, BlockingClassifyRecordsMonotoneTimeline) {
  auto engine = MakeEngine();
  ClassifyOptions options;
  options.trace_id = 0xF00D;
  options.span_id = 3;
  const auto result = engine->Classify((*test_)[0].address, options);
  ASSERT_TRUE(result.ok()) << result.status().message();

  const RequestTimeline& tl = result.value().timeline;
  EXPECT_EQ(tl.trace_id, options.trace_id);
  EXPECT_EQ(tl.span_id, options.span_id);
  EXPECT_TRUE(tl.Monotone()) << tl.ToJson();
  EXPECT_EQ(tl.outcome, result.value().degraded ? RequestOutcome::kDegraded
                                                : RequestOutcome::kOk);
  // A batched answer passed through every stage — each stamp present
  // and the pipeline order visible in the offsets.
  EXPECT_GE(tl.enqueue_ns, 0);
  EXPECT_GE(tl.batch_join_ns, tl.enqueue_ns);
  EXPECT_GE(tl.lookup_ns, tl.batch_join_ns);
  EXPECT_GE(tl.deliver_ns, tl.lookup_ns);

  // The flight recorder kept it, addressable by trace id.
  ASSERT_NE(engine->flight_recorder(), nullptr);
  const auto entry = engine->flight_recorder()->Find(options.trace_id);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->address, (*test_)[0].address);
  EXPECT_EQ(entry->timeline.deliver_ns, tl.deliver_ns);
  EXPECT_FALSE(engine->flight_recorder()->Find(0xBAD).has_value());
}

TEST_F(ServeTest, SlowThresholdCopiesIntoSlowRingAndCounts) {
  InferenceEngineOptions options;
  options.flight_recorder_capacity = 32;
  options.slow_request_threshold = 1e-9;  // every request is "slow"
  auto engine = MakeEngine(options);

  const size_t n = std::min<size_t>(test_->size(), 4);
  for (size_t i = 0; i < n; ++i) {
    ClassifyOptions traced;
    traced.trace_id = 1000 + i;
    ASSERT_TRUE(engine->Classify((*test_)[i].address, traced).ok());
  }

  ASSERT_NE(engine->slow_recorder(), nullptr);
  EXPECT_EQ(engine->slow_recorder()->recorded(), n);
  EXPECT_EQ(engine->Metrics().slow_requests, n);
  const auto slowest = engine->slow_recorder()->Find(1000);
  ASSERT_TRUE(slowest.has_value());
  EXPECT_TRUE(slowest->timeline.Monotone());

  // Snapshot returns newest-first, bounded by the ask.
  const auto snap = engine->slow_recorder()->Snapshot(2);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_GT(snap[0].seq, snap[1].seq);
}

TEST_F(ServeTest, FlightRecorderCanBeDisabled) {
  InferenceEngineOptions options;
  options.flight_recorder_capacity = 0;
  auto engine = MakeEngine(options);
  EXPECT_EQ(engine->flight_recorder(), nullptr);
  EXPECT_EQ(engine->slow_recorder(), nullptr);
  // Classification is unaffected — recording is a pure observer.
  EXPECT_TRUE(engine->Classify((*test_)[0].address).ok());
}

TEST_F(ServeTest, SweepingClientStopsGrowingTheCache) {
  auto& reg = obs::MetricsRegistry::Instance();
  const uint64_t sweep_before =
      reg.GetCounter("serve.sweep.requests")->value();
  InferenceEngineOptions options;
  options.sweep_miss_streak = 4;
  auto engine = MakeEngine(options);

  // The working set is warmed anonymously (client_id 0 — batch
  // warm-up traffic is never sweep-tracked); the monitoring client
  // then polls it and only ever hits.
  std::vector<datagen::LabeledAddress> hot(test_->begin(),
                                           test_->begin() + 6);
  std::vector<AddressId> hot_addresses;
  for (const auto& a : hot) hot_addresses.push_back(a.address);
  for (const auto& r : engine->ClassifyBatch(hot_addresses)) {
    ASSERT_TRUE(r.ok());
  }
  const size_t warm_size = engine->CacheSize();
  ASSERT_EQ(warm_size, hot.size());
  ClassifyOptions monitor;
  monitor.client_id = 1;

  // A second client sweeps cold addresses: the first `threshold`
  // misses buy cache slots, then the detector flags it and every
  // later request is stamped kNoPromote — the cache stops growing.
  const std::vector<int> sweep_truth = SerialTruth(*train_);
  ClassifyOptions scanner;
  scanner.client_id = 42;
  for (size_t i = 0; i < train_->size(); ++i) {
    const auto r = engine->Classify((*train_)[i].address, scanner);
    ASSERT_TRUE(r.ok()) << r.status().message();
    // No-promote is invisible to the answer: the scan still gets the
    // exact serial prediction.
    EXPECT_EQ(r.value().predicted, sweep_truth[i]);
  }
  EXPECT_EQ(engine->sweeping_clients(), 1u);
  EXPECT_EQ(engine->CacheSize(),
            warm_size + static_cast<size_t>(options.sweep_miss_streak));
  EXPECT_EQ(reg.GetCounter("serve.sweep.requests")->value(),
            sweep_before + train_->size() -
                static_cast<size_t>(options.sweep_miss_streak));

  // The monitoring client's working set survived the sweep untouched.
  for (const auto& a : hot) {
    const auto r = engine->Classify(a.address, monitor);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().cache_hit) << "hot address " << a.address
                                     << " evicted by the sweep";
  }

  // Connection close drops the mark; a recycled id starts clean.
  engine->ForgetClient(scanner.client_id);
  EXPECT_EQ(engine->sweeping_clients(), 0u);
}

}  // namespace
}  // namespace ba::serve
