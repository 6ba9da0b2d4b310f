// Determinism tests for data-parallel training (GraphModel and
// AggregatorModel `num_threads`) and the thread-pool plumbing it rides
// on: any lane count must reproduce the serial run bit-exactly —
// per-epoch losses and final parameters — because gradients are
// reduced in fixed example order regardless of which lane computed
// them. Also covers ThreadPool::InWorkerThread, nested-ParallelFor
// degradation, and the shared-pool accessor.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/aggregator.h"
#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace ba::core {
namespace {

std::vector<float> Flatten(const std::vector<tensor::Var>& params) {
  std::vector<float> out;
  for (const auto& p : params) {
    out.insert(out.end(), p->value.data(), p->value.data() + p->value.numel());
  }
  return out;
}

void ExpectBitIdentical(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": parameters differ between lane counts";
}

// ---------------------------------------------------------------------------
// ThreadPool plumbing.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, InWorkerThreadDistinguishesPoolWorkers) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      if (ThreadPool::InWorkerThread()) inside.fetch_add(1);
    }));
  }
  pool.Wait();
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  // Outer iterations occupy workers; the inner ParallelFor from inside
  // a worker must degrade to inline execution rather than queueing
  // behind (and waiting on) its own busy pool.
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(5, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 20);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsDoNotCrossBlock) {
  ThreadPool shared(2);
  std::atomic<int> total{0};
  // Two plain threads (not pool workers, so no inline fallback) drive
  // ParallelFor on the same pool at once; per-call completion tracking
  // means each returns when its own iterations are done, never blocking
  // on the other caller's work.
  std::thread t1([&] {
    shared.ParallelFor(10, [&](size_t) { total.fetch_add(1); });
  });
  std::thread t2([&] {
    shared.ParallelFor(10, [&](size_t) { total.fetch_add(1); });
  });
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 20);
}

TEST(SharedPoolTest, AccessorIsStableAndSized) {
  ThreadPool& pool = util::SharedPool();
  EXPECT_EQ(&pool, &util::SharedPool());
  EXPECT_EQ(pool.num_threads(), util::SharedPoolThreads());
  EXPECT_GE(pool.num_threads(), 1u);
  // Once materialized, resizing is refused.
  EXPECT_FALSE(util::SetSharedPoolThreads(pool.num_threads() + 1));
  EXPECT_EQ(util::SharedPool().num_threads(), pool.num_threads());
}

// ---------------------------------------------------------------------------
// AggregatorModel: synthetic embedding sequences, cheap enough to train
// at several lane counts.
// ---------------------------------------------------------------------------

std::vector<EmbeddingSequence> SyntheticSequences(int count, int64_t embed_dim,
                                                  int num_classes) {
  Rng rng(71);
  std::vector<EmbeddingSequence> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    EmbeddingSequence seq;
    const int64_t steps = 2 + static_cast<int64_t>(rng.Next() % 4);
    seq.embeddings =
        tensor::Tensor::RandomNormal({steps, embed_dim}, &rng, 0.5f);
    seq.label = static_cast<int>(rng.Next() % static_cast<uint64_t>(num_classes));
    out.push_back(std::move(seq));
  }
  return out;
}

AggregatorOptions SmallAggregatorOptions(int num_threads) {
  AggregatorOptions o;
  o.kind = AggregatorKind::kLstm;
  o.embed_dim = 8;
  o.hidden_dim = 8;
  o.mlp_hidden = 8;
  o.epochs = 3;
  o.batch_size = 6;
  o.seed = 13;
  o.num_threads = num_threads;
  return o;
}

TEST(ParallelAggregatorTest, AnyLaneCountReproducesSerialBitExactly) {
  const auto sequences = SyntheticSequences(22, 8, 4);

  AggregatorModel serial(SmallAggregatorOptions(1));
  std::vector<EpochStat> serial_history;
  serial.Train(sequences, nullptr, &serial_history);
  const std::vector<float> serial_params = Flatten(serial.Parameters());

  for (int lanes : {2, 3, 0}) {  // 0 = shared-pool size
    AggregatorModel threaded(SmallAggregatorOptions(lanes));
    std::vector<EpochStat> history;
    threaded.Train(sequences, nullptr, &history);
    ASSERT_EQ(history.size(), serial_history.size());
    for (size_t e = 0; e < history.size(); ++e) {
      EXPECT_EQ(history[e].train_loss, serial_history[e].train_loss)
          << "lanes " << lanes << " epoch " << e + 1;
    }
    ExpectBitIdentical(serial_params, Flatten(threaded.Parameters()),
                       "aggregator");
  }
}

TEST(ParallelAggregatorTest, ValidateRejectsNegativeThreads) {
  AggregatorOptions o = SmallAggregatorOptions(-1);
  EXPECT_FALSE(o.Validate().ok());
}

// ---------------------------------------------------------------------------
// GraphModel: small simulated economy (the GFN encoder exercises the
// per-example dropout RNG reseeding that keeps lanes deterministic).
// ---------------------------------------------------------------------------

class ParallelGraphModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 29;
    config.num_blocks = 80;
    config.num_retail_users = 24;
    config.miners_per_pool = 10;
    config.gamblers_per_house = 5;
    datagen::Simulator simulator(config);
    ASSERT_TRUE(simulator.Run().ok());
    auto labeled = simulator.CollectLabeledAddresses(3);
    Rng rng(2);
    labeled = datagen::StratifiedSample(labeled, 40, &rng);

    GraphDatasetOptions opts;
    opts.construction.slice_size = 20;
    opts.k_hops = 2;
    GraphDatasetBuilder builder(opts);
    samples_ = new std::vector<AddressSample>(
        builder.Build(simulator.ledger(), labeled));
    ASSERT_GT(samples_->size(), 8u);
  }

  static void TearDownTestSuite() {
    delete samples_;
    samples_ = nullptr;
  }

  static GraphModelOptions BaseOptions(int num_threads) {
    GraphModelOptions o;
    o.encoder = GraphEncoderKind::kGfn;
    o.epochs = 2;
    o.hidden_dim = 16;
    o.embed_dim = 8;
    o.dropout = 0.1f;  // per-example RNG reseeding must keep this deterministic
    o.seed = 5;
    o.num_threads = num_threads;
    return o;
  }

  static std::vector<AddressSample>* samples_;
};

std::vector<AddressSample>* ParallelGraphModelTest::samples_ = nullptr;

TEST_F(ParallelGraphModelTest, AnyLaneCountReproducesSerialBitExactly) {
  GraphModel serial(BaseOptions(1));
  std::vector<EpochStat> serial_history;
  ASSERT_TRUE(serial.Train(*samples_, nullptr, &serial_history).ok());
  const std::vector<float> serial_params = Flatten(serial.Parameters());

  for (int lanes : {2, 4}) {
    GraphModel threaded(BaseOptions(lanes));
    std::vector<EpochStat> history;
    ASSERT_TRUE(threaded.Train(*samples_, nullptr, &history).ok());
    ASSERT_EQ(history.size(), serial_history.size());
    for (size_t e = 0; e < history.size(); ++e) {
      EXPECT_EQ(history[e].train_loss, serial_history[e].train_loss)
          << "lanes " << lanes << " epoch " << e + 1;
    }
    ExpectBitIdentical(serial_params, Flatten(threaded.Parameters()),
                       "graph model");
  }
}

TEST_F(ParallelGraphModelTest, ValidateRejectsNegativeThreads) {
  GraphModelOptions o = BaseOptions(-2);
  EXPECT_FALSE(o.Validate().ok());
}

}  // namespace
}  // namespace ba::core
