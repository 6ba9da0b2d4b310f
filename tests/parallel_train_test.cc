// Determinism tests for data-parallel training (GraphModel and
// AggregatorModel `num_threads`) and the thread-pool plumbing it rides
// on: any lane count must reproduce the serial run bit-exactly —
// per-epoch losses and final parameters — because gradients are
// reduced in fixed example order regardless of which lane computed
// them. A slow reference — a textbook trainer written here on the
// public nn/tensor API — pins what that order is: the same bits must
// come out of it. Also covers ThreadPool::InWorkerThread,
// nested-ParallelFor degradation, and the shared-pool accessor.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "core/aggregator.h"
#include "core/gfn_features.h"
#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "nn/gfn.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "tensor/optimizer.h"
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

std::vector<double> Losses(const std::vector<EpochStat>& history) {
  std::vector<double> out;
  for (const EpochStat& s : history) out.push_back(s.train_loss);
  return out;
}

// ---------------------------------------------------------------------------
// The slow reference: one minibatch the textbook way. Per example:
// ZeroGrad, forward, Backward, copy the gradients. Then per parameter:
// sum the copies from zero in ascending example order, scale by
// 1/batch, Step. `*loss_sum` gains the example losses in that order.
// ---------------------------------------------------------------------------

void ReferenceStep(const std::vector<tensor::Var>& params, tensor::Adam* adam,
                   size_t bs, const std::function<tensor::Var(size_t)>& loss,
                   double* loss_sum) {
  std::vector<std::vector<tensor::Tensor>> grads(bs);
  std::vector<std::vector<bool>> present(bs);
  std::vector<double> losses(bs);
  for (size_t e = 0; e < bs; ++e) {
    adam->ZeroGrad();
    const tensor::Var l = loss(e);
    tensor::Backward(l);
    losses[e] = static_cast<double>(l->value.item());
    for (const tensor::Var& p : params) {
      present[e].push_back(p->grad_ready);
      grads[e].push_back(p->grad_ready ? p->grad : tensor::Tensor());
    }
  }
  for (size_t pi = 0; pi < params.size(); ++pi) {
    tensor::Tensor sum(params[pi]->value.shape());
    bool any = false;
    for (size_t e = 0; e < bs; ++e) {
      if (!present[e][pi]) continue;
      sum.AddInPlace(grads[e][pi]);
      any = true;
    }
    sum.ScaleInPlace(1.0f / static_cast<float>(bs));
    params[pi]->grad = sum;
    params[pi]->grad_ready = any;
  }
  adam->Step();
  for (size_t e = 0; e < bs; ++e) *loss_sum += losses[e];
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

/// AggregatorModel (LSTM kind) rebuilt from nn modules: the same RNG
/// draws at construction, parameter order and per-call shuffle protocol.
class ReferenceAggregator {
 public:
  explicit ReferenceAggregator(const AggregatorOptions& o)
      : options_(o),
        rng_(o.seed),
        lstm_(o.embed_dim, o.hidden_dim, &rng_),
        head_({o.hidden_dim, o.mlp_hidden, o.num_classes}, &rng_),
        params_(Params()),
        adam_(params_, o.learning_rate) {}

  std::vector<double> Train(const std::vector<EmbeddingSequence>& train) {
    std::vector<size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    const size_t batch = static_cast<size_t>(options_.batch_size);
    std::vector<double> losses;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      rng_.Shuffle(&order);
      double total = 0.0;
      for (size_t i = 0; i < order.size(); i += batch) {
        ReferenceStep(params_, &adam_, std::min(batch, order.size() - i),
                      [&](size_t e) {
                        const EmbeddingSequence& ex = train[order[i + e]];
                        return tensor::SoftmaxCrossEntropy(
                            head_.Forward(lstm_.ForwardLast(
                                tensor::Constant(ex.embeddings))),
                            std::vector<int>{ex.label});
                      },
                      &total);
      }
      losses.push_back(total / static_cast<double>(train.size()));
    }
    return losses;
  }

  const std::vector<tensor::Var>& params() const { return params_; }

 private:
  std::vector<tensor::Var> Params() const {
    std::vector<tensor::Var> p = head_.Parameters();
    for (const tensor::Var& v : lstm_.Parameters()) p.push_back(v);
    return p;
  }

  AggregatorOptions options_;
  Rng rng_;
  nn::Lstm lstm_;
  nn::Mlp head_;
  std::vector<tensor::Var> params_;
  tensor::Adam adam_;
};

TEST(ParallelAggregatorTest, MatchesTheSlowReferenceBitExactly) {
  const auto sequences = SyntheticSequences(23, 8, 4);
  for (int batch : {5, 2}) {  // 23 % 5: ragged last batch; 2 < lanes
    AggregatorOptions o = SmallAggregatorOptions(1);
    o.batch_size = batch;
    ReferenceAggregator reference(o);
    const std::vector<double> first = reference.Train(sequences);
    const std::vector<double> second = reference.Train(sequences);
    for (int lanes : {1, 2, 3, 0}) {
      o.num_threads = lanes;
      AggregatorModel model(o);
      for (const std::vector<double>* want : {&first, &second}) {
        std::vector<EpochStat> history;
        model.Train(sequences, nullptr, &history);
        EXPECT_EQ(Losses(history), *want)
            << "batch " << batch << " lanes " << lanes;
      }
      ExpectBitIdentical(Flatten(reference.params()),
                         Flatten(model.Parameters()), "aggregator");
    }
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
    samples_ = new std::vector<AddressSample>(
        BuildAddressSamples(simulator.ledger().Snapshot(), labeled, opts));
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

/// GraphModel (GFN) rebuilt from nn::GfnEncoder: the same RNG draws at
/// construction, per-epoch shuffle and per-example dropout seeds.
class ReferenceGfn {
 public:
  explicit ReferenceGfn(const GraphModelOptions& o)
      : options_(o),
        rng_(o.seed),
        encoder_(EncoderOptions(o), &rng_),
        adam_(encoder_.Parameters(), o.learning_rate, 0.9f, 0.999f, 1e-8f,
              o.weight_decay) {}

  std::vector<double> Train(const std::vector<AddressSample>& train) {
    std::vector<std::pair<const GraphTensors*, int>> examples;
    for (const AddressSample& s : train) {
      for (const GraphTensors& gt : s.tensors) examples.emplace_back(&gt, s.label);
    }
    const size_t batch = static_cast<size_t>(options_.batch_size);
    std::vector<size_t> order(examples.size());
    std::vector<double> losses;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      std::iota(order.begin(), order.end(), 0);
      rng_.Shuffle(&order);
      double total = 0.0;
      for (size_t i = 0; i < examples.size(); i += batch) {
        const size_t bs = std::min(batch, examples.size() - i);
        std::vector<uint64_t> seeds(bs);
        for (uint64_t& seed : seeds) seed = rng_.Next();
        ReferenceStep(adam_.params(), &adam_, bs,
                      [&](size_t e) {
                        Rng dropout_rng(seeds[e]);
                        const auto& [gt, label] = examples[order[i + e]];
                        return tensor::SoftmaxCrossEntropy(
                            encoder_.Forward(tensor::Constant(gt->augmented),
                                             &dropout_rng, /*training=*/true),
                            std::vector<int>{label});
                      },
                      &total);
      }
      losses.push_back(total / static_cast<double>(examples.size()));
    }
    return losses;
  }

  std::vector<tensor::Var> params() const { return encoder_.Parameters(); }

 private:
  static nn::GfnEncoder::Options EncoderOptions(const GraphModelOptions& o) {
    nn::GfnEncoder::Options e;
    e.input_dim = AugmentedDim(o.k_hops);
    e.hidden_dim = o.hidden_dim;
    e.embed_dim = o.embed_dim;
    e.num_classes = o.num_classes;
    e.dropout = o.dropout;
    return e;
  }

  GraphModelOptions options_;
  Rng rng_;
  nn::GfnEncoder encoder_;
  tensor::Adam adam_;
};

TEST_F(ParallelGraphModelTest, MatchesTheSlowReferenceBitExactly) {
  size_t graphs = 0;
  for (const AddressSample& s : *samples_) graphs += s.tensors.size();
  // A batch size that leaves a ragged last batch, then one below the
  // lane counts.
  int ragged = 5;
  while (graphs % static_cast<size_t>(ragged) == 0) ++ragged;
  for (int batch : {ragged, 2}) {
    GraphModelOptions o = BaseOptions(1);
    o.batch_size = batch;
    ReferenceGfn reference(o);
    const std::vector<double> first = reference.Train(*samples_);
    const std::vector<double> second = reference.Train(*samples_);
    for (int lanes : {1, 2, 3, 0}) {
      o.num_threads = lanes;
      GraphModel model(o);
      for (const std::vector<double>* want : {&first, &second}) {
        std::vector<EpochStat> history;
        ASSERT_TRUE(model.Train(*samples_, nullptr, &history).ok());
        EXPECT_EQ(Losses(history), *want)
            << "batch " << batch << " lanes " << lanes;
      }
      ExpectBitIdentical(Flatten(reference.params()),
                         Flatten(model.Parameters()), "graph model");
    }
  }
}

TEST_F(ParallelGraphModelTest, ValidateRejectsNegativeThreads) {
  GraphModelOptions o = BaseOptions(-2);
  EXPECT_FALSE(o.Validate().ok());
}

}  // namespace
}  // namespace ba::core
