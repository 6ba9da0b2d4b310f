// Integration tests: the full BAClassifier pipeline (Fig 2) on a small
// simulated economy — graph models, aggregators, flat features and the
// end-to-end facade.

#include <gtest/gtest.h>

#include <memory>

#include "core/aggregator.h"
#include "core/classifier.h"
#include "core/flat_features.h"
#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"

namespace ba::core {
namespace {

/// Shared fixture: one small economy, materialized once per suite.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 17;
    config.num_blocks = 150;
    config.num_mining_pools = 2;
    config.miners_per_pool = 20;
    config.num_exchanges = 2;
    config.num_gambling_houses = 2;
    config.gamblers_per_house = 10;
    config.num_services = 2;
    config.num_retail_users = 40;
    simulator_ = new datagen::Simulator(config);
    ASSERT_TRUE(simulator_->Run().ok());

    auto labeled = simulator_->CollectLabeledAddresses(3);
    Rng rng(1);
    labeled = datagen::StratifiedSample(labeled, 160, &rng);
    const auto split = datagen::StratifiedSplit(labeled, 0.8, &rng);

    GraphDatasetOptions opts;
    opts.construction.slice_size = 20;
    opts.k_hops = 2;
    const chain::LedgerSnapshot snapshot = simulator_->ledger().Snapshot();
    train_ = new std::vector<AddressSample>(
        BuildAddressSamples(snapshot, split.train, opts));
    test_ = new std::vector<AddressSample>(
        BuildAddressSamples(snapshot, split.test, opts));
    ASSERT_GT(train_->size(), 40u);
    ASSERT_GT(test_->size(), 10u);
  }

  static void TearDownTestSuite() {
    delete simulator_;
    delete train_;
    delete test_;
    simulator_ = nullptr;
    train_ = nullptr;
    test_ = nullptr;
  }

  static GraphModelOptions FastModelOptions(GraphEncoderKind kind) {
    GraphModelOptions o;
    o.encoder = kind;
    o.epochs = 6;
    o.hidden_dim = 32;
    o.embed_dim = 16;
    o.seed = 3;
    return o;
  }

  static datagen::Simulator* simulator_;
  static std::vector<AddressSample>* train_;
  static std::vector<AddressSample>* test_;
};

datagen::Simulator* PipelineTest::simulator_ = nullptr;
std::vector<AddressSample>* PipelineTest::train_ = nullptr;
std::vector<AddressSample>* PipelineTest::test_ = nullptr;

TEST_F(PipelineTest, SamplesHaveAlignedTensors) {
  for (const auto& s : *train_) {
    EXPECT_GE(s.label, 0);
    EXPECT_LT(s.label, datagen::kNumBehaviors);
    ASSERT_EQ(s.graphs.size(), s.tensors.size());
    for (size_t g = 0; g < s.graphs.size(); ++g) {
      EXPECT_EQ(s.tensors[g].base_features.dim(0), s.graphs[g].num_nodes());
      EXPECT_EQ(s.tensors[g].augmented.dim(1), AugmentedDim(2));
    }
  }
}

TEST_F(PipelineTest, GfnModelLearnsGraphLevelStructure) {
  GraphModel model(FastModelOptions(GraphEncoderKind::kGfn));
  std::vector<EpochStat> history;
  model.Train(*train_, test_, &history);
  ASSERT_EQ(history.size(), 6u);
  // Loss decreases and time accumulates monotonically.
  EXPECT_LT(history.back().train_loss, history.front().train_loss);
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].seconds, history[i - 1].seconds);
  }
  // Graph-level weighted F1 comfortably beats the 4-class chance level.
  EXPECT_GT(history.back().eval_f1, 0.5);
}

TEST_F(PipelineTest, GcnDiffPoolAndGatTrainToo) {
  for (auto kind : {GraphEncoderKind::kGcn, GraphEncoderKind::kDiffPool,
                    GraphEncoderKind::kGat}) {
    GraphModel model(FastModelOptions(kind));
    model.Train(*train_);
    const auto cm = model.EvaluateGraphLevel(*test_);
    EXPECT_GT(cm.Accuracy(), 0.4) << GraphEncoderName(kind);
  }
}

TEST_F(PipelineTest, EmbeddingsAreFiniteAndShaped) {
  GraphModel model(FastModelOptions(GraphEncoderKind::kGfn));
  model.Train(*train_);
  const auto sequences = BuildEmbeddingSequences(model, *test_);
  ASSERT_EQ(sequences.size(), test_->size());
  for (size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i].embeddings.dim(0), (*test_)[i].num_graphs());
    EXPECT_EQ(sequences[i].embeddings.dim(1), model.embed_dim());
    for (int64_t k = 0; k < sequences[i].embeddings.numel(); ++k) {
      EXPECT_TRUE(std::isfinite(sequences[i].embeddings.data()[k]));
    }
  }
}

TEST_F(PipelineTest, EmbeddingScalerNormalizes) {
  GraphModel model(FastModelOptions(GraphEncoderKind::kGfn));
  model.Train(*train_);
  auto sequences = BuildEmbeddingSequences(model, *train_);
  const EmbeddingScaler scaler = EmbeddingScaler::Fit(sequences);
  scaler.Apply(&sequences);
  // Post-scaling: global mean ~0, variance ~1 per dimension.
  const int64_t dim = sequences[0].embeddings.dim(1);
  for (int64_t c = 0; c < dim; ++c) {
    double sum = 0.0, sq = 0.0;
    int64_t rows = 0;
    for (const auto& s : sequences) {
      for (int64_t r = 0; r < s.embeddings.dim(0); ++r) {
        sum += s.embeddings.at(r, c);
        sq += static_cast<double>(s.embeddings.at(r, c)) *
              s.embeddings.at(r, c);
        ++rows;
      }
    }
    EXPECT_NEAR(sum / static_cast<double>(rows), 0.0, 1e-3);
    EXPECT_NEAR(sq / static_cast<double>(rows), 1.0, 1e-2);
  }
}

TEST_F(PipelineTest, EveryAggregatorTrainsAndPredicts) {
  GraphModel model(FastModelOptions(GraphEncoderKind::kGfn));
  model.Train(*train_);
  auto train_seq = BuildEmbeddingSequences(model, *train_);
  auto test_seq = BuildEmbeddingSequences(model, *test_);
  const EmbeddingScaler scaler = EmbeddingScaler::Fit(train_seq);
  scaler.Apply(&train_seq);
  scaler.Apply(&test_seq);

  auto kinds = AllAggregators();
  kinds.push_back(AggregatorKind::kSelfAttention);
  for (AggregatorKind kind : kinds) {
    AggregatorOptions opts;
    opts.kind = kind;
    opts.embed_dim = model.embed_dim();
    opts.epochs = 10;
    opts.seed = 5;
    AggregatorModel agg(opts);
    agg.Train(train_seq);
    const auto cm = agg.Evaluate(test_seq);
    EXPECT_GT(cm.Accuracy(), 0.4) << AggregatorName(kind);
  }
}

TEST_F(PipelineTest, AggregatorHistoryRecordsEpochs) {
  GraphModel model(FastModelOptions(GraphEncoderKind::kGfn));
  model.Train(*train_);
  auto train_seq = BuildEmbeddingSequences(model, *train_);
  auto test_seq = BuildEmbeddingSequences(model, *test_);
  const EmbeddingScaler scaler = EmbeddingScaler::Fit(train_seq);
  scaler.Apply(&train_seq);
  scaler.Apply(&test_seq);
  AggregatorOptions opts;
  opts.embed_dim = model.embed_dim();
  opts.epochs = 5;
  AggregatorModel agg(opts);
  std::vector<EpochStat> history;
  agg.Train(train_seq, &test_seq, &history);
  ASSERT_EQ(history.size(), 5u);
  EXPECT_GE(history.back().eval_f1, 0.0);
  EXPECT_GT(history.back().seconds, 0.0);
}

TEST_F(PipelineTest, EndToEndFacadeBeatsChance) {
  BaClassifier::Options opts;
  opts.dataset.construction.slice_size = 20;
  opts.graph_model.epochs = 6;
  opts.graph_model.hidden_dim = 32;
  opts.graph_model.embed_dim = 16;
  opts.aggregator.epochs = 12;
  BaClassifier clf(opts);
  ASSERT_TRUE(clf.TrainOnSamples(*train_).ok());
  metrics::ConfusionMatrix cm(opts.graph_model.num_classes);
  ASSERT_TRUE(clf.EvaluateSamples(*test_, &cm).ok());
  // Four balanced-ish classes: chance ~0.3; the pipeline must clear it.
  EXPECT_GT(cm.Accuracy(), 0.5);
  EXPECT_GT(cm.WeightedAverage().f1, 0.5);
}

TEST_F(PipelineTest, FacadeRejectsEmptyTraining) {
  BaClassifier::Options opts;
  BaClassifier clf(opts);
  EXPECT_FALSE(clf.TrainOnSamples({}).ok());
}

TEST_F(PipelineTest, PredictSampleIsDeterministic) {
  BaClassifier::Options opts;
  opts.graph_model.epochs = 3;
  opts.aggregator.epochs = 5;
  BaClassifier clf(opts);
  ASSERT_TRUE(clf.TrainOnSamples(*train_).ok());
  const AddressSample& s = (*test_)[0];
  int first = -1, second = -1;
  ASSERT_TRUE(clf.PredictSample(s, &first).ok());
  ASSERT_TRUE(clf.PredictSample(s, &second).ok());
  EXPECT_EQ(first, second);
}

TEST_F(PipelineTest, PredictMatchesPredictSampleOnBuiltSamples) {
  BaClassifier::Options opts;
  opts.dataset.construction.slice_size = 20;
  opts.dataset.num_threads = 3;
  opts.graph_model.epochs = 3;
  opts.aggregator.epochs = 5;
  BaClassifier clf(opts);
  ASSERT_TRUE(clf.TrainOnSamples(*train_).ok());
  const chain::Ledger& ledger = simulator_->ledger();
  const auto addresses = simulator_->CollectLabeledAddresses(0);
  std::vector<int> predicted;
  ASSERT_TRUE(clf.Predict(ledger, addresses, &predicted).ok());
  std::vector<AddressSample> samples;
  ASSERT_TRUE(clf.BuildSamples(ledger, addresses, &samples).ok());
  ASSERT_EQ(predicted.size(), addresses.size());
  size_t next = 0;
  for (size_t i = 0; i < addresses.size(); ++i) {
    int expected = 0;  // an address without history predicts class 0
    if (next < samples.size() &&
        samples[next].address == addresses[i].address) {
      ASSERT_TRUE(clf.PredictSample(samples[next++], &expected).ok());
    }
    EXPECT_EQ(predicted[i], expected) << "address " << addresses[i].address;
  }
  EXPECT_EQ(next, samples.size());
}

TEST_F(PipelineTest, GraphModelTrainingIsDeterministic) {
  GraphModelOptions opts = FastModelOptions(GraphEncoderKind::kGfn);
  opts.dropout = 0.1f;  // dropout draws come from the seeded model RNG
  GraphModel a(opts), b(opts);
  a.Train(*train_);
  b.Train(*train_);
  for (const auto& s : *test_) {
    for (const auto& gt : s.tensors) {
      EXPECT_EQ(a.PredictGraph(gt), b.PredictGraph(gt));
    }
  }
}

TEST_F(PipelineTest, GraphModelParametersExposedForCheckpointing) {
  for (auto kind : {GraphEncoderKind::kGfn, GraphEncoderKind::kGcn,
                    GraphEncoderKind::kDiffPool, GraphEncoderKind::kGat}) {
    GraphModel model(FastModelOptions(kind));
    const auto params = model.Parameters();
    EXPECT_FALSE(params.empty()) << GraphEncoderName(kind);
    int64_t count = 0;
    for (const auto& p : params) count += p->value.numel();
    EXPECT_EQ(count, model.NumParameters()) << GraphEncoderName(kind);
  }
}

TEST_F(PipelineTest, FlatFeaturesWellFormed) {
  const auto matrix = FlatFeatureMatrix(*train_);
  ASSERT_EQ(matrix.size(), train_->size());
  for (const auto& row : matrix) {
    ASSERT_EQ(static_cast<int64_t>(row.size()), kFlatFeatureDim);
    for (float v : row) EXPECT_TRUE(std::isfinite(v));
  }
  // Rows differ across samples (features carry signal).
  EXPECT_NE(matrix[0], matrix[1]);
}

TEST_F(PipelineTest, GraphEncoderNamesStable) {
  EXPECT_STREQ(GraphEncoderName(GraphEncoderKind::kGfn), "GFN");
  EXPECT_STREQ(GraphEncoderName(GraphEncoderKind::kGcn), "GCN");
  EXPECT_STREQ(GraphEncoderName(GraphEncoderKind::kDiffPool), "DiffPool");
  EXPECT_STREQ(GraphEncoderName(GraphEncoderKind::kGat), "GAT");
  EXPECT_STREQ(AggregatorName(AggregatorKind::kLstm), "LSTM+MLP");
  EXPECT_EQ(AllAggregators().size(), 6u);
}

}  // namespace
}  // namespace ba::core
