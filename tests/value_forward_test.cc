// Differential tests for the value-level inference forward: GFN's
// EmbedValue/ForwardValue, the LSTM and BiLSTM ForwardLastValue and the
// Mlp ForwardValue behind GraphModel::Embed/LogitsValue/PredictGraph and
// AggregatorModel::LogitsValue/Predict. For every graph encoder and every
// aggregator, each must give the taped forward's values bit for bit (the
// kinds without a value-level twin run the taped forward under a
// NoGradScope and must too). The taped Embed reference is a twin nn
// encoder that carries the model's parameter values.

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/gfn_features.h"
#include "core/graph_dataset.h"
#include "core/graph_model.h"
#include "datagen/dataset.h"
#include "datagen/simulator.h"
#include "nn/lstm.h"

namespace ba::core {
namespace {

void ExpectSameBits(const tensor::Tensor& a, const tensor::Tensor& b,
                    const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0)
      << what;
}

int ArgMax(const tensor::Tensor& logits) {
  int best = 0;
  for (int c = 1; c < logits.dim(1); ++c) {
    if (logits.at(0, c) > logits.at(0, best)) best = c;
  }
  return best;
}

/// Copies `from`'s parameter values into `to` (same architecture).
void CopyParameters(const std::vector<tensor::Var>& from,
                    const std::vector<tensor::Var>& to) {
  ASSERT_EQ(from.size(), to.size());
  for (size_t i = 0; i < from.size(); ++i) {
    ASSERT_TRUE(from[i]->value.SameShape(to[i]->value));
    to[i]->value = from[i]->value;
  }
}

/// The model's graph embedding through the taped forward: a twin nn
/// encoder with the model's parameter values, called outside any scope.
tensor::Var TapedEmbed(const GraphModel& model, const GraphTensors& gt) {
  const GraphModelOptions& o = model.options();
  Rng rng(0);
  const tensor::Var x_base = tensor::Constant(gt.base_features);
  switch (o.encoder) {
    case GraphEncoderKind::kGfn: {
      nn::GfnEncoder::Options eo;
      eo.input_dim = AugmentedDim(o.k_hops);
      eo.hidden_dim = o.hidden_dim;
      eo.embed_dim = o.embed_dim;
      eo.num_classes = o.num_classes;
      nn::GfnEncoder twin(eo, &rng);
      CopyParameters(model.Parameters(), twin.Parameters());
      return twin.Embed(tensor::Constant(gt.augmented));
    }
    case GraphEncoderKind::kGcn: {
      nn::GcnEncoder::Options eo;
      eo.input_dim = kNodeFeatureDim;
      eo.hidden_dim = o.hidden_dim;
      eo.embed_dim = o.embed_dim;
      eo.num_classes = o.num_classes;
      nn::GcnEncoder twin(eo, &rng);
      CopyParameters(model.Parameters(), twin.Parameters());
      return twin.Embed(gt.norm_adj, x_base);
    }
    case GraphEncoderKind::kDiffPool: {
      nn::DiffPoolEncoder::Options eo;
      eo.input_dim = kNodeFeatureDim;
      eo.hidden_dim = o.hidden_dim;
      eo.embed_dim = o.embed_dim;
      eo.num_classes = o.num_classes;
      eo.num_clusters = o.diffpool_clusters;
      nn::DiffPoolEncoder twin(eo, &rng);
      CopyParameters(model.Parameters(), twin.Parameters());
      return twin.Embed(gt.norm_adj, x_base);
    }
    case GraphEncoderKind::kGat: {
      nn::GatEncoder::Options eo;
      eo.input_dim = kNodeFeatureDim;
      eo.hidden_dim = o.hidden_dim;
      eo.embed_dim = o.embed_dim;
      eo.num_classes = o.num_classes;
      nn::GatEncoder twin(eo, &rng);
      CopyParameters(model.Parameters(), twin.Parameters());
      return twin.Embed(*gt.norm_adj, x_base);
    }
  }
  return nullptr;
}

class ValueForwardGraphModelTest
    : public ::testing::TestWithParam<GraphEncoderKind> {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 37;
    config.num_blocks = 80;
    config.num_retail_users = 24;
    config.miners_per_pool = 10;
    config.gamblers_per_house = 5;
    datagen::Simulator simulator(config);
    ASSERT_TRUE(simulator.Run().ok());
    auto labeled = simulator.CollectLabeledAddresses(3);
    Rng rng(5);
    labeled = datagen::StratifiedSample(labeled, 16, &rng);

    GraphDatasetOptions opts;
    opts.construction.slice_size = 20;
    opts.k_hops = 2;
    samples_ = new std::vector<AddressSample>(
        BuildAddressSamples(simulator.ledger().Snapshot(), labeled, opts));
    ASSERT_GT(samples_->size(), 4u);
  }

  static void TearDownTestSuite() {
    delete samples_;
    samples_ = nullptr;
  }

  static std::vector<AddressSample>* samples_;
};

std::vector<AddressSample>* ValueForwardGraphModelTest::samples_ = nullptr;

TEST_P(ValueForwardGraphModelTest, MatchesTheTapedForwardBitExactly) {
  // The default widths: the serving model's shapes, so the node MLP and
  // head GEMMs run the kernels serving runs. Graphs of every size in the
  // set pass through one thread's scratch, which grows and shrinks.
  GraphModelOptions o;
  o.encoder = GetParam();
  o.diffpool_clusters = 4;
  o.seed = 11;
  const GraphModel model(o);
  int graphs = 0;
  for (const AddressSample& s : *samples_) {
    for (const GraphTensors& gt : s.tensors) {
      const std::string what = std::string(GraphEncoderName(o.encoder)) +
                               " graph " + std::to_string(graphs++);
      const tensor::Var taped = model.Logits(gt);
      ASSERT_TRUE(taped->requires_grad) << what;
      ExpectSameBits(model.LogitsValue(gt), taped->value, what + " logits");
      EXPECT_EQ(model.PredictGraph(gt), ArgMax(taped->value)) << what;

      const tensor::Var taped_embed = TapedEmbed(model, gt);
      ASSERT_TRUE(taped_embed->requires_grad) << what;
      ExpectSameBits(model.Embed(gt), taped_embed->value, what + " embed");
    }
  }
  EXPECT_GT(graphs, 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, ValueForwardGraphModelTest,
    ::testing::Values(GraphEncoderKind::kGfn, GraphEncoderKind::kGcn,
                      GraphEncoderKind::kDiffPool, GraphEncoderKind::kGat),
    [](const ::testing::TestParamInfo<GraphEncoderKind>& info) {
      return std::string(GraphEncoderName(info.param));
    });

class ValueForwardAggregatorTest
    : public ::testing::TestWithParam<AggregatorKind> {};

TEST_P(ValueForwardAggregatorTest, MatchesTheTapedForwardBitExactly) {
  // Default widths (embed 32, hidden 32): the serving head's shapes.
  AggregatorOptions o;
  o.kind = GetParam();
  o.seed = 19;
  const AggregatorModel model(o);
  Rng rng(23);
  // Every slice count up to a cold_scan p99 miss, at two input scales:
  // the second drives the gates into saturation.
  for (int64_t t = 1; t <= 12; ++t) {
    for (const float stddev : {1.0f, 8.0f}) {
      for (int rep = 0; rep < 3; ++rep) {
        const tensor::Tensor seq =
            tensor::Tensor::RandomNormal({t, o.embed_dim}, &rng, 0.0f, stddev);
        const std::string what = std::string(AggregatorName(o.kind)) +
                                 " T=" + std::to_string(t) +
                                 " stddev=" + std::to_string(stddev);
        const tensor::Var taped = model.Logits(seq);
        ASSERT_TRUE(taped->requires_grad) << what;
        ExpectSameBits(model.LogitsValue(seq), taped->value, what);
        EXPECT_EQ(model.Predict(seq), ArgMax(taped->value)) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregators, ValueForwardAggregatorTest,
    ::testing::Values(AggregatorKind::kLstm, AggregatorKind::kBiLstm,
                      AggregatorKind::kAttention, AggregatorKind::kSum,
                      AggregatorKind::kAvg, AggregatorKind::kMax,
                      AggregatorKind::kSelfAttention),
    [](const ::testing::TestParamInfo<AggregatorKind>& info) {
      std::string name;
      for (const char c : std::string(AggregatorName(info.param))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name;
    });

TEST(ValueForwardLstmTest, RandomSequencesMatchTheTapedForwardBitExactly) {
  // The cell alone, on many random sequences through one reused scratch:
  // the gate products and Eq. 19's sum must keep Step's roundings.
  Rng rng(29);
  const nn::Lstm lstm(32, 32, &rng);
  nn::LstmScratch scratch;
  for (int rep = 0; rep < 500; ++rep) {
    const int64_t t = 1 + rep % 12;
    const tensor::Tensor seq =
        tensor::Tensor::RandomNormal({t, 32}, &rng, 0.0f, 2.0f);
    const tensor::Var taped = lstm.ForwardLast(tensor::Constant(seq));
    ExpectSameBits(lstm.ForwardLastValue(seq, &scratch), taped->value,
                   "rep " + std::to_string(rep));
  }
}

}  // namespace
}  // namespace ba::core
