// Differential tests for the tape-free inference forward: for every
// graph encoder and every aggregator, the forward run under a
// NoGradScope must give the taped forward's values bit for bit, and the
// inference entry points (Embed, PredictGraph, Predict) must agree with
// the taped values. The taped Embed reference is a twin nn encoder that
// carries the model's parameter values, run outside any scope.

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

class NoGradGraphModelTest
    : public ::testing::TestWithParam<GraphEncoderKind> {
 protected:
  static void SetUpTestSuite() {
    datagen::ScenarioConfig config;
    config.seed = 31;
    config.num_blocks = 80;
    config.num_retail_users = 24;
    config.miners_per_pool = 10;
    config.gamblers_per_house = 5;
    datagen::Simulator simulator(config);
    ASSERT_TRUE(simulator.Run().ok());
    auto labeled = simulator.CollectLabeledAddresses(3);
    Rng rng(4);
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

std::vector<AddressSample>* NoGradGraphModelTest::samples_ = nullptr;

TEST_P(NoGradGraphModelTest, ScopedForwardMatchesTheTapedForwardBitExactly) {
  GraphModelOptions o;
  o.encoder = GetParam();
  o.hidden_dim = 16;
  o.embed_dim = 8;
  o.diffpool_clusters = 4;
  o.seed = 9;
  const GraphModel model(o);
  int graphs = 0;
  for (const AddressSample& s : *samples_) {
    for (const GraphTensors& gt : s.tensors) {
      const std::string what = std::string(GraphEncoderName(o.encoder)) +
                               " graph " + std::to_string(graphs++);
      const tensor::Var taped = model.Logits(gt);
      ASSERT_TRUE(taped->requires_grad) << what;
      ASSERT_FALSE(taped->parents.empty()) << what;
      tensor::Var bare;
      {
        tensor::NoGradScope no_grad;
        bare = model.Logits(gt);
      }
      EXPECT_TRUE(bare->parents.empty()) << what;
      ExpectSameBits(bare->value, taped->value, what + " logits");
      EXPECT_EQ(model.PredictGraph(gt), ArgMax(taped->value)) << what;

      const tensor::Var taped_embed = TapedEmbed(model, gt);
      ASSERT_TRUE(taped_embed->requires_grad) << what;
      ExpectSameBits(model.Embed(gt), taped_embed->value, what + " embed");
    }
  }
  EXPECT_GT(graphs, 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, NoGradGraphModelTest,
    ::testing::Values(GraphEncoderKind::kGfn, GraphEncoderKind::kGcn,
                      GraphEncoderKind::kDiffPool, GraphEncoderKind::kGat),
    [](const ::testing::TestParamInfo<GraphEncoderKind>& info) {
      return std::string(GraphEncoderName(info.param));
    });

class NoGradAggregatorTest : public ::testing::TestWithParam<AggregatorKind> {
};

TEST_P(NoGradAggregatorTest, ScopedForwardMatchesTheTapedForwardBitExactly) {
  AggregatorOptions o;
  o.kind = GetParam();
  o.embed_dim = 8;
  o.hidden_dim = 8;
  o.mlp_hidden = 8;
  o.seed = 13;
  const AggregatorModel model(o);
  Rng rng(17);
  // Cold-scan slice counts: p50, p90 and p99 of a miss.
  for (int64_t t : {1, 4, 12}) {
    for (int rep = 0; rep < 4; ++rep) {
      const tensor::Tensor seq =
          tensor::Tensor::RandomNormal({t, o.embed_dim}, &rng);
      const std::string what = std::string(AggregatorName(o.kind)) +
                               " T=" + std::to_string(t);
      const tensor::Var taped = model.Logits(seq);
      ASSERT_TRUE(taped->requires_grad) << what;
      tensor::Var bare;
      {
        tensor::NoGradScope no_grad;
        bare = model.Logits(seq);
      }
      EXPECT_TRUE(bare->parents.empty()) << what;
      ExpectSameBits(bare->value, taped->value, what);
      EXPECT_EQ(model.Predict(seq), ArgMax(taped->value)) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregators, NoGradAggregatorTest,
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

}  // namespace
}  // namespace ba::core
