// Tests for the neural modules: Linear/MLP, LSTM (Eq. 16-21), BiLSTM,
// attention pooling, GCN, GFN and DiffPool encoders.

#include <gtest/gtest.h>

#include <cmath>

#include "graph/centrality.h"
#include "nn/attention.h"
#include "nn/diffpool.h"
#include "nn/gat.h"
#include "nn/gcn.h"
#include "nn/gfn.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/self_attention.h"
#include "tensor/optimizer.h"

namespace ba::nn {
namespace {

using tensor::Constant;
using tensor::Tensor;
using tensor::Var;

TEST(LinearTest, ShapeAndBias) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.in_features(), 4);
  EXPECT_EQ(layer.out_features(), 3);
  Var x = Constant(Tensor({2, 4}));
  Var y = layer.Forward(x);
  EXPECT_EQ(y->value.dim(0), 2);
  EXPECT_EQ(y->value.dim(1), 3);
  // Zero input => output equals the bias row.
  EXPECT_FLOAT_EQ(y->value.at(0, 0), y->value.at(1, 0));
}

TEST(LinearTest, ParameterCount) {
  Rng rng(2);
  Linear layer(10, 5, &rng);
  EXPECT_EQ(layer.NumParameters(), 10 * 5 + 5);
}

TEST(MlpTest, LayerStackingAndParams) {
  Rng rng(3);
  Mlp mlp({6, 8, 4, 2}, &rng);
  EXPECT_EQ(mlp.num_layers(), 3u);
  EXPECT_EQ(mlp.NumParameters(), (6 * 8 + 8) + (8 * 4 + 4) + (4 * 2 + 2));
  Var y = mlp.Forward(Constant(Tensor({5, 6})));
  EXPECT_EQ(y->value.dim(0), 5);
  EXPECT_EQ(y->value.dim(1), 2);
}

TEST(MlpTest, TrainsToFitXor) {
  Rng rng(4);
  Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<int> y{0, 1, 1, 0};
  Mlp mlp({2, 12, 2}, &rng, Activation::kTanh);
  tensor::Adam adam(mlp.Parameters(), 0.05f);
  float loss_v = 1e9f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    adam.ZeroGrad();
    Var loss = tensor::SoftmaxCrossEntropy(mlp.Forward(Constant(x)), y);
    loss_v = loss->value.item();
    tensor::Backward(loss);
    adam.Step();
  }
  EXPECT_LT(loss_v, 0.05f);
}

TEST(LstmCellTest, StateShapesAndBounds) {
  Rng rng(5);
  LstmCell cell(3, 4, &rng);
  Var x = Constant(Tensor({1, 3}, {1.0f, -1.0f, 0.5f}));
  Var h = Constant(Tensor({1, 4}));
  Var c = Constant(Tensor({1, 4}));
  auto [h2, c2] = cell.Step(x, h, c);
  EXPECT_EQ(h2->value.dim(1), 4);
  EXPECT_EQ(c2->value.dim(1), 4);
  // h = o * tanh(c) is bounded by (-1, 1).
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_LT(std::abs(h2->value.at(0, i)), 1.0f);
  }
}

TEST(LstmCellTest, ZeroInputZeroStatePropagatesThroughGates) {
  Rng rng(6);
  LstmCell cell(2, 3, &rng);
  Var x = Constant(Tensor({1, 2}));
  Var h = Constant(Tensor({1, 3}));
  Var c = Constant(Tensor({1, 3}));
  auto [h2, c2] = cell.Step(x, h, c);
  // With zero bias init: f=i=o=0.5, c~=tanh(0)=0 => c2=0, h2=0.
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(c2->value.at(0, i), 0.0f, 1e-6f);
    EXPECT_NEAR(h2->value.at(0, i), 0.0f, 1e-6f);
  }
}

TEST(LstmTest, ForwardAllShapesAndLastConsistency) {
  Rng rng(7);
  Lstm lstm(3, 5, &rng);
  Var seq = Constant(Tensor::RandomNormal({6, 3}, &rng));
  Var all = lstm.ForwardAll(seq);
  Var last = lstm.ForwardLast(seq);
  EXPECT_EQ(all->value.dim(0), 6);
  EXPECT_EQ(all->value.dim(1), 5);
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_FLOAT_EQ(last->value.at(0, j), all->value.at(5, j));
  }
}

TEST(LstmTest, OrderSensitivity) {
  // LSTM must distinguish a sequence from its reverse (pooling cannot).
  Rng rng(8);
  Lstm lstm(2, 4, &rng);
  Tensor fwd({3, 2}, {1, 0, 0, 1, -1, 1});
  Var out_fwd = lstm.ForwardLast(Constant(fwd));
  Var out_rev = lstm.ForwardLast(ReverseRows(Constant(fwd)));
  float diff = 0.0f;
  for (int64_t j = 0; j < 4; ++j) {
    diff += std::abs(out_fwd->value.at(0, j) - out_rev->value.at(0, j));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(LstmTest, GradientsFlowToAllGates) {
  Rng rng(9);
  Lstm lstm(2, 3, &rng);
  Var seq = Constant(Tensor::RandomNormal({4, 2}, &rng));
  Var loss = tensor::MeanAll(lstm.ForwardLast(seq));
  tensor::Backward(loss);
  int with_grad = 0;
  for (const auto& p : lstm.Parameters()) with_grad += p->grad_ready;
  EXPECT_EQ(with_grad, 8);  // 4 gates x (W, b)
}

TEST(LstmTest, LearnsLastElementTask) {
  // Predict the class of the LAST element — requires temporal memory.
  Rng rng(10);
  Lstm lstm(2, 8, &rng);
  Linear head(8, 2, &rng);
  std::vector<Var> params = lstm.Parameters();
  auto hp = head.Parameters();
  params.insert(params.end(), hp.begin(), hp.end());
  tensor::Adam adam(params, 0.02f);
  float loss_v = 1e9f;
  for (int epoch = 0; epoch < 150; ++epoch) {
    adam.ZeroGrad();
    std::vector<Var> losses;
    for (int ex = 0; ex < 8; ++ex) {
      const int cls = ex % 2;
      Tensor seq({3, 2});
      for (int64_t t = 0; t < 3; ++t) {
        seq.at(t, 0) = static_cast<float>(rng.Gaussian(0.0, 0.3));
        seq.at(t, 1) = static_cast<float>(rng.Gaussian(0.0, 0.3));
      }
      seq.at(2, cls) += 2.0f;  // signal only in the last step
      losses.push_back(tensor::SoftmaxCrossEntropy(
          head.Forward(lstm.ForwardLast(Constant(seq))), {cls}));
    }
    Var loss = losses[0];
    for (size_t k = 1; k < losses.size(); ++k) {
      loss = tensor::Add(loss, losses[k]);
    }
    loss = tensor::Scale(loss, 1.0f / 8.0f);
    loss_v = loss->value.item();
    tensor::Backward(loss);
    adam.Step();
  }
  EXPECT_LT(loss_v, 0.1f);
}

TEST(BiLstmTest, OutputConcatenatesDirections) {
  Rng rng(11);
  BiLstm bilstm(3, 4, &rng);
  EXPECT_EQ(bilstm.output_size(), 8);
  Var seq = Constant(Tensor::RandomNormal({5, 3}, &rng));
  Var out = bilstm.ForwardLast(seq);
  EXPECT_EQ(out->value.dim(1), 8);
  EXPECT_EQ(bilstm.Parameters().size(), 16u);
}

TEST(ReverseRowsTest, ReversesOrder) {
  Tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
  Var r = ReverseRows(Constant(t));
  EXPECT_FLOAT_EQ(r->value.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(r->value.at(2, 1), 2.0f);
}

TEST(AttentionPoolTest, OutputIsConvexCombination) {
  Rng rng(12);
  AttentionPool pool(3, 4, &rng);
  Tensor seq({4, 3});
  for (int64_t t = 0; t < 4; ++t) {
    for (int64_t j = 0; j < 3; ++j) {
      seq.at(t, j) = static_cast<float>(rng.Uniform(0.0, 1.0));
    }
  }
  Var out = pool.Forward(Constant(seq));
  EXPECT_EQ(out->value.dim(0), 1);
  EXPECT_EQ(out->value.dim(1), 3);
  // Convex combination stays within the column-wise min/max envelope.
  for (int64_t j = 0; j < 3; ++j) {
    float lo = 1e9f, hi = -1e9f;
    for (int64_t t = 0; t < 4; ++t) {
      lo = std::min(lo, seq.at(t, j));
      hi = std::max(hi, seq.at(t, j));
    }
    EXPECT_GE(out->value.at(0, j), lo - 1e-5f);
    EXPECT_LE(out->value.at(0, j), hi + 1e-5f);
  }
}

std::shared_ptr<const graph::SparseMatrix> TriangleAdjacency() {
  const graph::AdjacencyList adj(3, {{0, 1}, {1, 2}, {2, 0}});
  return std::make_shared<const graph::SparseMatrix>(
      graph::NormalizedAdjacency(adj));
}

TEST(GcnTest, LayerPropagatesNeighborInformation) {
  Rng rng(13);
  GcnLayer layer(2, 4, &rng);
  auto adj = TriangleAdjacency();
  Var x = Constant(Tensor::RandomNormal({3, 2}, &rng));
  Var h = layer.Forward(adj, x);
  EXPECT_EQ(h->value.dim(0), 3);
  EXPECT_EQ(h->value.dim(1), 4);
  for (int64_t i = 0; i < h->value.numel(); ++i) {
    EXPECT_GE(h->value.data()[i], 0.0f);  // ReLU output
  }
}

TEST(GcnTest, EncoderShapesAndTrainability) {
  Rng rng(14);
  GcnEncoder::Options opts;
  opts.input_dim = 2;
  opts.hidden_dim = 8;
  opts.embed_dim = 4;
  opts.num_classes = 2;
  GcnEncoder enc(opts, &rng);
  auto adj = TriangleAdjacency();
  Var x = Constant(Tensor::RandomNormal({3, 2}, &rng));
  EXPECT_EQ(enc.Embed(adj, x)->value.dim(1), 4);
  Var logits = enc.Forward(adj, x);
  EXPECT_EQ(logits->value.dim(1), 2);
  Var loss = tensor::SoftmaxCrossEntropy(logits, {1});
  tensor::Backward(loss);
  int with_grad = 0;
  for (const auto& p : enc.Parameters()) with_grad += p->grad_ready;
  EXPECT_EQ(with_grad, static_cast<int>(enc.Parameters().size()));
}

TEST(GfnTest, EmbedIsSumReadout) {
  Rng rng(15);
  GfnEncoder::Options opts;
  opts.input_dim = 3;
  opts.hidden_dim = 6;
  opts.embed_dim = 4;
  opts.num_classes = 2;
  GfnEncoder enc(opts, &rng);
  // Duplicating every node doubles the SUM readout embedding.
  Tensor x1 = Tensor::RandomNormal({4, 3}, &rng);
  Tensor x2({8, 3});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      x2.at(i, j) = x1.at(i, j);
      x2.at(i + 4, j) = x1.at(i, j);
    }
  }
  Var e1 = enc.Embed(Constant(x1));
  Var e2 = enc.Embed(Constant(x2));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(e2->value.at(0, j), 2.0f * e1->value.at(0, j), 1e-3f);
  }
}

TEST(GfnTest, TrainsOnSeparableGraphs) {
  Rng rng(16);
  GfnEncoder::Options opts;
  opts.input_dim = 2;
  opts.hidden_dim = 8;
  opts.embed_dim = 4;
  opts.num_classes = 2;
  GfnEncoder enc(opts, &rng);
  tensor::Adam adam(enc.Parameters(), 0.02f);
  float loss_v = 1e9f;
  for (int epoch = 0; epoch < 120; ++epoch) {
    adam.ZeroGrad();
    std::vector<Var> losses;
    for (int ex = 0; ex < 6; ++ex) {
      const int cls = ex % 2;
      const int64_t n = 3 + ex;
      Tensor x({n, 2});
      for (int64_t i = 0; i < n; ++i) {
        x.at(i, 0) = static_cast<float>(rng.Gaussian(cls ? 1.0 : -1.0, 0.2));
        x.at(i, 1) = static_cast<float>(rng.Gaussian(0.0, 0.2));
      }
      losses.push_back(
          tensor::SoftmaxCrossEntropy(enc.Forward(Constant(x)), {cls}));
    }
    Var loss = losses[0];
    for (size_t k = 1; k < losses.size(); ++k) {
      loss = tensor::Add(loss, losses[k]);
    }
    loss = tensor::Scale(loss, 1.0f / 6.0f);
    loss_v = loss->value.item();
    tensor::Backward(loss);
    adam.Step();
  }
  EXPECT_LT(loss_v, 0.1f);
}

TEST(SelfAttentionPoolTest, ShapeAndPermutationSensitivity) {
  Rng rng(31);
  SelfAttentionPool pool(3, 5, &rng);
  Var seq = Constant(Tensor::RandomNormal({4, 3}, &rng));
  Var out = pool.Forward(seq);
  EXPECT_EQ(out->value.dim(0), 1);
  EXPECT_EQ(out->value.dim(1), 5);
  // Mean-pooled self-attention is permutation-invariant over rows: the
  // reversed sequence must produce the same pooled output.
  Var rev = pool.Forward(ReverseRows(seq));
  for (int64_t j = 0; j < 5; ++j) {
    EXPECT_NEAR(out->value.at(0, j), rev->value.at(0, j), 1e-4f);
  }
  EXPECT_EQ(pool.Parameters().size(), 6u);  // 3 linears x (W, b)
}

TEST(SelfAttentionPoolTest, GradientsFlow) {
  Rng rng(32);
  SelfAttentionPool pool(2, 4, &rng);
  Var seq = Constant(Tensor::RandomNormal({3, 2}, &rng));
  Var loss = tensor::MeanAll(pool.Forward(seq));
  tensor::Backward(loss);
  for (const auto& p : pool.Parameters()) {
    EXPECT_TRUE(p->grad_ready);
  }
}

TEST(GatTest, EdgeMaskIncludesSelfLoopsAndEdges) {
  const graph::AdjacencyList adj(3, {{0, 1}});
  const auto sparse = graph::NormalizedAdjacency(adj);
  const tensor::Tensor mask = EdgeMask(sparse);
  EXPECT_FLOAT_EQ(mask.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(2, 2), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(0, 2), 0.0f);
}

TEST(GatTest, AttentionRespectsMask) {
  // An isolated node's output must depend only on itself: with zero
  // off-diagonal mask entries, attention collapses to identity mixing.
  Rng rng(21);
  GatLayer layer(2, 3, &rng, /*apply_elu=*/false);
  const graph::AdjacencyList adj(3, {{0, 1}});  // node 2 isolated
  const auto sparse = graph::NormalizedAdjacency(adj);
  Var mask = Constant(EdgeMask(sparse));
  Tensor x1 = Tensor::RandomNormal({3, 2}, &rng);
  Tensor x2 = x1;
  // Perturb node 0's features; node 2's output must not change.
  x2.at(0, 0) += 5.0f;
  const Var out1 = layer.Forward(mask, Constant(x1));
  const Var out2 = layer.Forward(mask, Constant(x2));
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(out1->value.at(2, j), out2->value.at(2, j), 1e-5f);
    // Node 1 is connected to node 0, so its output should move.
  }
  float moved = 0.0f;
  for (int64_t j = 0; j < 3; ++j) {
    moved += std::abs(out1->value.at(1, j) - out2->value.at(1, j));
  }
  EXPECT_GT(moved, 1e-4f);
}

TEST(GatTest, EncoderTrainsAndGradientsFlow) {
  Rng rng(22);
  GatEncoder::Options opts;
  opts.input_dim = 2;
  opts.hidden_dim = 6;
  opts.embed_dim = 4;
  opts.num_classes = 2;
  GatEncoder enc(opts, &rng);
  const graph::AdjacencyList adj(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto sparse = graph::NormalizedAdjacency(adj);
  Var x = Constant(Tensor::RandomNormal({4, 2}, &rng));
  Var logits = enc.Forward(sparse, x);
  EXPECT_EQ(logits->value.dim(1), 2);
  Var loss = tensor::SoftmaxCrossEntropy(logits, {1});
  tensor::Backward(loss);
  int with_grad = 0;
  for (const auto& p : enc.Parameters()) with_grad += p->grad_ready;
  EXPECT_EQ(with_grad, static_cast<int>(enc.Parameters().size()));
}

TEST(DiffPoolTest, ShapesAndGradients) {
  Rng rng(17);
  DiffPoolEncoder::Options opts;
  opts.input_dim = 3;
  opts.hidden_dim = 6;
  opts.embed_dim = 4;
  opts.num_classes = 2;
  opts.num_clusters = 2;
  DiffPoolEncoder enc(opts, &rng);
  auto adj = TriangleAdjacency();
  Var x = Constant(Tensor::RandomNormal({3, 3}, &rng));
  Var embed = enc.Embed(adj, x);
  EXPECT_EQ(embed->value.dim(0), 1);
  EXPECT_EQ(embed->value.dim(1), 4);
  Var loss = tensor::SoftmaxCrossEntropy(enc.Forward(adj, x), {0});
  tensor::Backward(loss);
  int with_grad = 0;
  for (const auto& p : enc.Parameters()) with_grad += p->grad_ready;
  EXPECT_EQ(with_grad, static_cast<int>(enc.Parameters().size()));
}

}  // namespace
}  // namespace ba::nn
