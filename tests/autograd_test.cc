// Reverse-mode autograd correctness: every differentiable op is checked
// against central-difference numeric gradients, plus optimizer
// convergence tests and the NoGradScope semantics (no tape under the
// scope, nesting, thread-locality, Backward without a tape).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include "tensor/autograd.h"
#include "tensor/optimizer.h"
#include "util/rng.h"

namespace ba::tensor {
namespace {

/// Checks d(loss)/d(param) against central differences for every
/// element of every parameter. `loss_fn` must rebuild the tape from the
/// current parameter values on each call.
void CheckGradients(const std::vector<Var>& params,
                    const std::function<Var()>& loss_fn, float eps = 1e-3f,
                    float tol = 2e-2f) {
  Var loss = loss_fn();
  ZeroGrad(params);
  Backward(loss);
  for (size_t p = 0; p < params.size(); ++p) {
    ASSERT_TRUE(params[p]->grad_ready) << "param " << p << " has no grad";
    for (int64_t i = 0; i < params[p]->value.numel(); ++i) {
      const float saved = params[p]->value.data()[i];
      params[p]->value.data()[i] = saved + eps;
      const float up = loss_fn()->value.item();
      params[p]->value.data()[i] = saved - eps;
      const float down = loss_fn()->value.item();
      params[p]->value.data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = params[p]->grad.data()[i];
      EXPECT_NEAR(analytic, numeric,
                  tol * std::max(1.0f, std::abs(numeric)))
          << "param " << p << " element " << i;
    }
  }
}

TEST(AutogradTest, ConstantHasNoGradient) {
  Var c = Constant(Tensor::Ones({2, 2}));
  EXPECT_FALSE(c->requires_grad);
  Var p = Param(Tensor::Ones({2, 2}));
  EXPECT_TRUE(p->requires_grad);
}

TEST(AutogradTest, BackwardThroughAddChain) {
  Var a = Param(Tensor({1, 1}, {2.0f}));
  Var b = Param(Tensor({1, 1}, {3.0f}));
  Var loss = MeanAll(Add(a, b));
  Backward(loss);
  EXPECT_FLOAT_EQ(a->grad.item(), 1.0f);
  EXPECT_FLOAT_EQ(b->grad.item(), 1.0f);
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Var a = Param(Tensor({1, 1}, {2.0f}));
  Var loss1 = MeanAll(Scale(a, 3.0f));
  Backward(loss1);
  EXPECT_FLOAT_EQ(a->grad.item(), 3.0f);
  Var loss2 = MeanAll(Scale(a, 3.0f));
  Backward(loss2);
  EXPECT_FLOAT_EQ(a->grad.item(), 6.0f);
  ZeroGrad({a});
  EXPECT_FALSE(a->grad_ready);
}

TEST(AutogradTest, BackwardAfterZeroGradReusesTheGradBuffer) {
  Rng rng(5);
  const Var x = Constant(Tensor::RandomNormal({3, 4}, &rng, 1.0f));
  const auto loss = [&x](const Var& w) {
    const Var h = MatMul(x, w);
    return MeanAll(Mul(h, h));
  };
  Var w = Param(Tensor::RandomNormal({4, 2}, &rng, 1.0f));
  Backward(loss(w));
  const float* storage = w->grad.data();
  ZeroGrad({w});
  EXPECT_FALSE(w->grad_ready);
  EXPECT_EQ(w->grad.data(), storage) << "ZeroGrad must keep the storage";
  Backward(loss(w));
  ASSERT_TRUE(w->grad_ready);
  EXPECT_EQ(w->grad.data(), storage) << "Backward must reuse the buffer";

  // A fresh node's first gradient is the reference, bit for bit.
  Var fresh = Param(w->value);
  Backward(loss(fresh));
  ASSERT_TRUE(fresh->grad.SameShape(w->grad));
  EXPECT_EQ(std::memcmp(fresh->grad.data(), w->grad.data(),
                        sizeof(float) * static_cast<size_t>(w->grad.numel())),
            0);
}

TEST(AutogradTest, ReusedNodeReceivesSummedGradient) {
  // loss = mean(a + a) => dloss/da = 2/numel elementwise.
  Var a = Param(Tensor({1, 2}, {1.0f, 2.0f}));
  Var loss = MeanAll(Add(a, a));
  Backward(loss);
  EXPECT_FLOAT_EQ(a->grad.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(a->grad.at(0, 1), 1.0f);
}

TEST(AutogradTest, BackwardOnAConstantRootIsACheckedError) {
  const Var c = MeanAll(Constant(Tensor::Ones({2, 2})));
  ASSERT_FALSE(c->requires_grad);
  EXPECT_DEATH(Backward(c), "requires_grad");
}

TEST(AutogradTest, BackwardOnAValueMadeUnderTheScopeIsACheckedError) {
  const Var w = Param(Tensor::Ones({2, 2}));
  Var loss;
  {
    NoGradScope no_grad;
    loss = MeanAll(Mul(w, w));
  }
  ASSERT_FALSE(loss->requires_grad);
  EXPECT_DEATH(Backward(loss), "requires_grad");
}

TEST(NoGradScopeTest, NodeMadeUnderTheScopeHoldsOnlyItsValue) {
  Rng rng(21);
  const Var x = Constant(Tensor::RandomNormal({3, 4}, &rng));
  const Var w = Param(Tensor::RandomNormal({4, 2}, &rng));
  const Var taped = Tanh(MatMul(x, w));
  EXPECT_TRUE(taped->requires_grad);
  EXPECT_EQ(taped->parents.size(), 1u);
  EXPECT_TRUE(static_cast<bool>(taped->backward));

  NoGradScope no_grad;
  const Var bare = Tanh(MatMul(x, w));
  EXPECT_FALSE(bare->requires_grad);
  EXPECT_TRUE(bare->parents.empty());
  EXPECT_FALSE(static_cast<bool>(bare->backward));
  ASSERT_TRUE(bare->value.SameShape(taped->value));
  EXPECT_EQ(std::memcmp(bare->value.data(), taped->value.data(),
                        sizeof(float) *
                            static_cast<size_t>(taped->value.numel())),
            0);
  // Param and Constant are leaves, not ops: the scope leaves them be.
  EXPECT_TRUE(Param(Tensor::Ones({1, 1}))->requires_grad);
}

TEST(NoGradScopeTest, NestedScopesRestoreTheOuterState) {
  const Var w = Param(Tensor::Ones({1, 2}));
  const auto taped = [&w] { return !Scale(w, 2.0f)->parents.empty(); };
  EXPECT_TRUE(taped());
  {
    NoGradScope outer;
    EXPECT_FALSE(taped());
    {
      NoGradScope inner;
      EXPECT_FALSE(taped());
    }
    EXPECT_FALSE(taped()) << "closing the inner scope reopened the tape";
  }
  EXPECT_TRUE(taped());
  EXPECT_TRUE(Scale(w, 2.0f)->requires_grad);
}

TEST(NoGradScopeTest, TheFlagIsThreadLocal) {
  NoGradScope no_grad;
  bool other_requires_grad = false;
  size_t other_parents = 0;
  std::thread other([&] {
    const Var w = Param(Tensor::Ones({2, 2}));
    const Var y = Relu(Scale(w, 3.0f));
    other_requires_grad = y->requires_grad;
    other_parents = y->parents.size();
  });
  other.join();
  EXPECT_TRUE(other_requires_grad);
  EXPECT_EQ(other_parents, 1u);
  // This thread still holds its scope.
  EXPECT_TRUE(Scale(Param(Tensor::Ones({1, 1})), 2.0f)->parents.empty());
}

TEST(GradCheckTest, MatMul) {
  Rng rng(1);
  Var a = Param(Tensor::RandomNormal({3, 4}, &rng, 0.0f, 0.5f));
  Var b = Param(Tensor::RandomNormal({4, 2}, &rng, 0.0f, 0.5f));
  CheckGradients({a, b}, [&] { return MeanAll(MatMul(a, b)); });
}

TEST(GradCheckTest, AddBroadcastBias) {
  Rng rng(2);
  Var x = Param(Tensor::RandomNormal({4, 3}, &rng));
  Var bias = Param(Tensor::RandomNormal({1, 3}, &rng));
  CheckGradients({x, bias}, [&] { return MeanAll(Add(x, bias)); });
}

TEST(GradCheckTest, SubAndMul) {
  Rng rng(3);
  Var a = Param(Tensor::RandomNormal({2, 5}, &rng));
  Var b = Param(Tensor::RandomNormal({2, 5}, &rng));
  CheckGradients({a, b}, [&] { return MeanAll(Mul(Sub(a, b), a)); });
}

TEST(GradCheckTest, ActivationsOnSmoothRegion) {
  Rng rng(4);
  // Keep values away from ReLU's kink for clean numeric gradients.
  Var a = Param(Tensor::RandomUniform({3, 3}, &rng, 0.2f, 1.5f));
  CheckGradients({a}, [&] { return MeanAll(Relu(a)); });
  Var b = Param(Tensor::RandomNormal({3, 3}, &rng));
  CheckGradients({b}, [&] { return MeanAll(Sigmoid(b)); });
  Var c = Param(Tensor::RandomNormal({3, 3}, &rng));
  CheckGradients({c}, [&] { return MeanAll(Tanh(c)); });
}

TEST(GradCheckTest, SoftmaxRowsAndCols) {
  Rng rng(5);
  Var a = Param(Tensor::RandomNormal({3, 4}, &rng));
  Var w = Constant(Tensor::RandomNormal({3, 4}, &rng));
  CheckGradients({a}, [&] { return MeanAll(Mul(Softmax(a, 1), w)); });
  CheckGradients({a}, [&] { return MeanAll(Mul(Softmax(a, 0), w)); });
}

TEST(GradCheckTest, SoftmaxCrossEntropy) {
  Rng rng(6);
  Var logits = Param(Tensor::RandomNormal({5, 4}, &rng));
  const std::vector<int> labels{0, 2, 1, 3, 2};
  CheckGradients({logits},
                 [&] { return SoftmaxCrossEntropy(logits, labels); });
}

TEST(GradCheckTest, ConcatRowsAndCols) {
  Rng rng(7);
  Var a = Param(Tensor::RandomNormal({2, 3}, &rng));
  Var b = Param(Tensor::RandomNormal({4, 3}, &rng));
  Var w = Constant(Tensor::RandomNormal({6, 3}, &rng));
  CheckGradients({a, b},
                 [&] { return MeanAll(Mul(ConcatRows({a, b}), w)); });
  Var c = Param(Tensor::RandomNormal({2, 5}, &rng));
  Var w2 = Constant(Tensor::RandomNormal({2, 8}, &rng));
  CheckGradients({a, c},
                 [&] { return MeanAll(Mul(ConcatCols({a, c}), w2)); });
}

TEST(GradCheckTest, Reductions) {
  Rng rng(8);
  Var a = Param(Tensor::RandomNormal({4, 3}, &rng));
  Var w = Constant(Tensor::RandomNormal({1, 3}, &rng));
  CheckGradients({a}, [&] { return MeanAll(Mul(SumRows(a), w)); });
  CheckGradients({a}, [&] { return MeanAll(Mul(MeanRows(a), w)); });
  CheckGradients({a}, [&] { return MeanAll(Mul(MaxRows(a), w)); });
}

TEST(GradCheckTest, SliceAndTranspose) {
  Rng rng(9);
  Var a = Param(Tensor::RandomNormal({5, 3}, &rng));
  Var w = Constant(Tensor::RandomNormal({2, 3}, &rng));
  CheckGradients({a}, [&] { return MeanAll(Mul(SliceRows(a, 1, 3), w)); });
  Var w2 = Constant(Tensor::RandomNormal({3, 5}, &rng));
  CheckGradients({a}, [&] { return MeanAll(Mul(Transpose(a), w2)); });
}

TEST(GradCheckTest, SpMM) {
  Rng rng(10);
  auto s = std::make_shared<const graph::SparseMatrix>(
      graph::SparseMatrix::FromTriplets(
          3, 4,
          {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, -1.0f}, {2, 3, 0.5f}}));
  Var x = Param(Tensor::RandomNormal({4, 2}, &rng));
  CheckGradients({x}, [&] { return MeanAll(SpMM(s, x)); });
}

TEST(GradCheckTest, L2Penalty) {
  Rng rng(11);
  Var a = Param(Tensor::RandomNormal({3, 3}, &rng));
  CheckGradients({a}, [&] { return L2Penalty(a); });
}

TEST(GradCheckTest, CompositeTwoLayerNetwork) {
  Rng rng(12);
  Var x = Constant(Tensor::RandomNormal({6, 4}, &rng));
  Var w1 = Param(Tensor::XavierUniform(4, 5, &rng));
  Var b1 = Param(Tensor({1, 5}));
  Var w2 = Param(Tensor::XavierUniform(5, 3, &rng));
  Var b2 = Param(Tensor({1, 3}));
  const std::vector<int> labels{0, 1, 2, 0, 1, 2};
  CheckGradients({w1, b1, w2, b2}, [&] {
    Var h = Tanh(Add(MatMul(x, w1), b1));
    Var logits = Add(MatMul(h, w2), b2);
    return SoftmaxCrossEntropy(logits, labels);
  });
}

TEST(DropoutTest, IdentityInInference) {
  Rng rng(13);
  Var a = Param(Tensor::RandomNormal({4, 4}, &rng));
  Var out = Dropout(a, 0.5f, &rng, /*training=*/false);
  EXPECT_EQ(out.get(), a.get());
}

TEST(DropoutTest, InvertedScalingPreservesExpectation) {
  Rng rng(14);
  Var a = Constant(Tensor::Ones({200, 50}));
  Var out = Dropout(a, 0.3f, &rng, /*training=*/true);
  // Mean of inverted-dropout output approximates the input mean.
  EXPECT_NEAR(out->value.Sum() / out->value.numel(), 1.0, 0.05);
  // Entries are either 0 or 1/keep.
  for (int64_t i = 0; i < out->value.numel(); ++i) {
    const float v = out->value.data()[i];
    EXPECT_TRUE(std::abs(v) < 1e-6 || std::abs(v - 1.0f / 0.7f) < 1e-5);
  }
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  // minimize (w - 3)^2 via autograd.
  Var w = Param(Tensor({1, 1}, {0.0f}));
  Sgd sgd({w}, /*lr=*/0.1f);
  for (int i = 0; i < 100; ++i) {
    sgd.ZeroGrad();
    Var target = Constant(Tensor({1, 1}, {3.0f}));
    Var diff = Sub(w, target);
    Var loss = MeanAll(Mul(diff, diff));
    Backward(loss);
    sgd.Step();
  }
  EXPECT_NEAR(w->value.item(), 3.0f, 1e-3f);
}

TEST(OptimizerTest, SgdMomentumConvergesFasterOnIllConditioned) {
  auto run = [](float momentum) {
    Var w = Param(Tensor({1, 2}, {5.0f, 5.0f}));
    Sgd sgd({w}, 0.02f, momentum);
    float loss_v = 0.0f;
    for (int i = 0; i < 60; ++i) {
      sgd.ZeroGrad();
      // loss = w0^2 + 10 * w1^2 (anisotropic quadratic)
      Var scale = Constant(Tensor({1, 2}, {1.0f, std::sqrt(10.0f)}));
      Var scaled = Mul(w, scale);
      Var loss = MeanAll(Mul(scaled, scaled));
      loss_v = loss->value.item();
      Backward(loss);
      sgd.Step();
    }
    return loss_v;
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(OptimizerTest, AdamConvergesOnLogisticToy) {
  Rng rng(15);
  // Linearly separable 2-class blobs.
  const int n = 60;
  Tensor x({n, 2});
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    x.at(i, 0) = static_cast<float>(rng.Gaussian(cls ? 2.0 : -2.0, 0.4));
    x.at(i, 1) = static_cast<float>(rng.Gaussian(cls ? -1.0 : 1.0, 0.4));
    y[static_cast<size_t>(i)] = cls;
  }
  Var w = Param(Tensor::XavierUniform(2, 2, &rng));
  Var b = Param(Tensor({1, 2}));
  Adam adam({w, b}, 0.05f);
  float final_loss = 1e9f;
  for (int epoch = 0; epoch < 120; ++epoch) {
    adam.ZeroGrad();
    Var logits = Add(MatMul(Constant(x), w), b);
    Var loss = SoftmaxCrossEntropy(logits, y);
    final_loss = loss->value.item();
    Backward(loss);
    adam.Step();
  }
  EXPECT_LT(final_loss, 0.05f);
}

TEST(OptimizerTest, AdamRangeUpdatesMatchStepBitExactly) {
  // Two steps, the second over split element ranges in reverse order,
  // against whole-tensor Step() calls on an identical twin.
  Rng rng(9);
  const Tensor init = Tensor::RandomNormal({5, 7}, &rng, 1.0f);
  const Tensor grad1 = Tensor::RandomNormal({5, 7}, &rng, 1.0f);
  const Tensor grad2 = Tensor::RandomNormal({5, 7}, &rng, 1.0f);
  Var whole = Param(init);
  Var ranged = Param(init);
  Adam a({whole}, 0.01f, 0.9f, 0.999f, 1e-8f, 0.1f);
  Adam b({ranged}, 0.01f, 0.9f, 0.999f, 1e-8f, 0.1f);
  for (const Tensor* g : {&grad1, &grad2}) {
    whole->grad = *g;
    whole->grad_ready = true;
    ranged->grad = *g;
    ranged->grad_ready = true;
    a.Step();
    b.BeginStep();
    b.UpdateRange(0, 20, 35);
    b.UpdateRange(0, 0, 20);
  }
  EXPECT_EQ(a.step(), b.step());
  EXPECT_EQ(std::memcmp(whole->value.data(), ranged->value.data(),
                        sizeof(float) * 35),
            0);
}

TEST(OptimizerTest, StepSkipsParamsWithoutGradient) {
  Var used = Param(Tensor({1, 1}, {1.0f}));
  Var unused = Param(Tensor({1, 1}, {7.0f}));
  Adam adam({used, unused}, 0.1f);
  adam.ZeroGrad();
  Var loss = MeanAll(Mul(used, used));
  Backward(loss);
  adam.Step();
  EXPECT_FLOAT_EQ(unused->value.item(), 7.0f);
  EXPECT_NE(used->value.item(), 1.0f);
}

}  // namespace
}  // namespace ba::tensor
