#pragma once

#include <cmath>
#include <unordered_map>
#include <vector>

#include "tensor/autograd.h"

/// \file optimizer.h
/// \brief First-order optimizers (SGD with momentum, Adam) used to
/// train every neural model in the reproduction.

namespace ba::tensor {

/// \brief Base class: holds the parameter list and the zero-grad step.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the currently accumulated gradients.
  /// Parameters with no accumulated gradient are skipped.
  virtual void Step() = 0;

  /// Clears accumulated gradients; call between minibatches.
  void ZeroGrad() { tensor::ZeroGrad(params_); }

  const std::vector<Var>& params() const { return params_; }

 protected:
  std::vector<Var> params_;
};

/// \brief Stochastic gradient descent with classical momentum and
/// optional decoupled weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Var> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f)
      : Optimizer(std::move(params)),
        lr_(lr),
        momentum_(momentum),
        weight_decay_(weight_decay) {}

  void Step() override {
    for (size_t pi = 0; pi < params_.size(); ++pi) {
      Var& p = params_[pi];
      if (!p->grad_ready) continue;
      Tensor& w = p->value;
      const Tensor& g = p->grad;
      if (momentum_ > 0.0f) {
        auto [it, inserted] = velocity_.try_emplace(pi, Tensor(w.shape()));
        Tensor& v = it->second;
        for (int64_t i = 0; i < w.numel(); ++i) {
          float grad = g.data()[i] + weight_decay_ * w.data()[i];
          v.data()[i] = momentum_ * v.data()[i] + grad;
          w.data()[i] -= lr_ * v.data()[i];
        }
      } else {
        for (int64_t i = 0; i < w.numel(); ++i) {
          float grad = g.data()[i] + weight_decay_ * w.data()[i];
          w.data()[i] -= lr_ * grad;
        }
      }
    }
  }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::unordered_map<size_t, Tensor> velocity_;
};

/// \brief Adam (Kingma & Ba) with bias correction and optional L2.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f)
      : Optimizer(std::move(params)),
        lr_(lr),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps),
        weight_decay_(weight_decay) {}

  void Step() override {
    BeginStep();
    for (size_t pi = 0; pi < params_.size(); ++pi) {
      if (!params_[pi]->grad_ready) continue;
      UpdateRange(pi, 0, params_[pi]->value.numel());
    }
  }

  /// Starts an update: advances the step counter and creates the
  /// moments of every parameter with a gradient.
  void BeginStep() {
    ++t_;
    bc1_ = 1.0 - std::pow(beta1_, t_);
    bc2_ = 1.0 - std::pow(beta2_, t_);
    for (size_t pi = 0; pi < params_.size(); ++pi) {
      if (!params_[pi]->grad_ready) continue;
      m_.try_emplace(pi, Tensor(params_[pi]->value.shape()));
      v_.try_emplace(pi, Tensor(params_[pi]->value.shape()));
    }
  }

  /// Applies the started update to elements [begin, end) of parameter
  /// `pi`, which has a gradient. Disjoint ranges may run concurrently.
  void UpdateRange(size_t pi, int64_t begin, int64_t end) {
    float* w = params_[pi]->value.data();
    const float* g = params_[pi]->grad.data();
    float* m = m_.find(pi)->second.data();
    float* v = v_.find(pi)->second.data();
    for (int64_t i = begin; i < end; ++i) {
      const float grad = g[i] + weight_decay_ * w[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad * grad;
      const double m_hat = m[i] / bc1_;
      const double v_hat = v[i] / bc2_;
      w[i] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + eps_));
    }
  }

  /// \name Checkpointing access
  /// The bias-correction step counter and first/second moment tensors
  /// (keyed by parameter index; absent = parameter never updated).
  /// Restoring them plus the parameter values reproduces the update
  /// stream bit-exactly across a kill/resume boundary.
  ///@{
  int step() const { return t_; }
  void set_step(int t) { t_ = t; }
  const std::unordered_map<size_t, Tensor>& moments_m() const { return m_; }
  const std::unordered_map<size_t, Tensor>& moments_v() const { return v_; }
  void SetMoments(std::unordered_map<size_t, Tensor> m,
                  std::unordered_map<size_t, Tensor> v) {
    m_ = std::move(m);
    v_ = std::move(v);
  }
  ///@}

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  ///< bias corrections of step t_
  std::unordered_map<size_t, Tensor> m_;
  std::unordered_map<size_t, Tensor> v_;
};

}  // namespace ba::tensor
