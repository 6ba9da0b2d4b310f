#pragma once

#include <vector>

#include "nn/module.h"
#include "util/rng.h"

/// \file linear.h
/// \brief Affine layer and multi-layer perceptron — the building blocks
/// of the GFN classifier head (Eq. 14) and the final MLP of Eq. 22.

namespace ba::nn {

/// \brief y = x·W + b with Xavier-initialized W.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng)
      : weight_(tensor::Param(
            tensor::Tensor::XavierUniform(in_features, out_features, rng))),
        bias_(tensor::Param(tensor::Tensor({1, out_features}))) {}

  Var Forward(const Var& x) const {
    return tensor::Add(tensor::MatMul(x, weight_), bias_);
  }

  /// Value-level inference forward into a caller-owned `y` (resized to
  /// (m, out)): no tape, and bit-identical to Forward. The bias is
  /// added after the product, in its own pass, as the taped Add does.
  void ForwardValue(const tensor::Tensor& x, tensor::Tensor* y) const {
    tensor::MatMulInto(x, weight_->value, y);
    const int64_t m = y->dim(0), n = y->dim(1);
    const float* b = bias_->value.data();
    float* out = y->data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) out[i * n + j] += b[j];
    }
  }

  std::vector<Var> Parameters() const override { return {weight_, bias_}; }

  int64_t in_features() const { return weight_->value.dim(0); }
  int64_t out_features() const { return weight_->value.dim(1); }

  /// Trained parameter values — read-only views for deploy-time
  /// transforms (int8 quantization snapshots these, never mutates).
  const tensor::Tensor& weight_value() const { return weight_->value; }
  const tensor::Tensor& bias_value() const { return bias_->value; }

 private:
  Var weight_;
  Var bias_;
};

/// \brief Nonlinearity selector for Mlp hidden layers.
enum class Activation { kRelu, kTanh, kSigmoid };

inline Var Activate(const Var& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return tensor::Relu(x);
    case Activation::kTanh:
      return tensor::Tanh(x);
    case Activation::kSigmoid:
      return tensor::Sigmoid(x);
  }
  return x;
}

/// Value-level twin of Activate, in place.
inline void ActivateValue(tensor::Tensor* t, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return tensor::ReluInPlace(t);
    case Activation::kTanh:
      return tensor::TanhInPlace(t);
    case Activation::kSigmoid:
      return tensor::SigmoidInPlace(t);
  }
}

/// Caller-owned buffers of a value-level MLP forward: layer outputs
/// alternate between the two, so a reused scratch allocates only when
/// a layer's output outgrows it.
struct MlpScratch {
  tensor::Tensor a, b;
};

/// \brief The one value-level MLP forward. Layer i maps its input into
/// a scratch buffer through `linear(i, in, &out)`; every layer but the
/// last is followed by `activation`. Returns the scratch buffer holding
/// the output. The fp32 Mlp, its int8 twin and calibration differ only
/// in `linear`. `x` must not be one of `scratch`'s buffers.
template <typename LinearFn>
const tensor::Tensor& MlpForwardValue(size_t depth, Activation activation,
                                      const tensor::Tensor& x,
                                      MlpScratch* scratch, LinearFn&& linear) {
  const tensor::Tensor* in = &x;
  for (size_t i = 0; i < depth; ++i) {
    tensor::Tensor* out = i % 2 == 0 ? &scratch->a : &scratch->b;
    linear(i, *in, out);
    if (i + 1 < depth) ActivateValue(out, activation);
    in = out;
  }
  return *in;
}

/// \brief Feed-forward stack: Linear(+activation) per hidden layer,
/// plain Linear output layer, optional inverted dropout between layers.
class Mlp : public Module {
 public:
  /// `dims` = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<int64_t>& dims, Rng* rng,
      Activation activation = Activation::kRelu, float dropout = 0.0f)
      : activation_(activation), dropout_(dropout) {
    BA_CHECK_GE(dims.size(), 2u);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
      layers_.emplace_back(dims[i], dims[i + 1], rng);
    }
  }

  /// Forward pass; `rng` and `training` control dropout.
  Var Forward(const Var& x, Rng* rng = nullptr, bool training = false) const {
    Var h = x;
    for (size_t i = 0; i < layers_.size(); ++i) {
      h = layers_[i].Forward(h);
      if (i + 1 < layers_.size()) {
        h = Activate(h, activation_);
        if (dropout_ > 0.0f && training && rng != nullptr) {
          h = tensor::Dropout(h, dropout_, rng, training);
        }
      }
    }
    return h;
  }

  /// Value-level inference forward (no tape, no dropout), bit-identical
  /// to Forward with training off. Returns the `scratch` buffer holding
  /// the output.
  const tensor::Tensor& ForwardValue(const tensor::Tensor& x,
                                     MlpScratch* scratch) const {
    return MlpForwardValue(
        layers_.size(), activation_, x, scratch,
        [this](size_t i, const tensor::Tensor& in, tensor::Tensor* out) {
          layers_[i].ForwardValue(in, out);
        });
  }

  std::vector<Var> Parameters() const override {
    std::vector<Var> out;
    for (const auto& l : layers_) {
      auto p = l.Parameters();
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  size_t num_layers() const { return layers_.size(); }

  /// Per-layer read access (quantization walks the stack layer by
  /// layer to calibrate each layer's input range).
  const Linear& layer(size_t i) const { return layers_[i]; }
  Activation activation() const { return activation_; }

 private:
  std::vector<Linear> layers_;
  Activation activation_;
  float dropout_;
};

}  // namespace ba::nn
