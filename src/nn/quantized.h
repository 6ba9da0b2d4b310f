#pragma once

#include <vector>

#include "nn/linear.h"
#include "tensor/quant.h"

/// \file quantized.h
/// \brief Int8 inference twins of Linear / Mlp (DESIGN.md §7
/// "Quantized inference").
///
/// A QuantizedMlp is a deploy-time snapshot of a *trained* Mlp: weights
/// are re-encoded per output channel on the symmetric int8 grid, and
/// each layer's input gets a per-tensor activation scale observed on a
/// calibration set during construction. The source Mlp is only read —
/// training, checkpointing and every fp32 inference path keep working
/// on the original module, so quantization is an opt-in serving
/// optimization, never a model mutation.
///
/// Forward passes are value-only (Tensor in, Tensor out): the int8 path
/// exists for inference, where no gradient tape is needed. Hidden
/// activations come back to fp32 after every layer (the GEMM epilogue
/// dequantizes), so the nonlinearity runs in fp32 exactly like the
/// source model's.

namespace ba::nn {

/// \brief Int8 snapshot of one trained Linear layer plus the
/// calibrated scale of its input activations.
class QuantizedLinear {
 public:
  /// Quantizes `layer`'s weights per output channel; `a_scale` is the
  /// calibrated per-tensor scale of this layer's input (see
  /// tensor::ActivationObserver::scale()).
  QuantizedLinear(const Linear& layer, float a_scale)
      : weights_(tensor::QuantizeWeights(layer.weight_value(),
                                         &layer.bias_value())),
        a_scale_(a_scale) {}

  /// y = x·W + b through the int8 kernel family; x is fp32 (m, in),
  /// the result fp32 (m, out) in a caller-owned `y`, resized in place.
  void ForwardValue(const tensor::Tensor& x, tensor::Tensor* y) const {
    tensor::Int8LinearInto(x, weights_, a_scale_, y);
  }

  int64_t in_features() const { return weights_.in_features; }
  int64_t out_features() const { return weights_.out_features; }
  float a_scale() const { return a_scale_; }
  const tensor::QuantizedWeights& weights() const { return weights_; }

 private:
  tensor::QuantizedWeights weights_;
  float a_scale_;
};

/// \brief Int8 snapshot of a trained Mlp, calibrated on representative
/// inputs at construction.
class QuantizedMlp {
 public:
  /// Builds the int8 twin of `mlp`. `calibration` must be non-empty:
  /// each tensor is run through the *fp32* layers once, recording the
  /// absmax of every layer's input, before weights are quantized.
  /// (Calibrating on the fp32 trajectory keeps the observed ranges
  /// independent of quantization order; out-of-range activations at
  /// inference saturate to the grid edge instead of wrapping.)
  QuantizedMlp(const Mlp& mlp,
               const std::vector<const tensor::Tensor*>& calibration);

  /// Inference forward through every layer on the int8 path (dropout,
  /// a training-only regularizer, does not apply).
  tensor::Tensor Forward(const tensor::Tensor& x) const {
    MlpScratch scratch;
    return Forward(x, &scratch);
  }

  /// Forward on caller-owned scratch: Mlp::ForwardValue with the int8
  /// kernel as each layer's linear map. Returns the `scratch` buffer
  /// holding the output.
  const tensor::Tensor& Forward(const tensor::Tensor& x,
                                MlpScratch* scratch) const;

  size_t num_layers() const { return layers_.size(); }
  const QuantizedLinear& layer(size_t i) const { return layers_[i]; }

 private:
  std::vector<QuantizedLinear> layers_;
  Activation activation_;
};

}  // namespace ba::nn
