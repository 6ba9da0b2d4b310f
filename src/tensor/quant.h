#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

/// \file quant.h
/// \brief Int8 post-training quantization for inference-time linear
/// layers (DESIGN.md §7 "Quantized inference").
///
/// Scheme:
///  - weights: symmetric per-output-channel. Column j of a (in, out)
///    weight matrix gets scale_j = absmax(W[:,j]) / 127 and codes
///    q[p][j] = clamp(round(W[p][j] / scale_j), -127, 127) ∈ s8. The
///    codes are packed one output channel per row, k padded to
///    kInt8KAlign with zeros so the padded lanes cancel exactly.
///  - activations: per-tensor symmetric scale from a calibration pass
///    (ActivationObserver tracks the running absmax over representative
///    inputs). At inference x maps to u8 with zero-point 128:
///    u = clamp(round(x / s_a), -127, 127) + 128. The saturating clamp
///    is the only lossy step past calibration — out-of-calibration
///    activations pin to the grid edge instead of wrapping.
///  - accumulation: exact int32 (no wrap possible for the padded-k
///    bound Int8GemmDispatch enforces); the epilogue fuses the
///    zero-point compensation −128·colsum_j, the per-channel dequant
///    s_a·scale_j, and the fp32 bias in one pass.
///
/// Training stays fp32: quantization is a deploy-time transform of a
/// trained model (QuantizeWeights copies, never mutates), so gradients
/// and the optimizer never see the int8 grid.

namespace ba::tensor {

/// A trained linear layer's weights in packed int8 form, plus the
/// per-channel dequant metadata the kernel epilogue consumes.
struct QuantizedWeights {
  int64_t in_features = 0;
  int64_t out_features = 0;
  int64_t packed_k = 0;           ///< in_features rounded to kInt8KAlign
  std::vector<int8_t> packed;     ///< out_features × packed_k, channel-major
                                  ///< (the canonical/reference layout)
  std::vector<int8_t> kernel_packed;  ///< dispatched kernel's preferred
                                      ///< layout; empty when the kernel
                                      ///< reads `packed` directly
  std::vector<float> scales;      ///< per-channel weight scale
  std::vector<int32_t> colsums;   ///< per-channel Σ_p q[p][j] (zero-point
                                  ///< compensation term)
  std::vector<float> bias;        ///< fp32 bias, empty when the layer has none
};

/// Quantizes a trained (in, out) weight matrix (the nn::Linear layout)
/// per output channel. `bias` may be nullptr for a bias-free layer.
QuantizedWeights QuantizeWeights(const Tensor& weight, const Tensor* bias);

/// Running absmax over calibration activations; one observer per
/// quantized layer input.
class ActivationObserver {
 public:
  void Observe(const Tensor& x) { absmax_ = std::max(absmax_, x.AbsMax()); }
  float absmax() const { return absmax_; }
  /// Per-tensor activation scale; floored so an all-zero calibration
  /// set still yields a usable (if meaningless) grid.
  float scale() const { return std::max(absmax_, 1e-8f) / 127.0f; }

 private:
  float absmax_ = 0.0f;
};

/// Quantizes fp32 activations x (m, k) to u8 zero-point-128 codes in a
/// row-major m × Int8PackedK(k) buffer; padding lanes encode 0.0
/// (code 128). `out` is resized as needed.
void QuantizeActivations(const Tensor& x, float a_scale,
                         std::vector<uint8_t>* out);

/// y = x·W + bias through the int8 kernel family: quantizes x with the
/// calibrated `a_scale`, runs the packed int8 GEMM, returns fp32
/// (m, out). The weight-side packing happened once in QuantizeWeights.
Tensor Int8LinearValue(const Tensor& x, const QuantizedWeights& qw,
                       float a_scale);

/// Int8LinearValue into a caller-owned `y`, resized in place.
void Int8LinearInto(const Tensor& x, const QuantizedWeights& qw,
                    float a_scale, Tensor* y);

}  // namespace ba::tensor
