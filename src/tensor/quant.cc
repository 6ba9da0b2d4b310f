#include "tensor/quant.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"

namespace ba::tensor {

namespace {

/// Half-away-from-zero rounding to the saturating int8 grid.
/// std::lround is rounding-mode independent, so quantization is
/// deterministic across build flags and call sites.
inline int32_t QuantizeOne(float v, float inv_scale) {
  const long q = std::lround(v * inv_scale);
  return static_cast<int32_t>(std::clamp<long>(q, -127, 127));
}

}  // namespace

QuantizedWeights QuantizeWeights(const Tensor& weight, const Tensor* bias) {
  BA_CHECK_EQ(weight.rank(), 2);
  const int64_t in = weight.dim(0), out = weight.dim(1);
  QuantizedWeights qw;
  qw.in_features = in;
  qw.out_features = out;
  qw.packed_k = internal::Int8PackedK(in);
  qw.packed.assign(static_cast<size_t>(out * qw.packed_k), 0);
  qw.scales.resize(static_cast<size_t>(out));
  qw.colsums.resize(static_cast<size_t>(out));
  for (int64_t j = 0; j < out; ++j) {
    float absmax = 0.0f;
    for (int64_t p = 0; p < in; ++p)
      absmax = std::max(absmax, std::abs(weight.at(p, j)));
    // An all-zero channel keeps scale 1 and codes 0 — exact.
    const float scale = absmax > 0.0f ? absmax / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    int8_t* channel = qw.packed.data() + j * qw.packed_k;
    int32_t colsum = 0;
    for (int64_t p = 0; p < in; ++p) {
      const int32_t q = QuantizeOne(weight.at(p, j), inv);
      channel[p] = static_cast<int8_t>(q);
      colsum += q;
    }
    qw.scales[static_cast<size_t>(j)] = scale;
    qw.colsums[static_cast<size_t>(j)] = colsum;
  }
  if (bias != nullptr) {
    BA_CHECK_EQ(bias->numel(), out);
    qw.bias.assign(bias->data(), bias->data() + out);
  }
  qw.kernel_packed = internal::Int8KernelPackedB(qw.packed.data(), out,
                                                 qw.packed_k);
  return qw;
}

void QuantizeActivations(const Tensor& x, float a_scale,
                         std::vector<uint8_t>* out) {
  BA_CHECK_EQ(x.rank(), 2);
  BA_CHECK_GT(a_scale, 0.0f);
  const int64_t m = x.dim(0), k = x.dim(1);
  const int64_t kp = internal::Int8PackedK(k);
  // Padding lanes encode 0.0 (code 128); they multiply the zero-padded
  // weight lanes, so their value never reaches an output.
  out->assign(static_cast<size_t>(m * kp), 128);
  const float inv = 1.0f / a_scale;
  const float* xd = x.data();
  for (int64_t i = 0; i < m; ++i)
    internal::Int8QuantizeRow(xd + i * k, out->data() + i * kp, k, inv);
}

Tensor Int8LinearValue(const Tensor& x, const QuantizedWeights& qw,
                       float a_scale) {
  Tensor y;
  Int8LinearInto(x, qw, a_scale, &y);
  return y;
}

void Int8LinearInto(const Tensor& x, const QuantizedWeights& qw,
                    float a_scale, Tensor* y) {
  BA_CHECK_EQ(x.rank(), 2);
  BA_CHECK_EQ(x.dim(1), qw.in_features);
  const int64_t m = x.dim(0);
  // Reused per-thread scratch: serving calls this per micro-batch and
  // a fresh large allocation per call would churn mmap.
  thread_local std::vector<uint8_t> qx;
  QuantizeActivations(x, a_scale, &qx);
  y->Resize(m, qw.out_features);
  const int8_t* b = qw.kernel_packed.empty() ? qw.packed.data()
                                             : qw.kernel_packed.data();
  internal::Int8GemmDispatch(qx.data(), b, qw.colsums.data(),
                             qw.scales.data(),
                             qw.bias.empty() ? nullptr : qw.bias.data(),
                             a_scale, y->data(), m, qw.packed_k,
                             qw.out_features);
}

}  // namespace ba::tensor
