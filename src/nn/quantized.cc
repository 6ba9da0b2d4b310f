#include "nn/quantized.h"

#include "util/logging.h"

namespace ba::nn {

QuantizedMlp::QuantizedMlp(
    const Mlp& mlp, const std::vector<const tensor::Tensor*>& calibration)
    : activation_(mlp.activation()) {
  const size_t depth = mlp.num_layers();
  BA_CHECK_GE(depth, 1u);
  // An uncalibrated activation grid would saturate everything to the
  // edge codes; refuse to build a silently broken model.
  BA_CHECK(!calibration.empty());
  // The observers watch the fp32 trajectory: the source Mlp's own
  // value-level forward, with each layer's input observed on the way.
  std::vector<tensor::ActivationObserver> observers(depth);
  MlpScratch scratch;
  for (const tensor::Tensor* x : calibration) {
    MlpForwardValue(
        depth, activation_, *x, &scratch,
        [&](size_t i, const tensor::Tensor& in, tensor::Tensor* out) {
          observers[i].Observe(in);
          mlp.layer(i).ForwardValue(in, out);
        });
  }
  layers_.reserve(depth);
  for (size_t i = 0; i < depth; ++i) {
    layers_.emplace_back(mlp.layer(i), observers[i].scale());
  }
}

const tensor::Tensor& QuantizedMlp::Forward(const tensor::Tensor& x,
                                            MlpScratch* scratch) const {
  return MlpForwardValue(
      layers_.size(), activation_, x, scratch,
      [this](size_t i, const tensor::Tensor& in, tensor::Tensor* out) {
        layers_[i].ForwardValue(in, out);
      });
}

}  // namespace ba::nn
