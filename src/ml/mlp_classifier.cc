#include "ml/mlp_classifier.h"

#include <algorithm>

namespace ba::ml {

void MlpClassifier::Fit(const MlDataset& train) {
  train.Check();
  num_classes_ = train.num_classes;
  dim_ = train.num_features();
  rng_ = std::make_unique<Rng>(options_.seed);

  std::vector<int64_t> dims;
  dims.push_back(dim_);
  for (int64_t h : options_.hidden) dims.push_back(h);
  dims.push_back(num_classes_);
  mlp_ = std::make_unique<nn::Mlp>(dims, rng_.get());

  tensor::Adam optimizer(mlp_->Parameters(), options_.learning_rate);
  const int64_t n = train.size();
  std::vector<size_t> order(static_cast<size_t>(n));
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_->Shuffle(&order);
    size_t i = 0;
    while (i < order.size()) {
      const size_t batch_end = std::min(
          order.size(), i + static_cast<size_t>(options_.batch_size));
      const int64_t batch = static_cast<int64_t>(batch_end - i);
      tensor::Tensor x({batch, dim_});
      std::vector<int> labels(static_cast<size_t>(batch));
      for (int64_t b = 0; b < batch; ++b) {
        const auto& row = train.x[order[i + static_cast<size_t>(b)]];
        for (int64_t j = 0; j < dim_; ++j) {
          x.at(b, j) = row[static_cast<size_t>(j)];
        }
        labels[static_cast<size_t>(b)] =
            train.y[order[i + static_cast<size_t>(b)]];
      }
      optimizer.ZeroGrad();
      const tensor::Var logits = mlp_->Forward(tensor::Constant(x));
      const tensor::Var loss = tensor::SoftmaxCrossEntropy(logits, labels);
      tensor::Backward(loss);
      optimizer.Step();
      i = batch_end;
    }
  }
}

int MlpClassifier::Predict(const std::vector<float>& row) const {
  BA_CHECK(mlp_ != nullptr);
  tensor::Tensor x({1, dim_});
  for (int64_t j = 0; j < dim_; ++j) x.at(0, j) = row[static_cast<size_t>(j)];
  tensor::NoGradScope no_grad;
  const tensor::Var logits = mlp_->Forward(tensor::Constant(x));
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (logits->value.at(0, c) > logits->value.at(0, best)) best = c;
  }
  return best;
}

}  // namespace ba::ml
