#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

/// \file tensor.h
/// \brief Dense float32 tensor: the numeric value type beneath the
/// autograd engine and every neural model in this reproduction (GFN,
/// GCN, DiffPool, LSTM, MLP).
///
/// Tensors are row-major with value semantics; rank 0 (scalar), 1
/// (vector) and 2 (matrix) cover everything the paper's models need.

namespace ba::tensor {

/// \brief Dense row-major float32 tensor with value semantics.
class Tensor {
 public:
  /// Empty scalar (rank 0, one element, value 0).
  Tensor() : shape_{}, data_(1, 0.0f) {}

  /// Zero-filled tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
    data_.assign(static_cast<size_t>(ComputeNumel(shape_)), 0.0f);
  }

  /// Tensor with explicit contents; `data.size()` must match the shape.
  Tensor(std::vector<int64_t> shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    BA_CHECK_EQ(static_cast<int64_t>(data_.size()), ComputeNumel(shape_));
  }

  static Tensor Zeros(std::vector<int64_t> shape) {
    return Tensor(std::move(shape));
  }

  static Tensor Full(std::vector<int64_t> shape, float value) {
    Tensor t(std::move(shape));
    for (auto& v : t.data_) v = value;
    return t;
  }

  static Tensor Ones(std::vector<int64_t> shape) {
    return Full(std::move(shape), 1.0f);
  }

  /// Rank-0 scalar.
  static Tensor Scalar(float value) {
    Tensor t;
    t.data_[0] = value;
    return t;
  }

  /// Uniform random entries in [lo, hi).
  static Tensor RandomUniform(std::vector<int64_t> shape, Rng* rng,
                              float lo = -1.0f, float hi = 1.0f);

  /// Gaussian random entries.
  static Tensor RandomNormal(std::vector<int64_t> shape, Rng* rng,
                             float mean = 0.0f, float stddev = 1.0f);

  /// Xavier/Glorot uniform init for a (fan_in x fan_out) weight matrix.
  static Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }

  int64_t dim(int64_t i) const {
    BA_CHECK_GE(i, 0);
    BA_CHECK_LT(i, rank());
    return shape_[static_cast<size_t>(i)];
  }

  const std::vector<int64_t>& shape() const { return shape_; }

  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Scalar access; requires numel() == 1.
  float item() const {
    BA_CHECK_EQ(numel(), 1);
    return data_[0];
  }

  /// Element access for rank-2 tensors.
  float& at(int64_t r, int64_t c) {
    BA_CHECK_EQ(rank(), 2);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    BA_CHECK_EQ(rank(), 2);
    return data_[static_cast<size_t>(r * shape_[1] + c)];
  }

  /// Element access for rank-1 tensors.
  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Returns a copy with the same data viewed under a new shape of
  /// equal element count.
  Tensor Reshaped(std::vector<int64_t> shape) const {
    Tensor out(std::move(shape), data_);
    return out;
  }

  /// Reshapes to a zero-filled (rows, cols) matrix, reusing the
  /// storage: a caller-owned scratch tensor allocates only when it
  /// grows.
  void Resize(int64_t rows, int64_t cols) {
    BA_CHECK_GE(rows, 0);
    BA_CHECK_GE(cols, 0);
    shape_.assign({rows, cols});
    data_.assign(static_cast<size_t>(rows * cols), 0.0f);
  }

  /// In-place element-wise addition of a same-shaped tensor.
  void AddInPlace(const Tensor& other) {
    BA_CHECK(SameShape(other));
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  }

  /// In-place element-wise (Hadamard) product with a same-shaped tensor.
  void MulInPlace(const Tensor& other) {
    BA_CHECK(SameShape(other));
    for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  }

  /// In-place multiplication by a scalar.
  void ScaleInPlace(float s) {
    for (auto& v : data_) v *= s;
  }

  void Fill(float v) {
    for (auto& x : data_) x = v;
  }

  /// Sum of all elements.
  double Sum() const {
    double s = 0.0;
    for (float v : data_) s += v;
    return s;
  }

  /// Largest absolute element.
  float AbsMax() const {
    float m = 0.0f;
    for (float v : data_) m = std::max(m, std::abs(v));
    return m;
  }

  /// "Tensor([r, c]) [v0, v1, ...]" debug rendering (truncated).
  std::string ToString(int64_t max_elems = 16) const;

 private:
  static int64_t ComputeNumel(const std::vector<int64_t>& shape) {
    int64_t n = 1;
    for (int64_t d : shape) {
      BA_CHECK_GE(d, 0);
      n *= d;
    }
    return n;
  }

  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

/// Column sums of a rank-2 tensor: (m,n) -> (1,n). Rows accumulate in
/// ascending order, so every caller (the autograd SumRows op and the
/// value-level SUM readouts, Eq. 15) gets the same bits.
Tensor SumRowsValue(const Tensor& a);

/// Column maxima of a rank-2 tensor with at least one row: (m,n) ->
/// (1,n). The first row holding a column's maximum wins; its index is
/// written to `argmax` (resized to n) when that is non-null.
Tensor MaxRowsValue(const Tensor& a, std::vector<int64_t>* argmax = nullptr);

// Element-wise nonlinearities on values. The autograd ops (Relu,
// Sigmoid, Tanh) and every value-level forward call these, so the
// taped and tape-free paths share one expression per function.
void ReluInPlace(Tensor* t);
void SigmoidInPlace(Tensor* t);  ///< 1 / (1 + exp(-x))
void TanhInPlace(Tensor* t);

/// Dense matrix product C = A·B for rank-2 tensors (m,k)x(k,n).
Tensor MatMulValue(const Tensor& a, const Tensor& b);

/// MatMulValue into a caller-owned `c`, resized to (m,n) in place.
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c);

/// Dense product with A transposed: C = Aᵀ·B for (k,m)ᵀ x (k,n).
Tensor MatMulTransposeAValue(const Tensor& a, const Tensor& b);

/// Dense product with B transposed: C = A·Bᵀ for (m,k) x (n,k)ᵀ.
Tensor MatMulTransposeBValue(const Tensor& a, const Tensor& b);

}  // namespace ba::tensor
