#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "tensor/gemm.h"

namespace ba::tensor {

Tensor Tensor::RandomUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                             float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::RandomNormal(std::vector<int64_t> shape, Rng* rng, float mean,
                            float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

Tensor Tensor::XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform({fan_in, fan_out}, rng, -bound, bound);
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor([";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << "]) [";
  const int64_t n = std::min<int64_t>(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (numel() > n) os << ", ...";
  os << "]";
  return os.str();
}

Tensor SumRowsValue(const Tensor& a) {
  BA_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({1, n});
  float* o = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    for (int64_t j = 0; j < n; ++j) o[j] += row[j];
  }
  return out;
}

Tensor MaxRowsValue(const Tensor& a, std::vector<int64_t>* argmax) {
  BA_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  BA_CHECK_GT(m, 0);
  Tensor out({1, n});
  if (argmax != nullptr) argmax->assign(static_cast<size_t>(n), 0);
  for (int64_t j = 0; j < n; ++j) {
    float best = a.at(0, j);
    int64_t best_i = 0;
    for (int64_t i = 1; i < m; ++i) {
      if (a.at(i, j) > best) {
        best = a.at(i, j);
        best_i = i;
      }
    }
    out.at(0, j) = best;
    if (argmax != nullptr) (*argmax)[static_cast<size_t>(j)] = best_i;
  }
  return out;
}

void ReluInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->numel(); ++i) d[i] = std::max(0.0f, d[i]);
}

void SigmoidInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->numel(); ++i) {
    d[i] = 1.0f / (1.0f + std::exp(-d[i]));
  }
}

void TanhInPlace(Tensor* t) {
  float* d = t->data();
  for (int64_t i = 0; i < t->numel(); ++i) d[i] = std::tanh(d[i]);
}

// The three matmul entry points delegate to the blocked kernel layer
// in gemm.cc (register-tiled, ISA-dispatched, row-panel threaded for
// large shapes). Layout differences are absorbed here: strides for the
// transposed-A view, an explicit transpose into scratch for
// transposed-B so the inner loops always stream B rows contiguously.

Tensor MatMulValue(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  MatMulInto(a, b, &c);
  return c;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(1), b.dim(0));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  c->Resize(m, n);
  internal::GemmDispatch(a.data(), /*as_i=*/k, /*as_p=*/1, b.data(), c->data(),
                         m, k, n);
}

Tensor MatMulTransposeAValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(0), b.dim(0));
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  // A is (k,m): element (p, i) sits at p*m + i, i.e. unit stride across
  // the micro-kernel's rows — no transpose copy needed.
  internal::GemmDispatch(a.data(), /*as_i=*/1, /*as_p=*/m, b.data(), c.data(),
                         m, k, n);
  return c;
}

Tensor MatMulTransposeBValue(const Tensor& a, const Tensor& b) {
  BA_CHECK_EQ(a.rank(), 2);
  BA_CHECK_EQ(b.rank(), 2);
  BA_CHECK_EQ(a.dim(1), b.dim(1));
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  if (m == 0 || k == 0 || n == 0) return c;
  // B arrives (n,k); the old kernel walked it as per-output dot
  // products, a serial reduction the vectorizer cannot touch under
  // strict FP. Transposing into (k,n) scratch up front costs O(n·k)
  // against the O(m·n·k) multiply and restores contiguous row access.
  // The scratch is thread_local and reused: at 512² it crosses glibc's
  // mmap threshold, and a fresh mmap + page-fault-zero + munmap per
  // call costs more than the transpose itself.
  thread_local std::vector<float> bt;
  bt.resize(static_cast<size_t>(k) * static_cast<size_t>(n));
  const float* bd = b.data();
  constexpr int64_t kBlk = 32;  // tiles keep both sides cache-resident
  for (int64_t j0 = 0; j0 < n; j0 += kBlk) {
    const int64_t j1 = std::min(n, j0 + kBlk);
    for (int64_t p0 = 0; p0 < k; p0 += kBlk) {
      const int64_t p1 = std::min(k, p0 + kBlk);
      for (int64_t j = j0; j < j1; ++j) {
        for (int64_t p = p0; p < p1; ++p) {
          bt[static_cast<size_t>(p * n + j)] = bd[j * k + p];
        }
      }
    }
  }
  internal::GemmDispatch(a.data(), /*as_i=*/k, /*as_p=*/1, bt.data(), c.data(),
                         m, k, n);
  return c;
}

}  // namespace ba::tensor
