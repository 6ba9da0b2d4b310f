// Unit tests for the dense tensor value type and raw matrix kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace ba::tensor {
namespace {

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.numel(), 1);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(TensorTest, ShapeAndElementAccess) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
}

TEST(TensorTest, FactoryHelpers) {
  EXPECT_FLOAT_EQ(Tensor::Ones({2, 2}).Sum(), 4.0);
  EXPECT_FLOAT_EQ(Tensor::Full({3}, 2.5f).Sum(), 7.5);
  EXPECT_FLOAT_EQ(Tensor::Scalar(1.5f).item(), 1.5f);
}

TEST(TensorTest, ExplicitDataCtorChecksSize) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.at(1, 0), 3.0f);
}

TEST(TensorTest, AddAndScaleInPlace) {
  Tensor a = Tensor::Ones({2, 2});
  Tensor b = Tensor::Full({2, 2}, 3.0f);
  a.AddInPlace(b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 4.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 2.0f);
}

TEST(TensorTest, ReshapedPreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, AbsMax) {
  Tensor t({3}, {1.0f, -7.0f, 3.0f});
  EXPECT_FLOAT_EQ(t.AbsMax(), 7.0f);
}

TEST(TensorTest, RandomGeneratorsRespectShapeAndRange) {
  Rng rng(1);
  Tensor u = Tensor::RandomUniform({50, 4}, &rng, -2.0f, 2.0f);
  EXPECT_EQ(u.numel(), 200);
  for (int64_t i = 0; i < u.numel(); ++i) {
    EXPECT_GE(u.data()[i], -2.0f);
    EXPECT_LT(u.data()[i], 2.0f);
  }
  Tensor x = Tensor::XavierUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(x.AbsMax(), bound);
}

TEST(MatMulTest, MatchesManualComputation) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMulValue(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Rng rng(4);
  Tensor a = Tensor::RandomNormal({5, 7}, &rng);
  Tensor b = Tensor::RandomNormal({5, 3}, &rng);
  // AᵀB via explicit transpose equals MatMulTransposeAValue.
  Tensor at({7, 5});
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 7; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor expected = MatMulValue(at, b);
  Tensor got = MatMulTransposeAValue(a, b);
  ASSERT_TRUE(expected.SameShape(got));
  for (int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_NEAR(expected.data()[i], got.data()[i], 1e-4f);
  }

  Tensor c = Tensor::RandomNormal({4, 7}, &rng);
  // A·Cᵀ via explicit transpose equals MatMulTransposeBValue.
  Tensor ct({7, 4});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 7; ++j) ct.at(j, i) = c.at(i, j);
  }
  Tensor expected2 = MatMulValue(a, ct);
  Tensor got2 = MatMulTransposeBValue(a, c);
  for (int64_t i = 0; i < expected2.numel(); ++i) {
    EXPECT_NEAR(expected2.data()[i], got2.data()[i], 1e-4f);
  }
}

// ---------------------------------------------------------------------------
// Blocked-kernel parity: the optimized GEMM entry points must agree
// with the scalar reference loops (tensor/gemm.h) within a tolerance
// that absorbs FMA contraction, across tile-aligned, ragged,
// degenerate (1×k, k×1) and empty shapes.
// ---------------------------------------------------------------------------

void ExpectGemmClose(const Tensor& got, const Tensor& want, int64_t k) {
  ASSERT_TRUE(got.SameShape(want));
  // Denominator floors at sqrt(k), the natural magnitude of a k-term
  // dot product of O(1) inputs, so cancellation near zero doesn't turn
  // FMA rounding differences into false failures.
  const double floor_mag =
      std::sqrt(static_cast<double>(std::max<int64_t>(k, 1)));
  for (int64_t i = 0; i < got.numel(); ++i) {
    const double g = got.data()[i], w = want.data()[i];
    const double denom = std::max({std::abs(g), std::abs(w), floor_mag});
    ASSERT_LT(std::abs(g - w) / denom, 1e-4)
        << "element " << i << ": optimized " << g << " reference " << w;
  }
}

struct GemmShape {
  int64_t m, k, n;
};

const GemmShape kParityShapes[] = {
    {1, 1, 1},  {1, 9, 1},    {9, 1, 5},   {1, 16, 16}, {4, 16, 16},
    {5, 7, 9},  {17, 33, 65}, {12, 8, 16}, {64, 64, 64}, {3, 128, 2},
    {2, 300, 3}, {0, 4, 4},   {4, 0, 4},   {4, 4, 0},
    // k beyond kKc: the chunked k-loop must fold partial products into
    // C across one and two chunk boundaries (all three layouts run
    // these via the parity tests above/below).
    {5, 257, 9}, {8, 600, 33},
};

TEST(GemmParityTest, MatMulMatchesReference) {
  Rng rng(21);
  for (const auto& s : kParityShapes) {
    Tensor a = Tensor::RandomUniform({s.m, s.k}, &rng, -1.0f, 1.0f);
    Tensor b = Tensor::RandomUniform({s.k, s.n}, &rng, -1.0f, 1.0f);
    ExpectGemmClose(MatMulValue(a, b), MatMulReferenceValue(a, b), s.k);
  }
}

TEST(GemmParityTest, MatMulTransposeAMatchesReference) {
  Rng rng(22);
  for (const auto& s : kParityShapes) {
    Tensor a = Tensor::RandomUniform({s.k, s.m}, &rng, -1.0f, 1.0f);
    Tensor b = Tensor::RandomUniform({s.k, s.n}, &rng, -1.0f, 1.0f);
    ExpectGemmClose(MatMulTransposeAValue(a, b),
                    MatMulReferenceTransposeAValue(a, b), s.k);
  }
}

TEST(GemmParityTest, MatMulTransposeBMatchesReference) {
  Rng rng(23);
  for (const auto& s : kParityShapes) {
    Tensor a = Tensor::RandomUniform({s.m, s.k}, &rng, -1.0f, 1.0f);
    Tensor b = Tensor::RandomUniform({s.n, s.k}, &rng, -1.0f, 1.0f);
    ExpectGemmClose(MatMulTransposeBValue(a, b),
                    MatMulReferenceTransposeBValue(a, b), s.k);
  }
}

TEST(GemmParityTest, RowPanelSplitIsBitExact) {
  // The parallel path splits C into row panels at tile multiples
  // (GemmDispatch rounds panel_rows up to kMr); any such split must be
  // bit-identical to the full serial sweep because the tile boundaries
  // — and with them every element's accumulation chain — are unchanged.
  Rng rng(24);
  const int64_t m = 23, k = 31, n = 37;
  Tensor a = Tensor::RandomUniform({m, k}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform({k, n}, &rng, -1.0f, 1.0f);
  Tensor whole({m, n});
  internal::GemmRowRange(a.data(), k, 1, b.data(), whole.data(), 0, m, k, n);
  for (int64_t split : {4, 8, 12, 20}) {
    Tensor parts({m, n});
    for (int64_t i = 0; i < m; i += split) {
      internal::GemmRowRange(a.data(), k, 1, b.data(), parts.data(), i,
                             std::min(m, i + split), k, n);
    }
    for (int64_t i = 0; i < whole.numel(); ++i) {
      ASSERT_EQ(whole.data()[i], parts.data()[i]) << "split " << split;
    }
  }
}

TEST(GemmParityTest, KBlockingAndAPackingAreBitExactAcrossRowSplits) {
  // k > kKc exercises the chunk loop (first chunk stores, later chunks
  // accumulate); the strided-A layout (as_p != 1, the transpose-A
  // feed) additionally routes through the packed A panel. Neither may
  // perturb any element's accumulation chain, so every row split is
  // bit-identical to the full sweep in both layouts.
  Rng rng(25);
  const int64_t m = 19, k = internal::kKc * 2 + 33, n = 21;
  Tensor a = Tensor::RandomUniform({m, k}, &rng, -1.0f, 1.0f);
  Tensor at = Tensor::RandomUniform({k, m}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform({k, n}, &rng, -1.0f, 1.0f);
  struct Layout {
    const float* a;
    int64_t as_i, as_p;
  };
  const Layout layouts[] = {{a.data(), k, 1}, {at.data(), 1, m}};
  for (const Layout& l : layouts) {
    Tensor whole({m, n});
    internal::GemmRowRange(l.a, l.as_i, l.as_p, b.data(), whole.data(), 0,
                           m, k, n);
    for (int64_t split : {3, 8, 16}) {
      Tensor parts({m, n});
      for (int64_t i = 0; i < m; i += split) {
        internal::GemmRowRange(l.a, l.as_i, l.as_p, b.data(), parts.data(),
                               i, std::min(m, i + split), k, n);
      }
      for (int64_t i = 0; i < whole.numel(); ++i) {
        ASSERT_EQ(whole.data()[i], parts.data()[i])
            << "as_p=" << l.as_p << " split=" << split << " elem " << i;
      }
    }
  }
}

TEST(GemmTest, RowsAreBitIdenticalAloneAndInATile) {
  // A one-row product runs the one-row micro-kernel; the same row inside
  // an m-row product runs in a 4-row tile (full or edge). Both must keep
  // one ascending-p chain per element and the same chunk fold, so row i
  // of the m-row result equals the one-row call on row i bit for bit,
  // on full and ragged column panels, across k-chunk boundaries and in
  // both A layouts.
  Rng rng(26);
  const int64_t k = internal::kKc + 45;
  for (const int64_t n : {int64_t{5}, int64_t{16}, int64_t{37}}) {
    const Tensor b = Tensor::RandomUniform({k, n}, &rng, -1.0f, 1.0f);
    for (int64_t m = 1; m <= 9; ++m) {
      const Tensor a = Tensor::RandomUniform({m, k}, &rng, -1.0f, 1.0f);
      const Tensor at = Tensor::RandomUniform({k, m}, &rng, -1.0f, 1.0f);
      struct Layout {
        const float* a;
        int64_t as_i, as_p;
      };
      for (const Layout& l : {Layout{a.data(), k, 1}, Layout{at.data(), 1, m}}) {
        Tensor whole({m, n});
        internal::GemmDispatch(l.a, l.as_i, l.as_p, b.data(), whole.data(), m,
                               k, n);
        for (int64_t i = 0; i < m; ++i) {
          Tensor row({1, n});
          internal::GemmDispatch(l.a + i * l.as_i, l.as_i, l.as_p, b.data(),
                                 row.data(), 1, k, n);
          EXPECT_EQ(std::memcmp(row.data(), whole.data() + i * n,
                                sizeof(float) * static_cast<size_t>(n)),
                    0)
              << "m=" << m << " n=" << n << " row " << i
              << " as_p=" << l.as_p;
        }
      }
    }
  }
}

TEST(GemmTest, RaggedRowWindowsAreBitIdenticalAtEveryWidth) {
  // The ragged one-row panel loads overlapping four-float windows, and
  // rows under four floats run a scalar chain. At every width up to
  // three full panels, with and without a full panel before the ragged
  // one and across a k-chunk boundary, a one-row call must equal that
  // row inside a 4-row tile bit for bit.
  Rng rng(29);
  for (const int64_t k : {int64_t{7}, internal::kKc + 3}) {
    for (int64_t n = 1; n <= 48; ++n) {  // three 16-float panels
      const Tensor a = Tensor::RandomUniform({4, k}, &rng, -1.0f, 1.0f);
      const Tensor b = Tensor::RandomUniform({k, n}, &rng, -1.0f, 1.0f);
      Tensor tile({4, n});
      internal::GemmDispatch(a.data(), k, 1, b.data(), tile.data(), 4, k, n);
      for (int64_t i = 0; i < 4; ++i) {
        Tensor row({1, n});
        internal::GemmDispatch(a.data() + i * k, k, 1, b.data(), row.data(), 1,
                               k, n);
        EXPECT_EQ(std::memcmp(row.data(), tile.data() + i * n,
                              sizeof(float) * static_cast<size_t>(n)),
                  0)
            << "k=" << k << " n=" << n << " row " << i;
      }
    }
  }
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t({1, 20});
  const std::string s = t.ToString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("[1, 20]"), std::string::npos);
}

}  // namespace
}  // namespace ba::tensor
