// Tests for Statistical Feature Extraction (§III-A.2): every statistic
// against hand-computed values, plus parameterized property sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/sfe.h"
#include "util/rng.h"

namespace ba::core {
namespace {

TEST(SfeTest, EmptyInputIsZeroVector) {
  const auto sfe = ComputeSfe({});
  for (double v : sfe) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SfeTest, SingleValue) {
  const auto sfe = ComputeSfe(std::vector<double>{5.0});
  EXPECT_DOUBLE_EQ(sfe[kSfeMax], 5.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeMin], 5.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeSum], 5.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeMean], 5.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeCount], 1.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeRange], 0.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeMidRange], 5.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeVariance], 0.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeStdDev], 0.0);
  // Degenerate shape statistics report 0, not NaN.
  EXPECT_DOUBLE_EQ(sfe[kSfeKurtosis], 0.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeSkewness], 0.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeTilt], 0.0);
}

TEST(SfeTest, KnownValues) {
  // values = {1, 2, 3, 4}: mean 2.5, var 1.25, p75 = 3.25.
  const auto sfe = ComputeSfe(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(sfe[kSfeMax], 4.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeMin], 1.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeSum], 10.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeMean], 2.5);
  EXPECT_DOUBLE_EQ(sfe[kSfeCount], 4.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeRange], 3.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeMidRange], 2.5);
  EXPECT_DOUBLE_EQ(sfe[kSfePercentile75], 3.25);
  EXPECT_DOUBLE_EQ(sfe[kSfeVariance], 1.25);
  EXPECT_DOUBLE_EQ(sfe[kSfeStdDev], std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(sfe[kSfeMeanAbsDev], 1.0);
  EXPECT_DOUBLE_EQ(sfe[kSfeCoeffVar], std::sqrt(1.25) / 2.5);
  // Symmetric distribution: zero skew and tilt.
  EXPECT_NEAR(sfe[kSfeSkewness], 0.0, 1e-12);
  EXPECT_NEAR(sfe[kSfeTilt], 0.0, 1e-12);
}

TEST(SfeTest, UniformDistributionKurtosis) {
  // Population kurtosis of {1..N} approaches 1.8 for large N.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const auto sfe = ComputeSfe(v);
  EXPECT_NEAR(sfe[kSfeKurtosis], 1.8, 0.02);
}

TEST(SfeTest, SkewnessSignMatchesAsymmetry) {
  // Right-skewed data: a few large outliers.
  const auto right = ComputeSfe(std::vector<double>{1, 1, 1, 1, 1, 10});
  EXPECT_GT(right[kSfeSkewness], 0.5);
  EXPECT_GT(right[kSfeTilt], 0.0);
  const auto left = ComputeSfe(std::vector<double>{10, 10, 10, 10, 10, 1});
  EXPECT_LT(left[kSfeSkewness], -0.5);
  EXPECT_LT(left[kSfeTilt], 0.0);
}

TEST(SfeTest, CompressionIsMonotoneAndBounded) {
  const auto raw = ComputeSfe(std::vector<double>{1e6, 2e6, 3e6});
  const auto compressed = CompressSfe(raw);
  EXPECT_LT(compressed[kSfeSum], raw[kSfeSum]);
  EXPECT_NEAR(compressed[kSfeSum], std::log1p(raw[kSfeSum]), 1e-12);
  // Shape statistics are clamped to [-10, 10].
  for (int i : {kSfeCoeffVar, kSfeKurtosis, kSfeSkewness, kSfeTilt}) {
    EXPECT_LE(std::abs(compressed[static_cast<size_t>(i)]), 10.0);
  }
}

TEST(SfeTest, CompressionHandlesNegativeValues) {
  const auto raw = ComputeSfe(std::vector<double>{-5.0, -3.0, -1.0});
  const auto c = CompressSfe(raw);
  EXPECT_LT(c[kSfeMin], 0.0);  // signed log keeps the sign
  EXPECT_NEAR(c[kSfeMin], -std::log1p(5.0), 1e-12);
}

// ---- Property sweeps over random inputs ----------------------------------

class SfePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SfePropertyTest, ScaleInvariantStatsAreScaleInvariant) {
  Rng rng(GetParam());
  std::vector<double> v;
  const int n = 5 + static_cast<int>(rng.UniformInt(50));
  for (int i = 0; i < n; ++i) v.push_back(rng.LogNormal(0.0, 1.0));
  std::vector<double> scaled = v;
  const double k = 37.5;
  for (auto& x : scaled) x *= k;

  const auto a = ComputeSfe(v);
  const auto b = ComputeSfe(scaled);
  // CV, kurtosis, skewness, tilt are invariant under positive scaling.
  EXPECT_NEAR(a[kSfeCoeffVar], b[kSfeCoeffVar], 1e-9);
  EXPECT_NEAR(a[kSfeKurtosis], b[kSfeKurtosis], 1e-6);
  EXPECT_NEAR(a[kSfeSkewness], b[kSfeSkewness], 1e-6);
  EXPECT_NEAR(a[kSfeTilt], b[kSfeTilt], 1e-6);
  // Scale-carrying stats scale linearly.
  EXPECT_NEAR(b[kSfeMean], k * a[kSfeMean], 1e-6 * k * std::abs(a[kSfeMean]) + 1e-9);
  EXPECT_NEAR(b[kSfeRange], k * a[kSfeRange], 1e-6 * k * a[kSfeRange] + 1e-9);
}

TEST_P(SfePropertyTest, OrderingInvariance) {
  Rng rng(GetParam() + 100);
  std::vector<double> v;
  const int n = 3 + static_cast<int>(rng.UniformInt(30));
  for (int i = 0; i < n; ++i) v.push_back(rng.Gaussian(5.0, 2.0));
  auto shuffled = v;
  rng.Shuffle(&shuffled);
  const auto a = ComputeSfe(v);
  const auto b = ComputeSfe(shuffled);
  for (int i = 0; i < kSfeDim; ++i) {
    EXPECT_NEAR(a[static_cast<size_t>(i)], b[static_cast<size_t>(i)], 1e-9)
        << "stat " << i;
  }
}

TEST_P(SfePropertyTest, BasicBoundsHold) {
  Rng rng(GetParam() + 200);
  std::vector<double> v;
  const int n = 2 + static_cast<int>(rng.UniformInt(100));
  for (int i = 0; i < n; ++i) v.push_back(rng.LogNormal(1.0, 1.5));
  const auto s = ComputeSfe(v);
  EXPECT_GE(s[kSfeMax], s[kSfePercentile75]);
  EXPECT_GE(s[kSfePercentile75], s[kSfeMin]);
  EXPECT_GE(s[kSfeMax], s[kSfeMean]);
  EXPECT_LE(s[kSfeMin], s[kSfeMean]);
  EXPECT_GE(s[kSfeVariance], 0.0);
  EXPECT_NEAR(s[kSfeStdDev] * s[kSfeStdDev], s[kSfeVariance],
              1e-6 * s[kSfeVariance] + 1e-12);
  EXPECT_LE(s[kSfeMeanAbsDev], s[kSfeStdDev] + 1e-9);  // MAD <= stddev
  EXPECT_DOUBLE_EQ(s[kSfeCount], static_cast<double>(n));
  EXPECT_DOUBLE_EQ(s[kSfeRange], s[kSfeMax] - s[kSfeMin]);
  EXPECT_DOUBLE_EQ(s[kSfeMidRange], (s[kSfeMax] + s[kSfeMin]) / 2.0);
  // Population kurtosis >= 1 always (>= squared skewness + 1).
  if (s[kSfeVariance] > 1e-12) {
    EXPECT_GE(s[kSfeKurtosis] + 1e-9,
              s[kSfeSkewness] * s[kSfeSkewness] + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, SfePropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace ba::core
