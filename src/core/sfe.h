#pragma once

#include <array>
#include <cstdint>
#include <span>

/// \file sfe.h
/// \brief Statistical Feature Extraction (SFE, §III-A.2): summarizes a
/// set of transferred amounts into the fixed feature vector used for
/// every (hyper) node of the address graph (Eq. 1-2, 7).

namespace ba::core {

/// Number of statistics produced by SFE — the paper's list: max, min,
/// sum, mean, count; range, mid-range, percentile, variance, standard
/// deviation; mean absolute deviation, coefficient of variation;
/// kurtosis, skewness, tilt.
inline constexpr int kSfeDim = 15;

/// Index of each statistic inside an SFE vector.
enum SfeIndex : int {
  kSfeMax = 0,
  kSfeMin,
  kSfeSum,
  kSfeMean,
  kSfeCount,
  kSfeRange,
  kSfeMidRange,
  kSfePercentile75,
  kSfeVariance,
  kSfeStdDev,
  kSfeMeanAbsDev,
  kSfeCoeffVar,
  kSfeKurtosis,
  kSfeSkewness,
  kSfeTilt,
};

/// \brief Computes the 15 SFE statistics of `values` (transferred
/// amounts, in BTC). An empty input yields the all-zero vector.
///
/// Sums run over `values` in the given order; the order statistics
/// come from a sorted copy in thread-local scratch. Unbounded
/// statistics are NOT compressed here; see CompressSfe.
std::array<double, kSfeDim> ComputeSfe(std::span<const double> values);

/// \brief Signed-log compression of the scale-carrying SFE entries
/// (max/min/sum/... grow with transaction volume; log1p keeps them in a
/// range neural layers handle) while the scale-free shape statistics
/// (CV, kurtosis, skewness, tilt) are clamped. Deterministic — no
/// dataset-dependent normalization, so train and test are processed
/// identically.
std::array<double, kSfeDim> CompressSfe(
    const std::array<double, kSfeDim>& raw);

/// Convenience: ComputeSfe followed by CompressSfe.
std::array<double, kSfeDim> ComputeCompressedSfe(
    std::span<const double> values);

}  // namespace ba::core
