#include "core/sfe.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ba::core {

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  // Linear interpolation between closest ranks (inclusive method).
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double SignedLog1p(double v) {
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

double Clamp(double v, double lo, double hi) {
  if (std::isnan(v)) return 0.0;
  return std::clamp(v, lo, hi);
}

}  // namespace

std::array<double, kSfeDim> ComputeSfe(std::span<const double> values) {
  std::array<double, kSfeDim> out{};
  const size_t n = values.size();
  if (n == 0) return out;

  thread_local std::vector<double> sorted;
  sorted.assign(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double min_v = sorted.front();
  const double max_v = sorted.back();

  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(n);

  double m2 = 0.0, m3 = 0.0, m4 = 0.0, abs_dev = 0.0;
  for (double v : values) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
    abs_dev += std::abs(d);
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  const double variance = m2;
  const double stddev = std::sqrt(variance);
  const double mad = abs_dev / static_cast<double>(n);
  const double median = Percentile(sorted, 0.5);

  out[kSfeMax] = max_v;
  out[kSfeMin] = min_v;
  out[kSfeSum] = sum;
  out[kSfeMean] = mean;
  out[kSfeCount] = static_cast<double>(n);
  out[kSfeRange] = max_v - min_v;
  out[kSfeMidRange] = (max_v + min_v) / 2.0;
  out[kSfePercentile75] = Percentile(sorted, 0.75);
  out[kSfeVariance] = variance;
  out[kSfeStdDev] = stddev;
  out[kSfeMeanAbsDev] = mad;
  out[kSfeCoeffVar] = mean != 0.0 ? stddev / std::abs(mean) : 0.0;
  // Population kurtosis (not excess) and skewness; degenerate
  // (zero-variance) inputs report 0.
  out[kSfeKurtosis] = variance > 0.0 ? m4 / (variance * variance) : 0.0;
  out[kSfeSkewness] = stddev > 0.0 ? m3 / (stddev * stddev * stddev) : 0.0;
  // Tilt: Pearson's second (median) skewness coefficient.
  out[kSfeTilt] = stddev > 0.0 ? 3.0 * (mean - median) / stddev : 0.0;
  return out;
}

std::array<double, kSfeDim> CompressSfe(
    const std::array<double, kSfeDim>& raw) {
  std::array<double, kSfeDim> out = raw;
  for (int i : {kSfeMax, kSfeMin, kSfeSum, kSfeMean, kSfeCount, kSfeRange,
                kSfeMidRange, kSfePercentile75, kSfeVariance, kSfeStdDev,
                kSfeMeanAbsDev}) {
    out[static_cast<size_t>(i)] = SignedLog1p(out[static_cast<size_t>(i)]);
  }
  out[kSfeCoeffVar] = Clamp(out[kSfeCoeffVar], 0.0, 10.0);
  out[kSfeKurtosis] = Clamp(SignedLog1p(out[kSfeKurtosis]), -10.0, 10.0);
  out[kSfeSkewness] = Clamp(out[kSfeSkewness], -10.0, 10.0);
  out[kSfeTilt] = Clamp(out[kSfeTilt], -10.0, 10.0);
  return out;
}

std::array<double, kSfeDim> ComputeCompressedSfe(
    std::span<const double> values) {
  return CompressSfe(ComputeSfe(values));
}

}  // namespace ba::core
