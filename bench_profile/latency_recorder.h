#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

/// \file latency_recorder.h
/// \brief Fixed-memory latency histogram for the profile benchmark.
///
/// Values are non-negative integers (nanoseconds by convention).
/// Values below 128 get a bucket each; larger values fall into one of
/// 128 linear sub-buckets per power of two, so a bucket spans at most
/// 1/128 of its lower bound and every point in it is within 0.79% of
/// every value in it. A percentile is placed inside its bucket by
/// linear interpolation over the bucket's samples, so it moves
/// smoothly with the data instead of jumping between bucket edges.
/// Memory is fixed (~58 KiB), recording is a handful of integer
/// operations, and two recorders merge exactly by adding bucket counts
/// — one recorder per thread, merged after the run, gives the same
/// percentiles as one shared recorder would.
///
/// A percentile is reported only when at least `kMinBeyond` samples lie
/// beyond it: the p99 of 200 samples is just the second-largest value,
/// which says nothing about a tail.

namespace ba::bench {

class LatencyRecorder {
 public:
  /// Samples that must lie strictly beyond a reported percentile.
  static constexpr uint64_t kMinBeyond = 10;

  void Record(uint64_t value) {
    ++counts_[BucketOf(value)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  /// Adds every sample of `other` (exact).
  void Merge(const LatencyRecorder& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// True when the nearest-rank `p`-th percentile (0 < p < 100) has at
  /// least kMinBeyond samples above its rank.
  bool Supports(double p) const { return count_ - RankOf(p) >= kMinBeyond; }

  /// The `p`-th percentile (nearest rank; the k-th of a bucket's c
  /// samples is placed (k - 1/2)/c of the way across it, clamped to the
  /// observed range), or nullopt when Supports(p) is false.
  std::optional<double> Percentile(double p) const {
    if (count_ == 0 || !Supports(p)) return std::nullopt;
    const uint64_t rank = RankOf(p);
    uint64_t seen = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (seen + counts_[i] >= rank) {
        const double at = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(counts_[i]);
        return std::clamp(Lower(i) + at * Width(i),
                          static_cast<double>(min()),
                          static_cast<double>(max_));
      }
      seen += counts_[i];
    }
    return static_cast<double>(max_);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;  // 128
  /// 128 exact buckets, then 128 per power of two from 2^7 to 2^63.
  static constexpr size_t kNumBuckets = kSub + (64 - kSubBits) * kSub;

  static size_t BucketOf(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);  // e >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(kSub * static_cast<uint64_t>(e - kSubBits + 1) +
                               sub);
  }

  /// Width of `bucket`: 1 for the exact buckets, else 2^(e - kSubBits)
  /// for the power of two 2^e it subdivides.
  static double Width(size_t bucket) {
    if (bucket < kSub) return 1.0;
    const int e = static_cast<int>(bucket / kSub) - 1 + kSubBits;
    return std::ldexp(1.0, e - kSubBits);
  }

  static double Lower(size_t bucket) {
    if (bucket < kSub) return static_cast<double>(bucket);
    return static_cast<double>(kSub + bucket % kSub) * Width(bucket);
  }

  /// 1-based nearest rank of the p-th percentile.
  uint64_t RankOf(double p) const {
    const double r = std::ceil(p / 100.0 * static_cast<double>(count_));
    return std::clamp<uint64_t>(static_cast<uint64_t>(r), 1,
                                std::max<uint64_t>(count_, 1));
  }

  std::array<uint64_t, kNumBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

}  // namespace ba::bench
