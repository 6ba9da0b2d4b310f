#include "latency_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace ba::bench {
namespace {

/// Nearest-rank percentile of the raw samples (the exact answer).
uint64_t ExactPercentile(std::vector<uint64_t> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

TEST(LatencyRecorderTest, PercentilesWithinOnePercentOfExact) {
  std::mt19937_64 gen(42);
  std::lognormal_distribution<double> dist(10.0, 2.0);  // ns to seconds
  LatencyRecorder rec;
  std::vector<uint64_t> raw;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<uint64_t>(dist(gen));
    rec.Record(v);
    raw.push_back(v);
  }
  for (const double p : {1.0, 10.0, 50.0, 90.0, 99.0, 99.9}) {
    const double exact = static_cast<double>(ExactPercentile(raw, p));
    const auto got = rec.Percentile(p);
    ASSERT_TRUE(got.has_value()) << "p" << p;
    EXPECT_LE(std::abs(*got - exact), 0.01 * exact + 0.5) << "p" << p;
  }
  EXPECT_EQ(rec.count(), raw.size());
  EXPECT_EQ(rec.max(), *std::max_element(raw.begin(), raw.end()));
  EXPECT_EQ(rec.min(), *std::min_element(raw.begin(), raw.end()));
}

TEST(LatencyRecorderTest, SmallValuesAreExact) {
  LatencyRecorder rec;
  for (uint64_t v = 0; v < 128; ++v) rec.Record(v);
  // Values below 128 each own a bucket one unit wide; interpolation
  // stays inside it.
  EXPECT_NEAR(*rec.Percentile(50), 63.0, 0.5);
}

TEST(LatencyRecorderTest, InterpolatesWithinABucket) {
  LatencyRecorder rec;
  // 10000 and 10010 share the bucket [9984, 10048).
  for (int i = 0; i < 100; ++i) rec.Record(10000);
  for (int i = 0; i < 100; ++i) rec.Record(10010);
  const double p25 = *rec.Percentile(25);
  const double p75 = *rec.Percentile(75);
  EXPECT_LT(p25, p75);
  EXPECT_NEAR(p25, 10000.0, 0.01 * 10000.0);
  EXPECT_NEAR(p75, 10010.0, 0.01 * 10010.0);
  EXPECT_GE(p25, 10000.0);  // clamped to the observed range
  EXPECT_LE(p75, 10010.0);
}

TEST(LatencyRecorderTest, MergeEqualsOneSharedRecorder) {
  std::mt19937_64 gen(7);
  std::exponential_distribution<double> dist(1e-5);
  LatencyRecorder shared;
  LatencyRecorder parts[3];
  for (int i = 0; i < 30000; ++i) {
    const auto v = static_cast<uint64_t>(dist(gen));
    shared.Record(v);
    parts[i % 3].Record(v);
  }
  LatencyRecorder merged;
  for (const auto& p : parts) merged.Merge(p);
  EXPECT_EQ(merged.count(), shared.count());
  EXPECT_EQ(merged.sum(), shared.sum());
  EXPECT_EQ(merged.min(), shared.min());
  EXPECT_EQ(merged.max(), shared.max());
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(merged.Percentile(p), shared.Percentile(p)) << "p" << p;
  }
}

TEST(LatencyRecorderTest, ReportsPercentileOnlyWithTenSamplesBeyond) {
  LatencyRecorder rec;
  for (uint64_t v = 1; v <= 999; ++v) rec.Record(v);
  // Rank 990 of 999 leaves 9 samples beyond p99: not reported, where a
  // max-as-p99 estimator would have answered 999.
  EXPECT_FALSE(rec.Supports(99));
  EXPECT_FALSE(rec.Percentile(99).has_value());
  rec.Record(1000);
  EXPECT_TRUE(rec.Supports(99));
  EXPECT_NEAR(*rec.Percentile(99), 990.0, 0.01 * 990.0);
  EXPECT_TRUE(rec.Percentile(50).has_value());
}

TEST(LatencyRecorderTest, EmptyRecorderReportsNothing) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_FALSE(rec.Percentile(50).has_value());
  EXPECT_EQ(rec.mean(), 0.0);
}

}  // namespace
}  // namespace ba::bench
