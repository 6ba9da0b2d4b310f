#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

/// \file metrics.h
/// \brief Process-wide, lock-free metric instruments and the registry
/// that names them.
///
/// The serving layer started with engine-local counters and latency
/// histograms; this generalizes those primitives so every subsystem —
/// graph construction, training, the thread pool, the inference engine
/// — records into the same taxonomy:
///
///  * `Counter`          monotonically increasing event count
///  * `Gauge`            instantaneous signed level (queue depth)
///  * `TimeAccumulator`  concurrent wall-clock accumulation
///  * `Histogram`        log-bucketed distribution with p50/p95/p99
///
/// All mutators are relaxed atomics: safe from any thread, no locks on
/// the hot path. Readers observe a momentarily-consistent view, which
/// is what a metrics scrape wants.
///
/// `MetricsRegistry` owns *named* instruments, created lazily on first
/// `Get*` (call sites cache the returned pointer — instruments are
/// never destroyed while the process lives) and exposes the whole set
/// as text or a single JSON object. Components with richer snapshot
/// structure (the inference engine) register a JSON *provider* instead
/// of flattening themselves into scalar instruments.
///
/// Naming convention: `<subsystem>.<stage>[.<detail>]`, lower-case,
/// dot-separated — `serve.requests`, `util.thread_pool.queue_depth`,
/// `core.train.epochs` (see DESIGN.md §6).

namespace ba::obs {

/// \brief A monotonically increasing event counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief An instantaneous signed level — queue depths, cache sizes.
/// `Add` lets many producers maintain one process-wide level without
/// coordination (each pairs its +1 with a later -1).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Accumulates wall-clock seconds from concurrent recorders
/// (per-stage pipeline timings). Stored as integer nanoseconds so the
/// accumulation is a plain atomic add.
class TimeAccumulator {
 public:
  void AddSeconds(double seconds) {
    nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
  }

  double Seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<int64_t> nanos_{0};
};

/// \brief Point-in-time summary of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  double total_seconds = 0.0;
  double mean_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;

  /// {"count","mean_s","p50_s","p95_s","p99_s","max_s"} — the one JSON
  /// rendering of a histogram, shared by every exposition.
  std::string ToJson() const;
  /// "count=N p50=… p95=… p99=… max=…" with human-scaled durations.
  std::string ToString() const;
};

/// \brief Fixed log-spaced histogram (1µs … ~3.5h upper bucket) with
/// interpolation-free percentile estimation: a percentile reports the
/// geometric midpoint of the bucket containing it, so estimates are
/// within one bucket ratio (×1.5) of the true value — plenty for
/// dashboards, with zero allocation and no locks on the record path.
///
/// The field names say "seconds" because latency is the dominant use,
/// but any non-negative quantity with a heavy tail fits the buckets.
class Histogram {
 public:
  static constexpr int kNumBuckets = 56;
  static constexpr double kFirstUpperBound = 1e-6;  // 1µs
  static constexpr double kGrowth = 1.5;

  /// Records one observation (thread-safe, lock-free). Non-finite
  /// inputs (NaN, ±inf) are dropped — they indicate a recorder bug and
  /// would otherwise poison the totals; negatives clamp to 0.
  void Record(double seconds);

  /// Summarizes the current contents (concurrent-safe; the snapshot is
  /// approximate under concurrent writes).
  HistogramSnapshot Snapshot() const;

  /// Estimated percentile in seconds, p in (0, 100].
  double Percentile(double p) const;

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  double TotalSeconds() const {
    return static_cast<double>(
               total_nanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }

 private:
  /// Upper bound of bucket `i` in seconds; the final bucket is
  /// unbounded and reports its lower bound.
  static double UpperBound(int i);
  static int BucketOf(double seconds);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> total_nanos_{0};
  std::atomic<int64_t> max_nanos_{0};
};

/// Renders seconds as a human-scaled string ("1.23ms", "45.6us").
std::string FormatSeconds(double seconds);

/// Point-in-time value of each instrument kind, so one metric list can
/// be expanded over instruments of several kinds (see
/// serve::InferenceMetricsSnapshot).
inline uint64_t ValueOf(const Counter& c) { return c.value(); }
inline double ValueOf(const TimeAccumulator& t) { return t.Seconds(); }
inline HistogramSnapshot ValueOf(const Histogram& h) { return h.Snapshot(); }

/// \brief Process-wide registry of named instruments.
///
/// `Get*` lazily creates the instrument on first use and returns a
/// pointer that stays valid for the life of the process — cache it at
/// the call site so the registry lock is paid once, not per event.
/// Requesting an existing name with a different instrument kind is a
/// programmer error and aborts.
class MetricsRegistry {
 public:
  /// Fault point of `SaveJson` (see util::FaultInjector): armed, the
  /// dump fails before touching the filesystem — on top of the fs.*
  /// points inside AtomicFileWriter.
  static constexpr const char* kFaultMetricsSave = "obs.metrics.save";

  static MetricsRegistry& Instance();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  TimeAccumulator* GetTimeAccumulator(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// \brief Registers a component that exposes its own JSON object
  /// (e.g. an InferenceEngine snapshot). The callback runs during
  /// exposition on the scraping thread and must be thread-safe; it must
  /// be unregistered before whatever it captures is destroyed.
  void RegisterProvider(const std::string& name,
                        std::function<std::string()> json_provider);
  void UnregisterProvider(const std::string& name);

  /// Human-readable listing, one instrument per line, sorted by name.
  std::string TextExposition() const;

  /// One JSON object: {"counters":{...},"gauges":{...},
  /// "time_seconds":{...},"histograms":{...},"providers":{...}}.
  std::string JsonExposition() const;

  /// Writes `JsonExposition()` atomically (AtomicFileWriter, CRC-less —
  /// the artifact is for humans/Perfetto-side tooling, not reload).
  Status SaveJson(const std::string& path) const;

  /// Registered instrument names, sorted (tests and tooling).
  std::vector<std::string> Names() const;

 private:
  MetricsRegistry() = default;

  enum class Kind { kCounter, kGauge, kTime, kHistogram };

  struct Instrument {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<TimeAccumulator> time;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument* GetOrCreate(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  /// std::map: exposition iterates in sorted order for free, and node
  /// stability keeps instrument pointers valid across inserts.
  std::map<std::string, Instrument> instruments_;
  std::map<std::string, std::function<std::string()>> providers_;
};

}  // namespace ba::obs
