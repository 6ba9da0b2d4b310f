#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file trace.h
/// \brief Scoped-span tracing with Chrome trace-event JSON export.
///
/// `BA_TRACE_SPAN("core.sfe")` drops an RAII span into the enclosing
/// scope; when tracing is enabled its wall-clock extent (plus any
/// numeric args attached via `AddArg`) is recorded into a per-thread
/// ring buffer. `Tracer::Save()` exports everything as Chrome
/// trace-event JSON — open the file in Perfetto
/// (https://ui.perfetto.dev) or `chrome://tracing` to see the whole
/// pipeline laid out per thread: graph-construction stages, training
/// epochs, serve batches, thread-pool tasks.
///
/// Cost model:
///  * disabled (default): one relaxed atomic load + branch per span —
///    safe to leave in the hottest paths (the <2% serve-throughput
///    budget in DESIGN.md §6 is measured against this).
///  * enabled: a steady_clock read at span start/end and a short
///    per-thread mutex hold at destruction. Ring buffers cap memory;
///    when a thread overflows its buffer the oldest spans are
///    overwritten; each overwrite increments the `obs.trace.dropped`
///    registry counter (visible in metrics scrapes) and the total is
///    also reported in the export metadata.
///
/// Activation: programmatic (`Tracer::Instance().Enable()`) or by
/// environment — `BA_TRACE=1` enables tracing at process start, and
/// `BA_TRACE_OUT=<path>` additionally saves the trace at process exit,
/// so any binary in this repo can be traced without code changes.
///
/// Span naming convention: `<subsystem>.<stage>` (see DESIGN.md §6).

namespace ba::obs {

namespace internal {

/// The tracing master switch. Inline so the disabled-path check in
/// ScopedSpan compiles to a single relaxed load, no function call.
inline std::atomic<bool> g_trace_enabled{false};

}  // namespace internal

/// Appends `s` to `os` escaped for the inside of a JSON string literal
/// (quotes, backslashes and control characters).
void AppendJsonEscaped(std::ostringstream* os, const std::string& s);

/// \brief One recorded event (a completed span, a counter sample, or
/// one end of an async flow).
struct TraceEvent {
  std::string name;
  char phase = 'X';       ///< 'X' complete span, 'C' counter sample,
                          ///< 'b'/'e' async begin/end (flow events)
  int64_t start_ns = 0;   ///< relative to the process trace epoch
  int64_t dur_ns = 0;     ///< span duration ('X' only)
  int tid = 0;            ///< registration order of the owning thread
  /// Correlates 'b'/'e' pairs: Perfetto stitches async events sharing
  /// an id into one track regardless of which thread recorded them —
  /// the request trace_id goes here.
  uint64_t flow_id = 0;
  /// Numeric args rendered into the event's "args" object ('X'), or
  /// the sampled value ('C', single entry named "value").
  std::vector<std::pair<std::string, double>> args;
};

/// \brief Process-wide span collector and exporter.
class Tracer {
 public:
  /// Fault point of `Save` (see util::FaultInjector).
  static constexpr const char* kFaultTraceSave = "obs.trace.save";

  static constexpr size_t kDefaultCapacityPerThread = 1 << 16;

  static Tracer& Instance();

  /// Starts collecting. Clears previously recorded events; threads seen
  /// after this call get ring buffers of `capacity_per_thread` events.
  void Enable(size_t capacity_per_thread = kDefaultCapacityPerThread);

  /// Stops collecting (already-recorded events stay exportable).
  void Disable();

  bool enabled() const {
    return internal::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the process trace epoch (steady clock).
  static int64_t NowNs();

  /// Records a completed span ending now. Called by ScopedSpan; usable
  /// directly for spans whose extent isn't a C++ scope.
  void RecordComplete(std::string name, int64_t start_ns, int64_t dur_ns,
                      std::vector<std::pair<std::string, double>> args = {});

  /// Records a counter sample — Perfetto renders these as a per-name
  /// counter track (queue depths, cache sizes over time).
  void RecordCounter(const std::string& name, double value);

  /// Records an async span [start_ns, start_ns + dur_ns) correlated by
  /// `flow_id` (exported as Chrome 'b'/'e' events). Async events with
  /// the same id share one Perfetto track across threads — so the
  /// client round trip, the server dispatch and the engine's
  /// per-request extent, each recorded where it happened, stack on a
  /// single row keyed by the request's trace_id. No-op when disabled
  /// or flow_id is 0.
  void RecordAsync(std::string name, uint64_t flow_id, int64_t start_ns,
                   int64_t dur_ns);

  /// Names the calling thread in the exported trace (metadata event).
  void SetCurrentThreadName(const std::string& name);

  /// Events currently held across all thread buffers.
  size_t EventCount() const;

  /// Events recorded since Enable, including any that overflowed their
  /// ring buffer. `TotalRecorded() - EventCount()` spans were dropped.
  uint64_t TotalRecorded() const;

  /// Drops every recorded event (buffers stay registered).
  void Reset();

  /// The full trace as Chrome trace-event JSON:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string ToJson() const;

  /// Writes `ToJson()` atomically via util::AtomicFileWriter, passing
  /// the `obs.trace.save` fault point first.
  Status Save(const std::string& path) const;

  /// Registers a process-exit hook that saves the trace to `path`
  /// (first call wins; later calls update the path).
  void SaveAtExit(const std::string& path);

 private:
  Tracer() = default;
  friend class ScopedSpan;

  class ThreadBuffer;
  ThreadBuffer* CurrentThreadBuffer();

  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  size_t capacity_per_thread_ = kDefaultCapacityPerThread;
  bool exit_hook_registered_ = false;
};

/// \brief RAII span: records [construction, destruction) under `name`
/// when tracing is enabled at construction time. Near-zero cost when
/// disabled. Use the BA_TRACE_SPAN macro for anonymous spans; declare a
/// ScopedSpan directly when you need to attach args.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (internal::g_trace_enabled.load(std::memory_order_relaxed)) {
      Begin(name);
    }
  }

  ~ScopedSpan() {
    if (active_) End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric arg shown in the event's detail pane. No-op
  /// when the span is inactive (tracing disabled at construction).
  void AddArg(const char* key, double value) {
    if (active_) args_.emplace_back(key, value);
  }

  /// True when this span will be recorded — gate any work done only to
  /// compute args (e.g. gradient norms) on this.
  bool active() const { return active_; }

 private:
  void Begin(const char* name);
  void End();

  bool active_ = false;
  int64_t start_ns_ = 0;
  std::string name_;
  std::vector<std::pair<std::string, double>> args_;
};

#define BA_TRACE_CONCAT_INNER_(a, b) a##b
#define BA_TRACE_CONCAT_(a, b) BA_TRACE_CONCAT_INNER_(a, b)

/// Traces the enclosing scope as one span named `name` (a string
/// literal following the `<subsystem>.<stage>` convention).
#define BA_TRACE_SPAN(name) \
  ::ba::obs::ScopedSpan BA_TRACE_CONCAT_(ba_trace_span_, __LINE__)(name)

}  // namespace ba::obs
