#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

#include "util/status.h"

/// \file admission.h
/// \brief Bounded-budget admission control with watermark shedding and
/// token-bucket recovery.
///
/// An overloaded engine that accepts every request converts overload
/// into unbounded queueing: every caller — including the ones that
/// arrived before the spike — waits behind the backlog, and p99 latency
/// grows without bound. The controller turns that failure mode into an
/// explicit, cheap rejection (`ResourceExhausted` in well under a
/// millisecond) so callers can retry, degrade, or route elsewhere while
/// the admitted work keeps its latency profile.
///
/// Three-state machine, driven by the caller-supplied backlog signal
/// (for the inference engine: undelivered blocking requests + thread-pool
/// tasks in flight — the live generalization of the snapshot-only
/// `pool_backlog` metric):
///
///   kAccepting --backlog >= high_watermark--> kShedding
///   kShedding  --backlog <= low_watermark--> kRecovering
///   kRecovering --bucket full && backlog low--> kAccepting
///   kRecovering --backlog >= high_watermark--> kShedding
///
/// While kShedding every normal-priority request is rejected fast.
/// While kRecovering a token bucket (`recovery_rate` tokens/s, capacity
/// `recovery_burst`) meters requests back in gradually, so a backlog
/// that only just drained is not immediately re-buried by the thundering
/// herd that piled up behind the shed. Requests with `priority > 0`
/// bypass watermark shedding entirely but still respect the hard
/// `max_inflight` budget — the one limit that protects memory.
///
/// Thread-safe; decisions take one short mutex hold. Process-wide
/// instruments: gauge `serve.admission.inflight`, counters
/// `serve.admission.admitted` / `serve.admission.shed`.

namespace ba::serve {

/// \brief Admission tunables. Value-semantic; embeddable in Options.
struct AdmissionOptions {
  /// Hard cap on concurrently admitted (not yet released) requests.
  int64_t max_inflight = 256;
  /// Backlog at or above which normal-priority admission stops.
  int64_t high_watermark = 128;
  /// Backlog at or below which a shedding controller starts recovering.
  int64_t low_watermark = 32;
  /// Token-bucket refill rate (admissions per second) while recovering.
  double recovery_rate = 200.0;
  /// Token-bucket capacity; recovery ends (full acceptance resumes)
  /// once the bucket refills completely with the backlog still low.
  int64_t recovery_burst = 16;

  /// \brief OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field.
  Status Validate() const;
};

/// \brief The watermark/token-bucket admission state machine.
class AdmissionController {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State { kAccepting, kShedding, kRecovering };

  /// Human-readable state name ("accepting", "shedding", "recovering").
  static const char* StateName(State state);

  /// `options` must already Validate() OK (the engine validates its
  /// embedded copy); an invalid policy aborts.
  explicit AdmissionController(AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// \brief Decides one request now. OK admits (pair with `Release()`
  /// when the request completes); ResourceExhausted sheds, naming the
  /// reason (budget vs. overload). `backlog` is the caller's live load
  /// signal; `priority > 0` bypasses watermark shedding.
  Status Admit(int64_t backlog, int priority = 0);

  /// Admit with an injected clock — the testable core.
  Status AdmitAt(Clock::time_point now, int64_t backlog, int priority);

  /// Releases one admitted request. Every OK Admit must be released
  /// exactly once.
  void Release();

  State state() const;
  int64_t inflight() const;
  uint64_t admitted() const;
  uint64_t shed() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  const AdmissionOptions options_;

  mutable std::mutex mu_;
  State state_ = State::kAccepting;
  int64_t inflight_ = 0;
  double tokens_ = 0.0;
  Clock::time_point last_refill_{};
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
};

}  // namespace ba::serve
