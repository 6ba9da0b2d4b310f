#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "util/status.h"

/// \file retry.h
/// \brief Reusable bounded-retry policy: exponential backoff with
/// decorrelated jitter, deadline-aware.
///
/// Persistence paths (here: the serve cache's SaveCache) fail
/// transiently — a full disk that a log rotation frees, an
/// NFS hiccup, an injected chaos fault. `RetryWithBackoff` turns such
/// an operation into a bounded loop: attempt, classify the failure,
/// sleep with decorrelated jitter (sleep_k ~ Uniform(base, 3·sleep_{k-1}),
/// capped), and try again until the attempt budget or the deadline is
/// exhausted. Jitter is drawn from a deterministic per-call stream so
/// tests reproduce exactly.
///
/// The default policy (`max_attempts = 1`) performs no retries at all —
/// call sites that wire a `RetryPolicy` through keep their existing
/// fail-fast semantics until an operator opts in.

namespace ba::util {

/// \brief Bounded-retry tunables. Value-semantic; safe to embed in
/// Options structs.
struct RetryPolicy {
  /// Total attempts including the first. 1 disables retries entirely
  /// (the operation runs once and its status is returned verbatim).
  int max_attempts = 1;
  /// Lower bound of every backoff sleep.
  double initial_backoff_seconds = 0.002;
  /// Upper cap on any single backoff sleep.
  double max_backoff_seconds = 0.250;
  /// Seed of the deterministic jitter stream.
  uint64_t jitter_seed = 0x5DEECE66DULL;
  /// Optional hard deadline: a retry whose backoff sleep would land
  /// past it is abandoned and the last error returned. The epoch
  /// default means "no deadline".
  std::chrono::steady_clock::time_point deadline{};

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }

  /// \brief A policy that retries `attempts` times with the default
  /// backoff shape — the sensible starting point for persistence paths.
  static RetryPolicy Standard(int attempts = 3) {
    RetryPolicy p;
    p.max_attempts = attempts;
    return p;
  }

  /// \brief OK when every field is usable, or a descriptive
  /// InvalidArgument naming the offending field.
  Status Validate() const;
};

/// \brief True for failure categories worth retrying: transient
/// conditions (kInternal I/O failures, kResourceExhausted capacity
/// rejections). Validation errors, missing files and expired deadlines
/// are permanent and returned immediately.
bool IsRetryableStatus(const Status& status);

/// \brief Runs `op` under `policy`: retries retryable failures with
/// decorrelated-jitter backoff until success, the attempt budget, a
/// non-retryable failure, or the policy deadline. Returns the first OK
/// or the last failure (annotated with `op_name` and the attempt count
/// when more than one attempt ran). Counts every retry sleep in the
/// process-wide `util.retry.attempts` counter and every exhausted
/// budget in `util.retry.exhausted`.
Status RetryWithBackoff(const RetryPolicy& policy, const std::string& op_name,
                        const std::function<Status()>& op);

}  // namespace ba::util
