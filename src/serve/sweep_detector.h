#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "serve/protocol.h"

/// \file sweep_detector.h
/// \brief Per-client cold-sweep classification for the InferenceEngine.
///
/// A monitoring client polls a stable working set and hits the cache
/// almost every query; a mixer_hunt-style scan walks the whole address
/// space and misses almost every query. The detector keeps one miss
/// streak per `ClassifyOptions::client_id` (the net server stamps its
/// connection id): a full or partial cache hit resets the streak, a
/// computed-from-scratch result extends it, and once the streak
/// reaches the threshold the client is marked *sweeping* — the engine
/// then stamps its requests `CacheMode::kNoPromote` so the scan reads
/// the cache but can no longer evict the hot working set.
/// Unmarking is deliberately sticky (a run of consecutive hits, not
/// one), and a client that was marked before re-marks on a much
/// shorter streak — see Observe.

namespace ba::serve {

/// \brief Per-client miss-streak tracking (thread-safe).
class SweepDetector {
 public:
  /// Consecutive computed-from-scratch results before a client is
  /// classified as sweeping. `threshold` < 1 disables detection
  /// entirely (every client stays kNormal).
  explicit SweepDetector(int threshold);

  /// Cache mode for the next request of `client_id` (kNoPromote once
  /// the client is marked sweeping; anonymous clients — id 0 — are
  /// never tracked).
  CacheMode ModeFor(uint64_t client_id) const;

  /// Feeds one completed request back: `reused_cache` is true when the
  /// answer reused any cached state (full or partial hit, coalesced,
  /// stale). Errors and empty-history answers should not be reported.
  void Observe(uint64_t client_id, bool reused_cache);

  /// Drops a departed client's state (the net server calls
  /// InferenceEngine::ForgetClient on connection close so ids recycled
  /// by a long-lived process never inherit a stale streak).
  void Forget(uint64_t client_id);

  /// Clients currently classified as sweeping.
  uint64_t sweeping_clients() const;

 private:
  struct ClientState {
    int streak = 0;      ///< consecutive computed-from-scratch answers
    int hit_streak = 0;  ///< consecutive reuses while marked sweeping
    bool sweeping = false;
    /// Marked at least once: re-marking then needs only a quarter of
    /// the threshold (min 2) — a scanner wrapping over its own few
    /// cached entries must not buy the full insertion budget again.
    bool ever_swept = false;
  };

  /// Consecutive cache reuses required to clear an active sweeping
  /// mark (see Observe for why one hit is not enough).
  static constexpr int kUnmarkHitRun = 4;

  /// Ceiling on tracked clients: past it, new clients are not tracked
  /// (they stay kNormal) instead of growing the map without bound.
  static constexpr size_t kMaxClients = 1 << 16;

  const int threshold_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, ClientState> clients_;
};

}  // namespace ba::serve
