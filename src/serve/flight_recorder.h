#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"

/// \file flight_recorder.h
/// \brief Always-on ring of the last N per-request timelines.
///
/// Tracing answers "what is the process doing" but has to be switched
/// on before the interesting request arrives. The flight recorder is
/// the complement: it is cheap enough to leave on in production (one
/// relaxed fetch_add on a shared head counter plus one per-slot mutex
/// per request, ~100 bytes per slot), so when a tail-latency complaint
/// lands the last N timelines — including the slow one — are already
/// captured and queryable over the admin port (`slowlog` / `timeline
/// <trace_id>`), no reproduction needed.
///
/// Concurrency: writers never share a lock. `Record` claims a slot
/// with a relaxed fetch_add on the head counter and takes only that
/// slot's mutex; the per-slot mutex exists solely to keep an admin
/// snapshot from reading a half-written entry (and stays TSan-clean,
/// unlike a seqlock over plain fields). A reader walking all slots
/// momentarily delays at most one writer per slot. The head counter is
/// one cache line every writer updates, though, so concurrent writers
/// contend on it: on a 4-vCPU Xeon a loop of `Record` calls read about
/// 50 ns per call on one thread and 350-450 ns on each of three.

namespace ba::serve {

/// \brief Fixed-capacity timeline ring shared by writers (request
/// deliveries) and readers (admin queries).
class FlightRecorder {
 public:
  struct Entry {
    /// Monotone record index — orders entries without timestamps and
    /// tells a reader how much history the ring has seen.
    uint64_t seq = 0;
    /// The classified address (slowlog triage usually starts here).
    uint64_t address = 0;
    RequestTimeline timeline;

    /// Single-line JSON object.
    std::string ToJson() const;
  };

  /// `capacity` is clamped to >= 1.
  explicit FlightRecorder(size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one finished request, overwriting the oldest entry once
  /// the ring is full. Safe from any number of threads.
  void Record(uint64_t address, const RequestTimeline& timeline);

  /// Most-recent-first snapshot of up to `max_entries` entries.
  std::vector<Entry> Snapshot(size_t max_entries) const;

  /// The most recent entry whose timeline carries `trace_id`, or
  /// nullopt when it has aged out (or never arrived).
  std::optional<Entry> Find(uint64_t trace_id) const;

  size_t capacity() const { return capacity_; }

  /// Total entries ever recorded (>= capacity means the ring wrapped).
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// JSON array of `Snapshot(max_entries)`, newest first, one line.
  std::string ToJson(size_t max_entries) const;

 private:
  struct Slot {
    mutable std::mutex mu;
    Entry entry;
    bool filled = false;
  };

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace ba::serve
