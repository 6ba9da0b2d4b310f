#include "serve/flight_recorder.h"

#include <algorithm>

namespace ba::serve {

std::string FlightRecorder::Entry::ToJson() const {
  std::string out;
  out += "{\"seq\":" + std::to_string(seq);
  out += ",\"address\":" + std::to_string(address);
  out += ",\"timeline\":" + timeline.ToJson() + "}";
  return out;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::Record(uint64_t address,
                            const RequestTimeline& timeline) {
  const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.entry.seq = seq;
  slot.entry.address = address;
  slot.entry.timeline = timeline;
  slot.filled = true;
}

std::vector<FlightRecorder::Entry> FlightRecorder::Snapshot(
    size_t max_entries) const {
  // Only the newest `max_entries` slots can hold the answer, so walk
  // back from the head over those alone: an admin query for 32 entries
  // costs 32 slot visits however big the ring is.
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>({max_entries, head, capacity_}));
  std::vector<Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Slot& slot = slots_[(head - 1 - i) % capacity_];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.filled) entries.push_back(slot.entry);
  }
  // Writers racing the walk may have refilled a slot with a newer seq.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.seq > b.seq; });
  return entries;
}

std::optional<FlightRecorder::Entry> FlightRecorder::Find(
    uint64_t trace_id) const {
  std::optional<Entry> best;
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.filled || slot.entry.timeline.trace_id != trace_id) continue;
    if (!best.has_value() || slot.entry.seq > best->seq) best = slot.entry;
  }
  return best;
}

std::string FlightRecorder::ToJson(size_t max_entries) const {
  const std::vector<Entry> entries = Snapshot(max_entries);
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += entries[i].ToJson();
  }
  out += "]";
  return out;
}

}  // namespace ba::serve
