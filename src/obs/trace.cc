#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"
#include "util/fs.h"
#include "util/logging.h"

namespace ba::obs {

namespace {

/// Span loss must be visible in a metrics scrape, not just in the
/// trace file: a monitoring loop watching `obs.trace.dropped` learns
/// the capture is lossy *while it happens*, when raising the Enable()
/// capacity still rescues the session.
Counter* DroppedCounter() {
  static Counter* c =
      MetricsRegistry::Instance().GetCounter("obs.trace.dropped");
  return c;
}

}  // namespace

namespace {

/// All timestamps are relative to the first NowNs() call, keeping the
/// exported microsecond values small and Perfetto's timeline origin at
/// (roughly) process start.
int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void AppendJsonEscaped(std::ostringstream* os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
}

/// \brief Per-thread event ring. Mutation happens on the owning thread;
/// the mutex only serializes against concurrent export/reset, so the
/// record path pays one uncontended lock.
class Tracer::ThreadBuffer {
 public:
  explicit ThreadBuffer(size_t capacity, int tid)
      : capacity_(std::max<size_t>(capacity, 1)), tid_(tid) {}

  void Push(TraceEvent event) {
    std::unique_lock<std::mutex> lock(mu_);
    // The ring materializes on first use: threads that only name
    // themselves (pool workers with tracing off) cost a string, not
    // capacity_ * sizeof(TraceEvent).
    if (ring_.empty()) ring_.resize(capacity_);
    event.tid = tid_;
    if (next_ >= capacity_) DroppedCounter()->Increment();
    ring_[next_ % capacity_] = std::move(event);
    ++next_;
  }

  void SetName(std::string name) {
    std::unique_lock<std::mutex> lock(mu_);
    name_ = std::move(name);
  }

  void AppendSnapshot(std::vector<TraceEvent>* out, uint64_t* total,
                      std::string* name) const {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t held = std::min<uint64_t>(next_, capacity_);
    for (uint64_t i = 0; i < held; ++i) {
      out->push_back(ring_[i]);
    }
    *total += next_;
    *name = name_;
  }

  size_t Held() const {
    std::unique_lock<std::mutex> lock(mu_);
    return static_cast<size_t>(std::min<uint64_t>(next_, capacity_));
  }

  uint64_t Total() const {
    std::unique_lock<std::mutex> lock(mu_);
    return next_;
  }

  void Clear() {
    std::unique_lock<std::mutex> lock(mu_);
    next_ = 0;
  }

  int tid() const { return tid_; }

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  uint64_t next_ = 0;
  int tid_;
  std::string name_;
};

Tracer& Tracer::Instance() {
  // Leaked singleton: spans may be recorded from detached threads
  // during process teardown; never destroy the buffers under them.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::NowNs() {
  static const int64_t epoch = SteadyNs();
  return SteadyNs() - epoch;
}

Tracer::ThreadBuffer* Tracer::CurrentThreadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> tls_buffer;
  if (!tls_buffer) {
    std::unique_lock<std::mutex> lock(registry_mu_);
    tls_buffer = std::make_shared<ThreadBuffer>(
        capacity_per_thread_, static_cast<int>(buffers_.size()) + 1);
    buffers_.push_back(tls_buffer);
  }
  return tls_buffer.get();
}

void Tracer::Enable(size_t capacity_per_thread) {
  {
    std::unique_lock<std::mutex> lock(registry_mu_);
    capacity_per_thread_ = std::max<size_t>(capacity_per_thread, 1);
  }
  Reset();
  // NowNs() pins the trace epoch before the first span can observe it.
  NowNs();
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() {
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::RecordComplete(
    std::string name, int64_t start_ns, int64_t dur_ns,
    std::vector<std::pair<std::string, double>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.phase = 'X';
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.args = std::move(args);
  CurrentThreadBuffer()->Push(std::move(e));
}

void Tracer::RecordAsync(std::string name, uint64_t flow_id,
                         int64_t start_ns, int64_t dur_ns) {
  if (!enabled() || flow_id == 0) return;
  TraceEvent begin;
  begin.name = name;
  begin.phase = 'b';
  begin.start_ns = start_ns;
  begin.flow_id = flow_id;
  TraceEvent end;
  end.name = std::move(name);
  end.phase = 'e';
  end.start_ns = start_ns + dur_ns;
  end.flow_id = flow_id;
  ThreadBuffer* buffer = CurrentThreadBuffer();
  buffer->Push(std::move(begin));
  buffer->Push(std::move(end));
}

void Tracer::RecordCounter(const std::string& name, double value) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.phase = 'C';
  e.start_ns = NowNs();
  e.args.emplace_back("value", value);
  CurrentThreadBuffer()->Push(std::move(e));
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  CurrentThreadBuffer()->SetName(name);
}

size_t Tracer::EventCount() const {
  std::unique_lock<std::mutex> lock(registry_mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->Held();
  return n;
}

uint64_t Tracer::TotalRecorded() const {
  std::unique_lock<std::mutex> lock(registry_mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->Total();
  return n;
}

void Tracer::Reset() {
  std::unique_lock<std::mutex> lock(registry_mu_);
  for (const auto& b : buffers_) b->Clear();
}

std::string Tracer::ToJson() const {
  std::vector<TraceEvent> events;
  std::vector<std::pair<int, std::string>> thread_names;
  uint64_t total = 0;
  {
    std::unique_lock<std::mutex> lock(registry_mu_);
    for (const auto& b : buffers_) {
      std::string name;
      b->AppendSnapshot(&events, &total, &name);
      if (!name.empty()) thread_names.emplace_back(b->tid(), name);
    }
  }

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : thread_names) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"";
    AppendJsonEscaped(&os, name);
    os << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    // Async events ('b'/'e') need a distinct category plus an id:
    // Perfetto groups same-cat same-id async events into one track,
    // which is what stitches a request's cross-thread flow together.
    const bool flow = e.phase == 'b' || e.phase == 'e';
    os << "{\"name\":\"";
    AppendJsonEscaped(&os, e.name);
    os << "\",\"cat\":\"" << (flow ? "ba.flow" : "ba") << "\",\"ph\":\""
       << e.phase << "\",\"ts\":" << static_cast<double>(e.start_ns) * 1e-3
       << ",\"pid\":1,\"tid\":" << e.tid;
    if (flow) {
      os << ",\"id\":\"0x" << std::hex << e.flow_id << std::dec << "\"";
    }
    if (e.phase == 'X') {
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) * 1e-3;
    }
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        if (!first_arg) os << ",";
        first_arg = false;
        os << "\"";
        AppendJsonEscaped(&os, key);
        os << "\":" << value;
      }
      os << "}";
    }
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"";
  const uint64_t dropped = total - std::min<uint64_t>(total, events.size());
  if (dropped > 0) {
    os << ",\"metadata\":{\"ba_dropped_events\":" << dropped << "}";
  }
  os << "}";
  return os.str();
}

Status Tracer::Save(const std::string& path) const {
  if (util::FaultInjector::Instance().ShouldFail(kFaultTraceSave)) {
    return Status::Internal(std::string("injected fault at ") +
                            kFaultTraceSave);
  }
  const uint64_t total = TotalRecorded();
  const size_t held = EventCount();
  if (total > held) {
    BA_LOG(Warn, "obs.trace")
        << "ring buffers overflowed: exporting " << held << " of " << total
        << " recorded events (raise Enable() capacity)";
  }
  const std::string body = ToJson();
  util::AtomicFileWriter out(path);
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(out.Append(body));
  BA_RETURN_NOT_OK(out.Append("\n"));
  return out.Commit();
}

namespace {

std::string& ExitPathStorage() {
  static std::string* path = new std::string();
  return *path;
}

void SaveTraceAtExit() {
  const std::string& path = ExitPathStorage();
  if (path.empty()) return;
  const Status s = Tracer::Instance().Save(path);
  if (!s.ok()) {
    BA_LOG(Error, "obs.trace") << "failed to save exit trace to " << path
                               << ": " << s.ToString();
  } else {
    BA_LOG(Info, "obs.trace") << "saved trace to " << path;
  }
}

}  // namespace

void Tracer::SaveAtExit(const std::string& path) {
  {
    std::unique_lock<std::mutex> lock(registry_mu_);
    if (!exit_hook_registered_) {
      exit_hook_registered_ = true;
      std::atexit(SaveTraceAtExit);
    }
  }
  ExitPathStorage() = path;
}

void ScopedSpan::Begin(const char* name) {
  active_ = true;
  name_ = name;
  start_ns_ = Tracer::NowNs();
}

void ScopedSpan::End() {
  Tracer::Instance().RecordComplete(std::move(name_), start_ns_,
                                    Tracer::NowNs() - start_ns_,
                                    std::move(args_));
}

namespace {

/// Environment activation: any binary linking obs becomes traceable
/// with `BA_TRACE=1` (collect) or `BA_TRACE_OUT=<path>` (collect and
/// save at exit) — no code changes needed. This initializer lives in
/// the same TU as Tracer::Instance, so any use of spans links it in.
struct TraceEnvInit {
  TraceEnvInit() {
    const char* out = std::getenv("BA_TRACE_OUT");
    const char* on = std::getenv("BA_TRACE");
    if (out != nullptr && out[0] != '\0') {
      Tracer::Instance().Enable();
      Tracer::Instance().SaveAtExit(out);
    } else if (on != nullptr && on[0] != '\0' &&
               std::string(on) != "0") {
      Tracer::Instance().Enable();
    }
  }
};
TraceEnvInit trace_env_init;

}  // namespace

}  // namespace ba::obs
