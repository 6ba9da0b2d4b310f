#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/fs.h"
#include "util/logging.h"

namespace ba::obs {

double Histogram::UpperBound(int i) {
  return kFirstUpperBound * std::pow(kGrowth, i);
}

int Histogram::BucketOf(double seconds) {
  if (seconds <= kFirstUpperBound) return 0;
  const int i = static_cast<int>(
                    std::ceil(std::log(seconds / kFirstUpperBound) /
                              std::log(kGrowth)));
  return std::min(i, kNumBuckets - 1);
}

void Histogram::Record(double seconds) {
  // NaN and infinity are recorder bugs, not observations: NaN would
  // poison BucketOf (log of NaN, then an undefined float->int cast) and
  // corrupt the running totals for good, so drop them. Negatives clamp
  // to zero, and huge finite values clamp so the nanosecond totals stay
  // inside int64.
  if (!std::isfinite(seconds)) return;
  constexpr double kMaxSeconds = 9e9;  // ~285 years; nanos fit int64
  seconds = std::clamp(seconds, 0.0, kMaxSeconds);
  buckets_[static_cast<size_t>(BucketOf(seconds))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const int64_t nanos = static_cast<int64_t>(seconds * 1e9);
  total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  int64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_nanos_.compare_exchange_weak(seen, nanos,
                                           std::memory_order_relaxed)) {
  }
}

double Histogram::Percentile(double p) const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[static_cast<size_t>(i)].load(
        std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 *
                                         static_cast<double>(total))));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= target) {
      const double upper = UpperBound(i);
      const double lower = i == 0 ? 0.0 : UpperBound(i - 1);
      // Geometric midpoint (arithmetic for the first bucket, whose
      // lower bound is 0).
      const double estimate =
          i == 0 ? upper / 2.0 : std::sqrt(lower * upper);
      // Never report beyond the observed maximum (the top bucket is
      // unbounded).
      const double max_s = static_cast<double>(max_nanos_.load(
                               std::memory_order_relaxed)) *
                           1e-9;
      return std::min(estimate, max_s);
    }
  }
  return static_cast<double>(
             max_nanos_.load(std::memory_order_relaxed)) *
         1e-9;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = Count();
  s.total_seconds = TotalSeconds();
  s.mean_seconds =
      s.count == 0 ? 0.0 : s.total_seconds / static_cast<double>(s.count);
  s.p50_seconds = Percentile(50.0);
  s.p95_seconds = Percentile(95.0);
  s.p99_seconds = Percentile(99.0);
  s.max_seconds = static_cast<double>(
                      max_nanos_.load(std::memory_order_relaxed)) *
                  1e-9;
  return s;
}

std::string HistogramSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"count\":" << count << ",\"mean_s\":" << mean_seconds
     << ",\"p50_s\":" << p50_seconds << ",\"p95_s\":" << p95_seconds
     << ",\"p99_s\":" << p99_seconds << ",\"max_s\":" << max_seconds << "}";
  return os.str();
}

std::string HistogramSnapshot::ToString() const {
  return "count=" + std::to_string(count) + " p50=" +
         FormatSeconds(p50_seconds) + " p95=" + FormatSeconds(p95_seconds) +
         " p99=" + FormatSeconds(p99_seconds) +
         " max=" + FormatSeconds(max_seconds);
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3gs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3gms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3gus", seconds * 1e6);
  }
  return buf;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Instrument* MetricsRegistry::GetOrCreate(
    const std::string& name, Kind kind) {
  std::unique_lock<std::mutex> lock(mu_);
  auto [it, inserted] = instruments_.try_emplace(name);
  Instrument& ins = it->second;
  if (inserted) {
    ins.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        ins.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        ins.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kTime:
        ins.time = std::make_unique<TimeAccumulator>();
        break;
      case Kind::kHistogram:
        ins.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  BA_CHECK(ins.kind == kind);  // one name, one instrument kind
  return &ins;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  return GetOrCreate(name, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  return GetOrCreate(name, Kind::kGauge)->gauge.get();
}

TimeAccumulator* MetricsRegistry::GetTimeAccumulator(
    const std::string& name) {
  return GetOrCreate(name, Kind::kTime)->time.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetOrCreate(name, Kind::kHistogram)->histogram.get();
}

void MetricsRegistry::RegisterProvider(
    const std::string& name, std::function<std::string()> json_provider) {
  std::unique_lock<std::mutex> lock(mu_);
  providers_[name] = std::move(json_provider);
}

void MetricsRegistry::UnregisterProvider(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  providers_.erase(name);
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(instruments_.size());
  for (const auto& [name, ins] : instruments_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::TextExposition() const {
  // Providers run outside the registry lock: a provider may itself
  // touch the registry (or block), and exposition must never deadlock
  // the record path.
  std::vector<std::pair<std::string, std::function<std::string()>>>
      providers;
  std::ostringstream os;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const auto& [name, ins] : instruments_) {
      switch (ins.kind) {
        case Kind::kCounter:
          os << name << " " << ins.counter->value() << "\n";
          break;
        case Kind::kGauge:
          os << name << " " << ins.gauge->value() << "\n";
          break;
        case Kind::kTime:
          os << name << " " << FormatSeconds(ins.time->Seconds()) << "\n";
          break;
        case Kind::kHistogram:
          os << name << " " << ins.histogram->Snapshot().ToString() << "\n";
          break;
      }
    }
    providers.assign(providers_.begin(), providers_.end());
  }
  for (const auto& [name, provider] : providers) {
    os << name << " " << provider() << "\n";
  }
  return os.str();
}

namespace {

void AppendJsonKey(std::ostringstream* os, const std::string& name,
                   bool* first) {
  if (!*first) *os << ",";
  *first = false;
  *os << "\"" << name << "\":";
}

}  // namespace

std::string MetricsRegistry::JsonExposition() const {
  std::vector<std::pair<std::string, std::function<std::string()>>>
      providers;
  std::ostringstream os;
  os << "{\"counters\":{";
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool first = true;
    for (const auto& [name, ins] : instruments_) {
      if (ins.kind != Kind::kCounter) continue;
      AppendJsonKey(&os, name, &first);
      os << ins.counter->value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, ins] : instruments_) {
      if (ins.kind != Kind::kGauge) continue;
      AppendJsonKey(&os, name, &first);
      os << ins.gauge->value();
    }
    os << "},\"time_seconds\":{";
    first = true;
    for (const auto& [name, ins] : instruments_) {
      if (ins.kind != Kind::kTime) continue;
      AppendJsonKey(&os, name, &first);
      os << ins.time->Seconds();
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, ins] : instruments_) {
      if (ins.kind != Kind::kHistogram) continue;
      AppendJsonKey(&os, name, &first);
      os << ins.histogram->Snapshot().ToJson();
    }
    providers.assign(providers_.begin(), providers_.end());
  }
  os << "},\"providers\":{";
  bool first = true;
  for (const auto& [name, provider] : providers) {
    AppendJsonKey(&os, name, &first);
    os << provider();  // providers emit a complete JSON value
  }
  os << "}}";
  return os.str();
}

Status MetricsRegistry::SaveJson(const std::string& path) const {
  if (util::FaultInjector::Instance().ShouldFail(kFaultMetricsSave)) {
    return Status::Internal(std::string("injected fault at ") +
                            kFaultMetricsSave);
  }
  const std::string body = JsonExposition();
  util::AtomicFileWriter out(path);
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(out.Append(body));
  BA_RETURN_NOT_OK(out.Append("\n"));
  return out.Commit();
}

}  // namespace ba::obs
