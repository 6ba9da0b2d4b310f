#include "util/fs.h"

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

namespace ba::util {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::string buf;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot stat: " + path);
  in.seekg(0, std::ios::beg);
  buf.resize(static_cast<size_t>(size));
  in.read(buf.data(), size);
  if (!in.good() && size > 0) return Status::Internal("read failed: " + path);
  return buf;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& point, int nth) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[point];
  state.mode = PointState::Mode::kOneShot;
  state.remaining = nth;
}

void FaultInjector::ArmProbabilistic(const std::string& point, double p,
                                     uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[point];
  state.mode = PointState::Mode::kProbabilistic;
  state.probability = p;
  state.rng_state = seed;
}

void FaultInjector::ArmEveryNth(const std::string& point, int n) {
  std::lock_guard<std::mutex> lock(mu_);
  PointState& state = points_[point];
  state.mode = PointState::Mode::kEveryNth;
  state.period = n < 1 ? 1 : n;
}

void FaultInjector::ArmLatency(const std::string& point, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  points_[point].latency_seconds = seconds < 0.0 ? 0.0 : seconds;
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.erase(point);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

bool FaultInjector::ShouldFail(const std::string& point,
                               bool inject_latency) {
  bool fail = false;
  double latency = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PointState& state = points_[point];
    ++state.hits;
    if (inject_latency) latency = state.latency_seconds;
    switch (state.mode) {
      case PointState::Mode::kNone:
        break;
      case PointState::Mode::kOneShot:
        fail = state.remaining > 0 && --state.remaining == 0;
        break;
      case PointState::Mode::kProbabilistic: {
        // splitmix64 — deterministic per-point stream.
        uint64_t z = (state.rng_state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        z ^= z >> 31;
        const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
        fail = u < state.probability;
        break;
      }
      case PointState::Mode::kEveryNth:
        fail = state.hits % state.period == 0;
        break;
    }
  }
  // Sleep outside the lock: a slow point must not serialize every
  // other thread's fault-point checks behind it.
  if (latency > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(latency));
  }
  return fail;
}

int FaultInjector::HitCount(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

const std::vector<std::string>& AtomicFileWriter::FaultPoints() {
  static const std::vector<std::string>* points = new std::vector<std::string>{
      kFaultOpen, kFaultWrite, kFaultFlush, kFaultRename};
  return *points;
}

AtomicFileWriter::AtomicFileWriter(std::string path) : path_(std::move(path)) {
  // Unique per writer: concurrent saves to one destination each get a
  // private scratch file instead of truncating each other's.
  static std::atomic<uint64_t> next_seq{0};
  tmp_path_ = path_ + ".tmp." + std::to_string(::getpid()) + "." +
              std::to_string(next_seq.fetch_add(1));
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) Abort();
}

Status AtomicFileWriter::Open() {
  if (FaultInjector::Instance().ShouldFail(kFaultOpen)) {
    return Status::Internal("fault injected at " + std::string(kFaultOpen) +
                            ": " + tmp_path_);
  }
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal("cannot open for write: " + tmp_path_);
  }
  return Status::OK();
}

Status AtomicFileWriter::Write(const void* data, size_t len) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("writer not open: " + path_);
  }
  if (FaultInjector::Instance().ShouldFail(kFaultWrite)) {
    Abort();
    return Status::Internal("fault injected at " + std::string(kFaultWrite) +
                            ": " + tmp_path_);
  }
  if (len > 0 && std::fwrite(data, 1, len, file_) != len) {
    Abort();
    return Status::Internal("write failed: " + tmp_path_);
  }
  crc_ = Crc32(data, len, crc_);
  bytes_ += len;
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("writer not open: " + path_);
  }
  if (FaultInjector::Instance().ShouldFail(kFaultFlush)) {
    Abort();
    return Status::Internal("fault injected at " + std::string(kFaultFlush) +
                            ": " + tmp_path_);
  }
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    Abort();
    return Status::Internal("flush failed: " + tmp_path_);
  }
  std::fclose(file_);
  file_ = nullptr;
  if (FaultInjector::Instance().ShouldFail(kFaultRename)) {
    std::remove(tmp_path_.c_str());
    return Status::Internal("fault injected at " + std::string(kFaultRename) +
                            ": " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::Internal("rename failed: " + tmp_path_ + " -> " + path_);
  }
  committed_ = true;
  return Status::OK();
}

void AtomicFileWriter::Abort() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!committed_) std::remove(tmp_path_.c_str());
}

bool BufferReader::ReadBytes(void* out, size_t len) {
  if (len > remaining()) return false;
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return true;
}

}  // namespace ba::util
