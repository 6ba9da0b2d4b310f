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

constexpr char kCrcTrailerPrefix[] = "# crc32,";

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

std::string SealHeader(const SealedFormat& format) {
  std::string header(format.magic, sizeof(format.magic));
  AppendPod(&header, format.version);
  return header;
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
  if (len == 0) return true;  // `out` may be null (an empty tensor)
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return true;
}

Status SealedFileWriter::Open() {
  BA_RETURN_NOT_OK(out_.Open());
  return out_.Append(SealHeader(format_));
}

Status SealedFileWriter::Commit() {
  const uint32_t crc = out_.crc();
  BA_RETURN_NOT_OK(out_.Write(&crc, sizeof(crc)));
  return out_.Commit();
}

std::string SealImage(const SealedFormat& format, const std::string& body) {
  std::string image = SealHeader(format);
  image += body;
  AppendPod(&image, Crc32(image));
  return image;
}

Status SealedBody::Corrupt(const std::string& why) const {
  return Status::InvalidArgument(why + ": " + name_ + " " + path_);
}

Status SealedBody::ExpectEnd() const {
  if (remaining() == 0) return Status::OK();
  return Corrupt("trailing garbage (" + std::to_string(remaining()) +
                 " bytes) after the body");
}

Result<SealedBody> OpenSealed(const std::string& image,
                              const SealedFormat& format,
                              const std::string& path) {
  SealedBody header(image.data(), image.size(), format, path);
  char magic[sizeof(format.magic)];
  if (!header.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, format.magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a " + format.Name() + ": " + path);
  }
  uint32_t version = 0;
  if (!header.ReadPod(&version)) {
    return header.Corrupt("truncated header (no version)");
  }
  if (version != format.version) {
    return header.Corrupt("unsupported " + std::string(format.kind) +
                          " version " + std::to_string(version) +
                          " (expected " + std::to_string(format.version) +
                          ")");
  }
  if (header.remaining() < sizeof(uint32_t)) {
    return header.Corrupt("truncated file (no crc32 trailer)");
  }
  const size_t body_end = image.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, image.data() + body_end, sizeof(stored));
  const uint32_t computed = Crc32(image.data(), body_end);
  if (stored != computed) {
    return header.Corrupt("crc32 mismatch (stored " + std::to_string(stored) +
                          ", computed " + std::to_string(computed) + ")");
  }
  return SealedBody(image.data() + header.position(),
                    body_end - header.position(), format, path);
}

Status AppendCrcTrailerLine(AtomicFileWriter* out) {
  return out->Append(kCrcTrailerPrefix + CrcHex(out->crc()) + "\n");
}

Status SealedLineReader::Open(const std::string& path) {
  path_ = path;
  in_.open(path);
  if (!in_) return Status::NotFound("cannot open: " + path);
  return Status::OK();
}

bool SealedLineReader::Next(std::string* line) {
  if (!error_.ok()) return false;
  while (std::getline(in_, *line)) {
    ++line_no_;
    if (saw_trailer_) {
      error_ = LineError("content after crc32 trailer");
      return false;
    }
    if (line->rfind(kCrcTrailerPrefix, 0) != 0) {
      // The CRC covers each line exactly as written, '\n' included.
      crc_ = Crc32(line->data(), line->size(), crc_);
      crc_ = Crc32("\n", 1, crc_);
      return true;
    }
    const std::string stored = line->substr(sizeof(kCrcTrailerPrefix) - 1);
    const std::string computed = CrcHex(crc_);
    if (stored != computed) {
      error_ = LineError("crc32 mismatch over lines 1-" +
                         std::to_string(line_no_ - 1) + " (stored " + stored +
                         ", computed " + computed + "): file corrupted");
      return false;
    }
    saw_trailer_ = true;
  }
  return false;
}

Status SealedLineReader::Finish() const {
  if (!error_.ok()) return error_;
  if (!saw_trailer_) {
    return LineError("truncated file (missing crc32 trailer)");
  }
  return Status::OK();
}

Status SealedLineReader::LineError(const std::string& why) const {
  return Status::InvalidArgument("line " + std::to_string(line_no_) + ": " +
                                 why + ": " + path_);
}

}  // namespace ba::util
