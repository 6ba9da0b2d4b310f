#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/status.h"

/// \file fs.h
/// \brief Crash-safe file persistence: atomic writes, CRC32 integrity,
/// bounds-checked parsing and a test-only fault injector.
///
/// Every artifact this project releases (checkpoints, ledger CSVs,
/// label CSVs) is written through `AtomicFileWriter`: content goes to
/// `<path>.tmp`, is flushed and fsync'd, and only then renamed over the
/// destination. A reader therefore sees either the complete old file or
/// the complete new file — never a torn write. Writers accumulate a
/// CRC32 of everything written so formats can append an integrity
/// trailer, and readers re-verify it so a bit-flip fails loudly instead
/// of loading silently.
///
/// `FaultInjector` lets tests kill a save at any registered fault point
/// (`fs.open`, `fs.write`, `fs.flush`, `fs.rename`), proving the
/// previous artifact survives every mid-flight failure.

namespace ba::util {

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of
/// `len` bytes, continuing from `seed` (0 for a fresh checksum).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// \brief Crc32 over a string's bytes.
inline uint32_t Crc32(const std::string& s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

/// \brief Reads a whole file into memory. NotFound when it cannot be
/// opened, Internal on read errors.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief True when `path` exists (any file type).
bool FileExists(const std::string& path);

/// \brief Test-only fault injection at named persistence and serving
/// fault points.
///
/// Production code calls `ShouldFail(point)` at each fault point; the
/// call is a cheap counter bump unless a test armed the point. Four
/// arming modes:
///
///  * `Arm(point, nth)`           — the nth upcoming hit fails, once
///                                  (1 = the very next), so a test can
///                                  step a multi-write save and kill it
///                                  at any byte boundary.
///  * `ArmProbabilistic(point,p)` — every hit fails independently with
///                                  probability p, from a deterministic
///                                  per-point stream (chaos suites).
///  * `ArmEveryNth(point, n)`     — every nth hit fails, periodically.
///  * `ArmLatency(point, secs)`   — every hit sleeps `secs` before
///                                  returning its verdict. Composes
///                                  with any failure mode armed on the
///                                  same point (slow-then-fail).
///
/// The injector is a process-wide singleton safe for concurrent
/// arming, firing and querying from any number of threads (the chaos
/// harness hammers it from sealer, client and saver threads at once);
/// injected latency is slept outside the injector lock so concurrent
/// hits of a slow point do not serialize. Tests must `DisarmAll()`
/// when done.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Arms `point` so its `nth` upcoming hit reports failure (once).
  void Arm(const std::string& point, int nth = 1);

  /// Arms `point` so every upcoming hit fails independently with
  /// probability `p` in [0, 1], drawn from a deterministic stream
  /// seeded by `seed`.
  void ArmProbabilistic(const std::string& point, double p,
                        uint64_t seed = 1);

  /// Arms `point` so every `n`-th hit fails (the n-th, 2n-th, ...).
  void ArmEveryNth(const std::string& point, int n);

  /// Injects `seconds` of latency into every upcoming hit of `point`.
  /// Keeps whatever failure mode is armed; pass 0 to remove latency.
  void ArmLatency(const std::string& point, double seconds);

  /// Clears the failure mode, latency and hit counter of one point.
  void Disarm(const std::string& point);

  /// Clears every armed fault and hit counter.
  void DisarmAll();

  /// True when this hit of `point` must fail; a one-shot fault is
  /// consumed, probabilistic and every-nth faults keep firing. With
  /// `inject_latency` false an armed latency is not slept: fault points
  /// on a thread that must never block (one submitting work from an
  /// event loop) still count the hit and report the verdict.
  bool ShouldFail(const std::string& point, bool inject_latency = true);

  /// Number of times `point` was hit since the last Disarm/DisarmAll.
  int HitCount(const std::string& point) const;

 private:
  FaultInjector() = default;

  struct PointState {
    enum class Mode { kNone, kOneShot, kProbabilistic, kEveryNth };
    Mode mode = Mode::kNone;
    int remaining = 0;       ///< one-shot: hits until failure
    double probability = 0.0;
    uint64_t rng_state = 0;  ///< splitmix64 stream (probabilistic)
    int period = 0;          ///< every-nth period
    double latency_seconds = 0.0;
    int hits = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, PointState> points_;
};

/// \brief Writes a file atomically: content goes to a uniquely named
/// temporary (`<path>.tmp.<pid>.<seq>`), and `Commit()` flushes,
/// fsyncs and renames it over `path`. If the writer is destroyed (or
/// any step fails) before Commit succeeds, the destination is
/// untouched and the temporary is removed — a failed or abandoned
/// write never litters the directory.
///
/// The unique suffix makes concurrent writers to one destination safe:
/// each owns a private scratch file and the last successful Commit
/// wins the rename. (With a shared `<path>.tmp`, one writer's Open
/// would truncate another's half-written scratch and a racing Commit
/// could rename torn bytes into place.)
///
/// The writer maintains a running CRC32 of every byte written, so
/// formats can close with an integrity trailer:
/// \code
///   AtomicFileWriter w(path);
///   BA_RETURN_NOT_OK(w.Open());
///   BA_RETURN_NOT_OK(w.Append(body));
///   const uint32_t crc = w.crc();           // CRC of the body only
///   BA_RETURN_NOT_OK(w.Write(&crc, sizeof(crc)));
///   return w.Commit();
/// \endcode
class AtomicFileWriter {
 public:
  /// Names of the fault points this writer passes through, in order.
  static constexpr const char* kFaultOpen = "fs.open";
  static constexpr const char* kFaultWrite = "fs.write";
  static constexpr const char* kFaultFlush = "fs.flush";
  static constexpr const char* kFaultRename = "fs.rename";

  /// Every registered fault point — tests iterate this list to kill a
  /// save at each stage.
  static const std::vector<std::string>& FaultPoints();

  explicit AtomicFileWriter(std::string path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Creates the temporary file. Must be called (successfully) before
  /// Write/Append/Commit.
  Status Open();

  /// Appends `len` raw bytes, updating the running CRC.
  Status Write(const void* data, size_t len);

  /// Appends a string's bytes.
  Status Append(const std::string& s) { return Write(s.data(), s.size()); }

  /// Flushes, fsyncs and atomically renames the temporary over the
  /// destination. After OK the writer is closed and the file durable.
  Status Commit();

  /// Discards the temporary; the destination stays untouched.
  void Abort();

  /// CRC32 of every byte written so far.
  uint32_t crc() const { return crc_; }

  /// Bytes written so far.
  uint64_t bytes_written() const { return bytes_; }

  const std::string& path() const { return path_; }
  const std::string& tmp_path() const { return tmp_path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  uint32_t crc_ = 0;
  uint64_t bytes_ = 0;
  bool committed_ = false;
};

/// \brief Bounds-checked cursor over an in-memory buffer — the load
/// side of the durability layer. Every read checks remaining bytes, so
/// a truncated or corrupted header can never drive an out-of-bounds
/// read or an absurd allocation.
class BufferReader {
 public:
  BufferReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::string& buf)
      : BufferReader(buf.data(), buf.size()) {}

  /// Reads a trivially-copyable value; false when not enough bytes.
  template <typename T>
  bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  /// Copies `len` raw bytes; false when not enough remain.
  bool ReadBytes(void* out, size_t len);

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  /// Shrinks the readable window (e.g. to exclude a CRC trailer).
  void Truncate(size_t new_size) {
    if (new_size < size_) size_ = new_size;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace ba::util
