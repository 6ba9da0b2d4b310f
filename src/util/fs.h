#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/status.h"

/// \file fs.h
/// \brief Crash-safe file persistence: atomic writes, the sealed
/// container every on-disk format shares, bounds-checked parsing and a
/// test-only fault injector.
///
/// Every artifact this project releases (checkpoints, serve caches,
/// ledger CSVs, label CSVs) is written through `AtomicFileWriter`:
/// content goes to a private temporary, is flushed and fsync'd, and only
/// then renamed over the destination. A reader therefore sees either
/// the complete old file or the complete new file — never a torn write.
///
/// Each artifact is also *sealed* with a CRC32 of every preceding byte,
/// so a bit-flip or a truncation fails loudly instead of loading
/// silently. The binary formats (BATN, BACK, BACL, BASV) share one
/// layout, `magic[4] | u32 version | body | u32 crc32`, written by
/// `SealedFileWriter` (or `SealImage` in memory) and checked by
/// `OpenSealed`. The text formats end in one `# crc32,<8-hex>` line,
/// written by `AppendCrcTrailerLine` and checked by `SealedLineReader`.
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
/// Production code calls `ShouldFail(point)` at each fault point. The
/// call is not free even when nothing is armed: it builds a
/// `std::string` from the point name (a heap allocation past 15
/// characters, e.g. `serve.batch.lookup`), takes the process-wide
/// injector mutex and bumps the point's hit counter in a map. On a
/// 4-vCPU Xeon a loop of calls on an unarmed 18-character point read
/// about 45-70 ns per call on one thread and 650-720 ns on each of
/// three, so concurrent callers serialize on the mutex. Four arming
/// modes:
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
/// The writer maintains a running CRC32 of every byte written, which
/// the sealed formats close with (`SealedFileWriter` for binary files,
/// `AppendCrcTrailerLine` for text):
/// \code
///   AtomicFileWriter w(path);
///   BA_RETURN_NOT_OK(w.Open());
///   BA_RETURN_NOT_OK(w.Append("address,label\n"));
///   BA_RETURN_NOT_OK(w.Append(rows));
///   BA_RETURN_NOT_OK(AppendCrcTrailerLine(&w));  // CRC of every line above
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

/// \brief Appends the bytes of a trivially-copyable value to `out`: the
/// write side of `BufferReader::ReadPod`.
template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

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

  /// True when `count` items of at least `min_item_bytes` each could
  /// still fit in the remaining bytes. Loaders check every count read
  /// from disk with it before allocating for that many items.
  bool CanHold(uint64_t count, size_t min_item_bytes) const {
    return count <= remaining() / min_item_bytes;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief Identity of one sealed binary format. The file is
/// `magic[4] | u32 version | body | u32 crc32`, the CRC32 over every
/// preceding byte. Load errors name the format as "<magic> <kind>",
/// e.g. "BATN checkpoint".
struct SealedFormat {
  char magic[4];
  uint32_t version;
  const char* kind;

  std::string Name() const { return std::string(magic, 4) + " " + kind; }
};

/// \brief Writer half of the sealed container. `Open()` writes magic
/// and version; the caller streams the body field by field; `Commit()`
/// appends the CRC32 of every preceding byte and renames the file into
/// place atomically. Every write passes the `AtomicFileWriter` fault
/// points.
class SealedFileWriter {
 public:
  SealedFileWriter(std::string path, const SealedFormat& format)
      : out_(std::move(path)), format_(format) {}

  Status Open();
  Status Append(const std::string& s) { return out_.Append(s); }
  template <typename T>
  Status WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return out_.Write(&value, sizeof(T));
  }
  Status Commit();

 private:
  AtomicFileWriter out_;
  SealedFormat format_;
};

/// \brief The in-memory form of the writer half: the sealed image of
/// `body`, byte for byte what a `SealedFileWriter` writes for it.
std::string SealImage(const SealedFormat& format, const std::string& body);

/// \brief A verified sealed body: a reader over the bytes between the
/// version and the CRC32 trailer. Errors raised while parsing it name
/// the format and the path, like those of `OpenSealed`.
class SealedBody : public BufferReader {
 public:
  SealedBody(const char* data, size_t size, const SealedFormat& format,
             std::string path)
      : BufferReader(data, size), name_(format.Name()), path_(std::move(path)) {}

  /// InvalidArgument "<why>: <magic> <kind> <path>".
  Status Corrupt(const std::string& why) const;

  /// OK once the whole body was read, else a "trailing garbage" error.
  Status ExpectEnd() const;

 private:
  std::string name_;
  std::string path_;
};

/// \brief Reader half of the sealed container: checks magic, version,
/// trailer presence and CRC32 of `image` (the content of `path`, or an
/// image embedded in another file) and returns a reader over its body.
/// Every failure is InvalidArgument naming the format and `path`.
/// `image` must outlive the returned body.
Result<SealedBody> OpenSealed(const std::string& image,
                              const SealedFormat& format,
                              const std::string& path);

/// \brief Closes a sealed text file: appends the line
/// `# crc32,<8-hex>\n` holding the CRC32 of every byte written so far.
Status AppendCrcTrailerLine(AtomicFileWriter* out);

/// \brief Line reader for sealed text files: keeps the CRC32 of every
/// line before the `# crc32,` trailer line and verifies it there.
/// \code
///   SealedLineReader in;
///   BA_RETURN_NOT_OK(in.Open(path));
///   while (in.Next(&line)) { ... in.LineError("bad record") ... }
///   BA_RETURN_NOT_OK(in.Finish());
/// \endcode
/// `Next` returns false at the end of the file or at the first error:
/// a CRC mismatch on the trailer or a line after it. `Finish` then
/// reports that error, or a truncated file when no trailer was seen.
/// Errors start with "line N:" and end with the path.
class SealedLineReader {
 public:
  /// NotFound when `path` cannot be opened.
  Status Open(const std::string& path);

  /// Reads the next line above the trailer into `line` (no '\n').
  bool Next(std::string* line);

  /// OK only if the verified trailer was the last line of the file.
  Status Finish() const;

  /// InvalidArgument "line <N>: <why>: <path>", N being the number of
  /// the line `Next` returned last.
  Status LineError(const std::string& why) const;

 private:
  std::ifstream in_;
  std::string path_;
  uint32_t crc_ = 0;
  int line_no_ = 0;
  bool saw_trailer_ = false;
  Status error_;
};

}  // namespace ba::util
