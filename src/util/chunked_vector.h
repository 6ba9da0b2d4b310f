#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "util/logging.h"

/// \file chunked_vector.h
/// \brief Append-only, reallocation-stable storage with lock-free reads.
///
/// `std::vector` invalidates every reference on growth, which makes it
/// unusable as the backing store for data served to concurrent readers
/// while a writer appends (the `chain::Ledger` snapshot model). A
/// ChunkedVector instead allocates geometrically growing chunks that
/// are never moved or freed before destruction:
///
///  * an element, once published, has a stable address for the life of
///    the container;
///  * `push_back`/`Append` never touch previously published elements;
///  * `size()` is an acquire load and publication is a release store,
///    so a reader that observes `size() == n` also observes the fully
///    written contents of elements `[0, n)`.
///
/// Chunk storage is allocated uninitialized and each element is
/// constructed only when it is published. A new chunk is as large as
/// all the chunks before it together, so constructing it whole would
/// touch (and keep resident) that much memory the moment the container
/// crosses a power of two; constructing on publish costs only the pages
/// the published elements occupy. It also lets `push_back` store types
/// without a default constructor.
///
/// Concurrency contract: any number of reader threads may call the
/// const interface (`size`, `operator[]`) concurrently with ONE writer
/// thread calling the mutating interface. Multiple concurrent writers,
/// or any access concurrent with move construction/assignment or
/// destruction, is a data race.

namespace ba::util {

template <typename T>
class ChunkedVector {
 public:
  /// Elements in chunk 0; chunk `c` holds `kFirstChunkElems << c`
  /// elements, so 32 chunks cover ~3.4e10 elements. The directory is
  /// part of every instance — the ledger keeps one instance per address
  /// — so it is sized for any reachable ledger, not for size_t. The
  /// first chunk is small for the same reason: most addresses touch a
  /// few transactions, and a 64-entry first chunk held ~0.5 KiB per
  /// address, mostly empty (5.8 MB of bench_profile's 13.8k-address
  /// chain).
  static constexpr size_t kFirstChunkElems = 8;
  static constexpr int kMaxChunks = 32;

  ChunkedVector() = default;

  ~ChunkedVector() { Free(); }

  ChunkedVector(const ChunkedVector&) = delete;
  ChunkedVector& operator=(const ChunkedVector&) = delete;

  /// Moves steal the chunk pointers; neither side may have concurrent
  /// readers or writers during the move.
  ChunkedVector(ChunkedVector&& other) noexcept { StealFrom(&other); }

  ChunkedVector& operator=(ChunkedVector&& other) noexcept {
    if (this != &other) {
      Free();
      StealFrom(&other);
    }
    return *this;
  }

  /// Published element count (acquire: pairs with the release store in
  /// `push_back`/`Append`, making elements `[0, size())` visible).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  bool empty() const { return size() == 0; }

  /// The element at `i`, which must be `< size()` as previously
  /// observed by this thread. Safe concurrently with the writer.
  const T& operator[](size_t i) const {
    size_t offset = 0;
    const int c = ChunkOf(i, &offset);
    return chunks_[static_cast<size_t>(c)].load(
        std::memory_order_acquire)[offset];
  }

  /// Writer-side mutable access to a published element. The writer must
  /// not mutate elements readers may be looking at; intended for
  /// elements that are themselves internally synchronized (e.g. a
  /// ChunkedVector of ChunkedVectors).
  T& MutableAt(size_t i) {
    size_t offset = 0;
    const int c = ChunkOf(i, &offset);
    return chunks_[static_cast<size_t>(c)].load(
        std::memory_order_relaxed)[offset];
  }

  const T& back() const { return (*this)[size() - 1]; }

  /// Appends a copy/move of `value` (writer thread only).
  void push_back(T value) {
    new (NextSlot()) T(std::move(value));
    Publish();
  }

  /// Publishes one default-constructed element and returns it (writer
  /// thread only). The element is visible to readers immediately, so
  /// only types that are internally synchronized (or never read before
  /// some later publication point) should be filled in afterwards.
  T& Append() {
    T* slot = new (NextSlot()) T();
    Publish();
    return *slot;
  }

 private:
  static size_t ChunkElems(int c) { return kFirstChunkElems << c; }

  /// Chunk index of element `i`; writes the offset within the chunk.
  static int ChunkOf(size_t i, size_t* offset) {
    const size_t j = i / kFirstChunkElems + 1;
    const int c = std::bit_width(j) - 1;
    *offset = i - kFirstChunkElems * ((size_t{1} << c) - 1);
    return c;
  }

  /// Uninitialized storage for the next element, allocating its chunk
  /// on first use.
  void* NextSlot() {
    const size_t i = size_.load(std::memory_order_relaxed);
    size_t offset = 0;
    const int c = ChunkOf(i, &offset);
    BA_CHECK_LT(c, kMaxChunks);
    T* chunk = chunks_[static_cast<size_t>(c)].load(
        std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = std::allocator<T>().allocate(ChunkElems(c));
      chunks_[static_cast<size_t>(c)].store(chunk,
                                            std::memory_order_release);
    }
    return chunk + offset;
  }

  void Publish() {
    size_.store(size_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Destroys the published elements — exactly the constructed ones —
  /// and releases every chunk.
  void Free() {
    const size_t n = size_.load(std::memory_order_relaxed);
    size_t first = 0;  // index of chunk c's first element
    for (int c = 0; c < kMaxChunks; ++c) {
      T* chunk = chunks_[static_cast<size_t>(c)].load(
          std::memory_order_relaxed);
      const size_t capacity = ChunkElems(c);
      if (chunk != nullptr) {
        if (first < n) std::destroy_n(chunk, std::min(capacity, n - first));
        std::allocator<T>().deallocate(chunk, capacity);
        chunks_[static_cast<size_t>(c)].store(nullptr,
                                              std::memory_order_relaxed);
      }
      first += capacity;
    }
    size_.store(0, std::memory_order_relaxed);
  }

  void StealFrom(ChunkedVector* other) {
    for (int c = 0; c < kMaxChunks; ++c) {
      chunks_[static_cast<size_t>(c)].store(
          other->chunks_[static_cast<size_t>(c)].load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
      other->chunks_[static_cast<size_t>(c)].store(
          nullptr, std::memory_order_relaxed);
    }
    size_.store(other->size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    other->size_.store(0, std::memory_order_relaxed);
  }

  std::array<std::atomic<T*>, kMaxChunks> chunks_{};
  std::atomic<size_t> size_{0};
};

}  // namespace ba::util
