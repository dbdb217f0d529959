// Append-only table with epoch-published size: the RCU-lite building block
// of the concurrent read path (DESIGN.md §14). One writer at a time (the
// caller serializes writers with its own mutex) appends elements; any
// number of readers concurrently access every element below the published
// size with no lock at all.
//
// Why this is cheap here: everything the telemetry spine stores is
// append-only — interned names, packed pair keys, day-segment columns,
// coarse summaries. Nothing is ever overwritten or erased, so the classic
// hard part of RCU (reclaiming replaced state under concurrent readers)
// almost vanishes. The only replaced state is the chunk *directory* when it
// grows, and retired directories are kept until the table is destroyed (a
// quiescent point by construction), so a reader holding an old directory
// can never dereference freed memory. Retired directories total less than
// the final directory's size (geometric growth), so the deferred
// reclamation is bounded and tiny — pointers, not payload.
//
// Memory-ordering protocol:
//   writer: construct element in its chunk slot (plain store)
//           -> publish chunk pointer / grown directory (release not needed
//              in isolation, but harmless)
//           -> size_.store(n + 1, release)
//   reader: n = size_.load(acquire)   // the epoch
//           -> any element below n, via the directory
// The release/acquire pair on size_ makes every write the writer performed
// before publishing visible to a reader that observed the new size,
// including the element bytes, the chunk-pointer store, and any directory
// growth — so readers need no per-element synchronization.
//
// Writers must be externally serialized (callers annotate their writer
// entry points with SMN_REQUIRES on the owning mutex); readers never block
// writers and writers never block readers.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/contracts.h"

namespace smn::util {

template <typename T>
class EpochTable {
 public:
  /// `chunk_size` fixes the granularity of stable storage; chunks never
  /// move once allocated, so references into them stay valid for the
  /// table's lifetime.
  explicit EpochTable(std::size_t chunk_size = 1024) : chunk_size_(chunk_size) {
    SMN_CHECK(chunk_size_ > 0, "EpochTable chunk size must be positive");
  }

  EpochTable(const EpochTable&) = delete;
  EpochTable& operator=(const EpochTable&) = delete;

  ~EpochTable() {
    const Directory* dir = dir_.load(std::memory_order_acquire);
    if (dir != nullptr) {
      for (std::size_t c = 0; c < chunk_count_; ++c) delete[] dir->chunks[c];
    }
    delete dir;
    for (const Directory* retired : retired_) delete retired;
  }

  /// Appends `value` and publishes it; returns its index. Writer side:
  /// callers serialize all push_back/emplace_back calls behind one mutex.
  std::size_t push_back(T value) {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    slot_for(n) = std::move(value);
    size_.store(n + 1, std::memory_order_release);
    return n;
  }

  /// Bulk append: places every element of `values`, publishing the size
  /// once at the end (readers see all of the batch or none of its tail).
  void append(std::span<const T> values) {
    std::size_t n = size_.load(std::memory_order_relaxed);
    for (const T& value : values) slot_for(n++) = value;
    size_.store(n, std::memory_order_release);
  }

  /// Writes `value` at index `size() + offset` WITHOUT publishing — for
  /// multi-column rows (telemetry::StableLog) where one shared row counter
  /// publishes several tables at once. Pair with publish().
  void stage(std::size_t offset, T value) {
    slot_for(size_.load(std::memory_order_relaxed) + offset) = std::move(value);
  }

  /// Writer-side reference to element `i` (at most the next unpublished
  /// index), allocating its chunk on first touch, with no store and no
  /// publish — for element types the writer updates in place through
  /// atomics (telemetry::StableLog's per-chunk time bounds). Publish new
  /// elements with publish().
  T& writer_slot(std::size_t i) { return slot_for(i); }

  /// Publishes `count` staged elements.
  void publish(std::size_t count) {
    size_.store(size_.load(std::memory_order_relaxed) + count, std::memory_order_release);
  }

  /// Published element count — the reader's epoch. Every index below the
  /// returned value is safe to read lock-free on the calling thread.
  std::size_t size() const noexcept { return size_.load(std::memory_order_acquire); }

  bool empty() const noexcept { return size() == 0; }

  /// Element `i`. Caller contract: `i` is below a size() value this thread
  /// has observed (readers), or below the staged write position (the
  /// writer). The reference stays valid for the table's lifetime.
  const T& operator[](std::size_t i) const noexcept {
    const Directory* dir = dir_.load(std::memory_order_acquire);
    return dir->chunks[i / chunk_size_][i % chunk_size_];
  }

  /// Contiguous spans covering [begin, end): calls `fn(offset, span)` for
  /// each chunk-aligned piece in order. The bounds must satisfy the same
  /// contract as operator[].
  template <typename Fn>
  void for_each_span(std::size_t begin, std::size_t end, Fn&& fn) const {
    const Directory* dir = dir_.load(std::memory_order_acquire);
    std::size_t i = begin;
    while (i < end) {
      const std::size_t chunk = i / chunk_size_;
      const std::size_t off = i % chunk_size_;
      const std::size_t len = std::min(chunk_size_ - off, end - i);
      fn(i, std::span<const T>(dir->chunks[chunk] + off, len));
      i += len;
    }
  }

  /// Contiguous span of `len` elements starting at `begin`. The range must
  /// not cross a chunk boundary (use for_each_span for arbitrary ranges) —
  /// this is the zipper for parallel same-chunk-size tables, where one
  /// table's for_each_span pieces index the others.
  std::span<const T> chunk_span(std::size_t begin, std::size_t len) const {
    SMN_DCHECK(begin / chunk_size_ == (begin + len - 1) / chunk_size_ || len == 0,
               "chunk_span range crosses a chunk boundary");
    const Directory* dir = dir_.load(std::memory_order_acquire);
    return {dir->chunks[begin / chunk_size_] + begin % chunk_size_, len};
  }

  std::size_t chunk_size() const noexcept { return chunk_size_; }

  /// Bytes of allocated chunk storage (capacity, not published count).
  std::size_t allocated_bytes() const noexcept { return chunk_count_ * chunk_size_ * sizeof(T); }

 private:
  /// Chunk-pointer directory. Grows by copying pointers into a twice-as-big
  /// array and publishing it; the old directory is retired, not freed, so
  /// concurrent readers holding it stay valid.
  struct Directory {
    std::size_t capacity = 0;                 ///< chunk-pointer slots
    std::unique_ptr<T*[]> chunks;
  };

  /// Writer-side slot accessor: allocates the chunk (and grows the
  /// directory) on first touch.
  T& slot_for(std::size_t i) {
    const std::size_t chunk = i / chunk_size_;
    if (chunk >= chunk_count_) grow_to(chunk);
    Directory* dir = dir_.load(std::memory_order_relaxed);
    return dir->chunks[chunk][i % chunk_size_];
  }

  void grow_to(std::size_t chunk) {
    Directory* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr || chunk >= dir->capacity) {
      const std::size_t capacity =
          std::max<std::size_t>(kInitialDirectory, dir == nullptr ? 0 : dir->capacity * 2);
      auto* grown = new Directory;
      grown->capacity = capacity;
      grown->chunks = std::make_unique<T*[]>(capacity);
      for (std::size_t c = 0; c < chunk_count_; ++c) grown->chunks[c] = dir->chunks[c];
      dir_.store(grown, std::memory_order_release);
      if (dir != nullptr) retired_.push_back(dir);  // reclaimed at destruction
      dir = grown;
    }
    SMN_DCHECK(chunk == chunk_count_, "chunks must be allocated densely in order");
    dir->chunks[chunk] = new T[chunk_size_];
    chunk_count_ = chunk + 1;
  }

  static constexpr std::size_t kInitialDirectory = 16;

  const std::size_t chunk_size_;
  std::atomic<std::size_t> size_{0};           ///< published count (the epoch)
  std::atomic<Directory*> dir_{nullptr};       ///< readers load-acquire
  /// Writer-only state (behind the caller's writer mutex).
  std::size_t chunk_count_ = 0;
  std::vector<const Directory*> retired_;
};

}  // namespace smn::util
