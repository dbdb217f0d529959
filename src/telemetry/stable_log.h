// Epoch-published columnar day segment: the concurrently-readable sibling
// of BandwidthLog (DESIGN.md §14). A resident (shard, day) segment must be
// readable by snapshot queries WHILE ingest keeps appending to it; the
// vector-backed BandwidthLog cannot do that (a push_back can reallocate a
// column under a concurrent reader), so day slabs store their rows here:
// three EpochTable columns whose chunks never move, plus one atomic row
// count published with release order after all three column writes of a
// row. A reader that captured `rows() == n` can read rows [0, n) lock-free
// for the segment's lifetime — that captured count IS the ReadView's
// per-slab high-water mark.
//
// Each chunk also carries the minimum and maximum timestamp of its rows.
// The single writer widens them before it publishes the rows they cover,
// so a reader's bounds always cover every row it can read, and a windowed
// read skips every chunk whose range misses the window — it scans the
// chunks it needs, not the day. A row that arrives out of order only
// widens its chunk's bounds.
//
// Writers (ingest) stay serialized by the owning shard's mutex, exactly as
// they were for the vector segment; this class adds no writer-side lock.
// Seal-time consumers (batch coarsening, spill serialization) materialize
// a BandwidthLog copy — one copy per (shard, day) per retention pass, off
// the hot path.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <span>

#include "telemetry/bandwidth_log.h"
#include "util/epoch_table.h"
#include "util/interner.h"
#include "util/sim_time.h"

namespace smn::telemetry {

class StableLog {
 public:
  /// All three columns share `chunk_rows`, so their chunk boundaries align
  /// and a row's fields always live at the same chunk-relative offset.
  explicit StableLog(std::size_t chunk_rows = kFineChunkRows)
      : timestamps_(chunk_rows), pairs_(chunk_rows), bw_(chunk_rows) {}

  /// Appends one row. Writer side: callers serialize appends behind the
  /// owning shard's mutex (the EpochTable writer contract).
  void append(util::SimTime timestamp, util::PairId pair, double bw_gbps) {
    const std::size_t n = rows_.load(std::memory_order_relaxed);
    widen_bounds(n, timestamp, timestamp);
    timestamps_.stage(0, timestamp);
    pairs_.stage(0, pair);
    bw_.stage(0, bw_gbps);
    timestamps_.publish(1);
    pairs_.publish(1);
    bw_.publish(1);
    rows_.store(n + 1, std::memory_order_release);
  }

  /// Bulk column append; publishes the row count once at the end, so a
  /// concurrent reader sees the whole batch or none of its tail.
  void append_columns(std::span<const util::SimTime> timestamps,
                      std::span<const util::PairId> pairs, std::span<const double> bw_gbps);

  /// Published row count — the reader's epoch. Rows below a captured value
  /// are readable lock-free on the capturing thread.
  std::size_t rows() const noexcept { return rows_.load(std::memory_order_acquire); }

  bool empty() const noexcept { return rows() == 0; }

  /// Appends every row of [0, limit) whose timestamp falls in [begin, end)
  /// onto `out`, preserving row order — the snapshot read primitive. Only
  /// chunks whose time bounds overlap the window are scanned. `limit` must
  /// be a rows() value this thread has observed. Returns the rows scanned.
  std::size_t emit_time_filtered(BandwidthLog* out, std::size_t limit, util::SimTime begin,
                                 util::SimTime end) const;

  /// Copies rows [0, limit) into a plain BandwidthLog (seal-time paths:
  /// batch coarsening and spill serialization need contiguous columns).
  BandwidthLog materialize(std::size_t limit) const;

  /// Timestamp of row `i` (same reader contract as emit_time_filtered).
  util::SimTime timestamp_at(std::size_t i) const { return timestamps_[i]; }

  /// In-memory footprint of published rows (20 B/row, matching
  /// BandwidthLog::memory_bytes).
  std::size_t memory_bytes() const noexcept {
    return rows() * (sizeof(util::SimTime) + sizeof(util::PairId) + sizeof(double));
  }

 private:
  /// Time range of one chunk's rows; empty (min > max) until its first row.
  struct ChunkBounds {
    std::atomic<util::SimTime> min{std::numeric_limits<util::SimTime>::max()};
    std::atomic<util::SimTime> max{std::numeric_limits<util::SimTime>::min()};
  };

  /// Writer side: widens the bounds of the chunk holding row `row` to
  /// cover [lo, hi]. Relaxed stores: the release store of rows_ that
  /// publishes the row orders them before any reader's bounds load.
  void widen_bounds(std::size_t row, util::SimTime lo, util::SimTime hi) {
    if (row >= open_chunk_end_) open_chunk(row);
    if (lo < open_bounds_->min.load(std::memory_order_relaxed)) {
      open_bounds_->min.store(lo, std::memory_order_relaxed);
    }
    if (hi > open_bounds_->max.load(std::memory_order_relaxed)) {
      open_bounds_->max.store(hi, std::memory_order_relaxed);
    }
  }

  /// Writer side: publishes the bounds entry of the chunk holding `row`
  /// (the next chunk) and makes it the one widen_bounds() writes.
  void open_chunk(std::size_t row);

  util::EpochTable<util::SimTime> timestamps_;
  util::EpochTable<util::PairId> pairs_;
  util::EpochTable<double> bw_;
  /// [chunk] -> time bounds of that chunk's rows (one entry per chunk of
  /// the columns, published when the chunk's first row is staged).
  util::EpochTable<ChunkBounds> bounds_{64};
  /// Writer-only: bounds of the chunk rows are appended to, and the row
  /// index where that chunk ends.
  ChunkBounds* open_bounds_ = nullptr;
  std::size_t open_chunk_end_ = 0;
  /// Published row count. Stored with release AFTER the three column
  /// writes of every covered row; readers acquire it and then read the
  /// columns with no further synchronization.
  std::atomic<std::size_t> rows_{0};
};

}  // namespace smn::telemetry
