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
// Writers (ingest) stay serialized by the owning shard's mutex, exactly as
// they were for the vector segment; this class adds no writer-side lock.
// Seal-time consumers (batch coarsening, spill serialization) materialize
// a BandwidthLog copy — one copy per (shard, day) per retention pass, off
// the hot path.
#pragma once

#include <atomic>
#include <cstddef>
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
  explicit StableLog(std::size_t chunk_rows = 4096)
      : timestamps_(chunk_rows), pairs_(chunk_rows), bw_(chunk_rows) {}

  /// Appends one row. Writer side: callers serialize appends behind the
  /// owning shard's mutex (the EpochTable writer contract).
  void append(util::SimTime timestamp, util::PairId pair, double bw_gbps) {
    const std::size_t n = rows_.load(std::memory_order_relaxed);
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
  /// onto `out`, preserving row order — the snapshot read primitive.
  /// `limit` must be a rows() value this thread has observed.
  void emit_time_filtered(BandwidthLog* out, std::size_t limit, util::SimTime begin,
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
  util::EpochTable<util::SimTime> timestamps_;
  util::EpochTable<util::PairId> pairs_;
  util::EpochTable<double> bw_;
  /// Published row count. Stored with release AFTER the three column
  /// writes of every covered row; readers acquire it and then read the
  /// columns with no further synchronization.
  std::atomic<std::size_t> rows_{0};
};

}  // namespace smn::telemetry
