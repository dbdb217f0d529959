// On-disk format of one sealed (shard, day) fine segment — the cold tier
// of the BandwidthLogStore (DESIGN.md §10). One file holds the three
// columns of one day segment verbatim, so the rows read back are the
// exact bytes the resident segment held. The columns are cut into blocks
// of kSpillBlockRows rows; a block table records each block's time range
// and checksum, so a windowed read fetches and verifies only the blocks
// its window overlaps.
//
//   header (80 bytes, little-endian):
//     magic           u64   0x32'4C'49'50'53'4E'4D'53 ("SMNSPIL2")
//     version         u32   2
//     block_rows      u32   rows per block (the last block may be short)
//     record_count    u64
//     day             i64   day-segment start (SimTime seconds)
//     block_count     u64   ceil(record_count / block_rows)
//     off_blocks      u64   byte offset of the block table (= 80)
//     off_timestamps  u64   byte offset of the SimTime column
//     off_bandwidths  u64   byte offset of the double column
//     off_pairs       u64   byte offset of the PairId column
//     checksum        u64   FNV-1a 64 over header bytes [0, 72) and then
//                           the whole block table
//   block table: block_count entries of 24 bytes —
//     min_timestamp   i64   smallest timestamp of the block's rows
//     max_timestamp   i64   largest timestamp of the block's rows
//     checksum        u64   FNV-1a 64 over the block's byte ranges of the
//                           three columns, in (timestamps, bandwidths,
//                           pairs) order
//   columns: SimTime[n], double[n], PairId[n] — each 8-byte aligned, in
//   header order.
//
// Reads use pread(2) on a descriptor held by the SpilledSegment: no
// mapping is ever made, so a read takes no address-space lock and causes
// no TLB shootdown, whatever other threads of the process are doing.
// What is read and verified when: open() reads the header and the block
// table and checks the structure (magic, version, offsets against record
// count and file size) and the header checksum, so the block table it
// trusts is the one that was written. A windowed read
// (emit_time_filtered) then reads only the column ranges of the blocks
// its window overlaps and verifies each before using its rows; a block
// outside the window is neither read nor verified. verify() reads and
// checks every block — recovery and whole-file consumers use it. A file
// of any other version (the unblocked v1 "SMNSPIL1" included) is
// rejected as "unsupported version".
//
// Writes go through a `.tmp` sibling plus rename, so a crash mid-write
// never leaves a half-file behind under the spill directory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "util/interner.h"
#include "util/sim_time.h"

namespace smn::telemetry {

/// FNV-1a 64 offset basis — the seed for chained fnv1a() calls.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// FNV-1a 64 over `bytes`, folded into `hash` (chain ranges by passing the
/// previous result). Shared by the spill files and the federation
/// CoarseExport wire format, which reuses these header conventions.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes);

/// Rows per spill block: the StableLog chunk size, so a spilled day is cut
/// where its resident slab was.
inline constexpr std::size_t kSpillBlockRows = kFineChunkRows;

/// Serializes one day segment's columns to `path` (atomically, via
/// `path + ".tmp"` and rename). All three spans must have equal length.
/// Returns the file size in bytes. Throws std::runtime_error on I/O
/// failure.
std::size_t write_spill_file(const std::string& path, util::SimTime day,
                             std::span<const util::SimTime> timestamps,
                             std::span<const double> bandwidths,
                             std::span<const util::PairId> pairs);

/// One block-table entry, as stored (24 bytes).
struct SpillBlock {
  util::SimTime min_timestamp = 0;
  util::SimTime max_timestamp = 0;
  std::uint64_t checksum = 0;
};

/// Work done by one windowed read of a spilled segment.
struct SpillReadStats {
  std::size_t rows_scanned = 0;    ///< rows of the blocks the window overlaps
  std::size_t bytes_verified = 0;  ///< column bytes of the blocks checksummed
};

/// An open spill file: its header and block table in memory, its columns
/// read on demand with pread. Move-only; owns one file descriptor.
class SpilledSegment {
 public:
  /// Opens `path` and reads its header and block table: magic, version,
  /// offsets/size coherence and the header checksum over the header and
  /// block table; with `verify_checksum`, every block as well (verify()).
  /// Throws std::runtime_error on any mismatch or I/O failure — a corrupt
  /// spill file must never feed silent garbage into a fine_range() merge.
  static SpilledSegment open(const std::string& path, bool verify_checksum = true);

  SpilledSegment(SpilledSegment&& other) noexcept;
  SpilledSegment& operator=(SpilledSegment&& other) noexcept;
  SpilledSegment(const SpilledSegment&) = delete;
  SpilledSegment& operator=(const SpilledSegment&) = delete;
  ~SpilledSegment();

  /// Reads every block and verifies its checksum; throws
  /// std::runtime_error on the first mismatch. Returns the column bytes
  /// verified.
  std::size_t verify() const;

  /// Appends every row whose timestamp falls in [begin, end) onto `out`,
  /// in file order, reading only the blocks whose time range overlaps the
  /// window. With `verify`, each of those blocks is checksummed before its
  /// rows are used (throws std::runtime_error on a mismatch).
  SpillReadStats emit_time_filtered(BandwidthLog* out, util::SimTime begin, util::SimTime end,
                                    bool verify) const;

  std::size_t record_count() const noexcept { return records_; }
  util::SimTime day() const noexcept { return day_; }
  std::size_t file_bytes() const noexcept { return file_bytes_; }
  /// Bytes covered by the header checksum (header plus block table), all
  /// read and verified by open().
  std::size_t header_bytes() const noexcept { return header_bytes_; }

 private:
  SpilledSegment() = default;

  /// Reads the blocks `wanted` selects, in runs of consecutive blocks, and
  /// calls `fn(first_row, timestamps, bandwidths, pairs)` once per run;
  /// with `verify`, each block of a run is checksummed first. Returns the
  /// work done.
  template <typename Wanted, typename Fn>
  SpillReadStats read_blocks(const Wanted& wanted, bool verify, const Fn& fn) const;

  int fd_ = -1;
  std::string path_;  ///< for error messages
  std::size_t records_ = 0;
  std::size_t block_rows_ = 0;
  std::size_t file_bytes_ = 0;
  std::size_t header_bytes_ = 0;
  util::SimTime day_ = 0;
  std::size_t off_timestamps_ = 0;
  std::size_t off_bandwidths_ = 0;
  std::size_t off_pairs_ = 0;
  std::vector<SpillBlock> blocks_;
};

}  // namespace smn::telemetry
