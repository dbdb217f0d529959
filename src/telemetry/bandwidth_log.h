// Bandwidth demand logs, Listing 1 of the paper:
//
//   # Format: ts, src_dc, dst_dc, bw_Gbps
//   2025-06-01T00:00, us-e1, eu-w1, 1250
//
// Each record is the demand between a datacenter pair in one five-minute
// window. These logs are the fine structure S of the §4 coarsenings.
//
// Storage is columnar (structure-of-arrays): a record is one SimTime, one
// interned PairId, and one double — 20 bytes instead of two heap-allocated
// strings per row. The string-based API (`BandwidthRecord`, `records()`,
// `pairs()`, `series_by_pair()`) is preserved as shims that materialize
// names through the shared util::IdSpace, so Listing-1 serialization and
// existing callers keep working unchanged.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/interner.h"
#include "util/sim_time.h"

namespace smn::telemetry {

struct BandwidthRecord {
  util::SimTime timestamp = 0;
  std::string src;
  std::string dst;
  double bw_gbps = 0.0;

  bool operator==(const BandwidthRecord&) const = default;
};

/// Per-class counters for Listing-1 parsing (see `from_listing_format`).
/// A line lands in exactly one class; `skipped()` is the total.
struct ListingParseStats {
  std::size_t parsed = 0;          ///< well-formed records accepted
  std::size_t bad_field_count = 0; ///< not exactly 4 comma-separated fields
  std::size_t bad_timestamp = 0;   ///< unparseable ISO-8601 timestamp
  std::size_t bad_value = 0;       ///< non-numeric bandwidth field
  std::size_t non_finite = 0;      ///< NaN or infinite bandwidth
  std::size_t negative = 0;        ///< bandwidth below zero
  std::size_t empty_name = 0;      ///< missing src or dst name
  std::size_t out_of_order = 0;    ///< timestamp went backwards (garbage tail)

  std::size_t skipped() const noexcept {
    return bad_field_count + bad_timestamp + bad_value + non_finite + negative + empty_name +
           out_of_order;
  }
};

/// Append-oriented columnar log of bandwidth records. Records are expected
/// in non-decreasing timestamp order (the generator produces them that
/// way); `sort()` restores the invariant after merges.
class BandwidthLog {
 public:
  /// Id-native append: the hot ingest path. `pair` must come from
  /// util::IdSpace::global().
  void append(util::SimTime timestamp, util::PairId pair, double bw_gbps) {
    timestamps_.push_back(timestamp);
    pairs_.push_back(pair);
    bw_.push_back(bw_gbps);
  }

  /// String shim: interns the names, then appends.
  void append(BandwidthRecord record) {
    append(record.timestamp, util::IdSpace::global().pair_of_names(record.src, record.dst),
           record.bw_gbps);
  }

  /// Bulk column append: copies whole spans into the columnar arrays (range
  /// inserts, so the copies vectorize instead of paying a capacity check
  /// per row). All three spans must be the same length.
  void append_columns(std::span<const util::SimTime> timestamps,
                      std::span<const util::PairId> pairs, std::span<const double> bw_gbps) {
    timestamps_.insert(timestamps_.end(), timestamps.begin(), timestamps.end());
    pairs_.insert(pairs_.end(), pairs.begin(), pairs.end());
    bw_.insert(bw_.end(), bw_gbps.begin(), bw_gbps.end());
  }

  /// Appends every record of the given columns whose timestamp falls in
  /// [begin, end) — the fine_range() read path, shared by resident
  /// segments and mapped spill files (both expose raw column spans). All
  /// three spans must be the same length; relative record order is kept.
  void append_time_filtered(std::span<const util::SimTime> timestamps,
                            std::span<const util::PairId> pairs, std::span<const double> bw_gbps,
                            util::SimTime begin, util::SimTime end);

  void reserve(std::size_t n) {
    timestamps_.reserve(n);
    pairs_.reserve(n);
    bw_.reserve(n);
  }

  // --- Columnar accessors (the id-based consumer path) ---
  std::span<const util::SimTime> timestamps() const noexcept { return timestamps_; }
  std::span<const util::PairId> pair_ids() const noexcept { return pairs_; }
  std::span<const double> bandwidths() const noexcept { return bw_; }

  std::size_t record_count() const noexcept { return timestamps_.size(); }
  bool empty() const noexcept { return timestamps_.empty(); }

  /// Row `i` with names materialized from the id space.
  BandwidthRecord record_at(std::size_t i) const;

  /// Compatibility shim: materializes every row. O(n) strings per call —
  /// rewire hot paths onto the columnar accessors instead.
  std::vector<BandwidthRecord> records() const;

  /// Stable-sorts by (timestamp, src, dst) — name order, not id order, so
  /// serialized output is independent of interning history. Ranks pairs
  /// through IdSpace::pair_ranks() (no string comparison once the table
  /// covers the log's pairs) and returns early on a log already in order.
  void sort();

  /// Time range covered: {min_ts, max_ts}; {0, 0} when empty.
  std::pair<util::SimTime, util::SimTime> time_range() const noexcept;

  /// Distinct pair ids in first-seen order.
  std::vector<util::PairId> pair_ids_first_seen() const;

  /// Distinct (src, dst) name pairs in first-seen order (shim).
  std::vector<std::pair<std::string, std::string>> pairs() const;

  /// Per-pair series of (timestamp, bw) in log order, keyed by pair id.
  std::map<util::PairId, std::vector<std::pair<util::SimTime, double>>> series_by_pair_id() const;

  /// Per-pair series keyed by names (shim).
  std::map<std::pair<std::string, std::string>, std::vector<std::pair<util::SimTime, double>>>
  series_by_pair() const;

  /// Total demand summed over all records (Gbps x epochs).
  double total_volume() const noexcept;

  /// Serializes in the Listing-1 text format, with the header comment.
  std::string to_listing_format() const;

  /// Parses the Listing-1 format; malformed lines are skipped, classified
  /// into `*stats`. Rejected outright: wrong field counts, bad timestamps,
  /// non-numeric / NaN / infinite / negative bandwidth, empty names, and
  /// lines whose timestamp runs backwards (corrupt tails in otherwise
  /// ordered logs).
  static BandwidthLog from_listing_format(const std::string& text, ListingParseStats* stats);

  /// As above; `*skipped` receives the total skipped-line count.
  static BandwidthLog from_listing_format(const std::string& text,
                                          std::size_t* skipped = nullptr);

  /// Approximate Listing-1 serialized size in bytes (for storage-reduction
  /// reports; names resolved through the id space).
  std::size_t approximate_bytes() const noexcept;

  /// Actual in-memory footprint of the columnar store (20 bytes/row).
  std::size_t memory_bytes() const noexcept {
    return timestamps_.size() * (sizeof(util::SimTime) + sizeof(util::PairId) + sizeof(double));
  }

 private:
  std::vector<util::SimTime> timestamps_;
  std::vector<util::PairId> pairs_;
  std::vector<double> bw_;
};

/// Rows per chunk of the fine tier: the StableLog chunk of a resident day
/// slab, and the verified block of a spill file. A windowed read scans and
/// verifies whole chunks, so this bounds what it touches beyond its rows.
inline constexpr std::size_t kFineChunkRows = 512;

/// Listing-1 size estimate of one fine row, names excluded: timestamp (16)
/// + separators (6) + value (~6) + newline. BandwidthLog::approximate_bytes
/// and the log store's fine_bytes gauge add pair_name_bytes() to it.
inline constexpr std::size_t kListingRowBytes = 16 + 6 + 6 + 1;

/// src + dst name length of `pair`: the name term of the size estimates.
std::size_t pair_name_bytes(util::PairId pair);

}  // namespace smn::telemetry
