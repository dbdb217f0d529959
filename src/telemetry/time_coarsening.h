// Time-based coarsening of bandwidth logs (§4):
//
//   "traffic engineering controllers can replace per-epoch demand traces,
//    collected over months, with summary statistics (e.g., mean or 95th
//    percentile bandwidth usage) over fixed smaller time windows. More
//    sophisticated variants ... compute multiple summary statistics over
//    nested time windows to preserve important trends."
//
// TimeCoarsener implements the fixed-window variant; NestedTimeCoarsener
// implements the multi-resolution variant (fine windows for recent data,
// coarse windows for old data). Summaries carry interned PairIds, and the
// coarse log keeps a per-pair index so pair queries are O(windows of that
// pair) instead of a full scan.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coarsening.h"
#include "telemetry/bandwidth_log.h"
#include "util/sim_time.h"

namespace smn::telemetry {

/// One coarse row: summary statistics of one pair over one window.
struct WindowSummary {
  util::SimTime window_start = 0;
  util::SimTime window_length = 0;
  util::PairId pair = util::kInvalidPairId;
  std::size_t sample_count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// Names resolved through the shared id space.
  const std::string& src() const { return util::IdSpace::global().src_name(pair); }
  const std::string& dst() const { return util::IdSpace::global().dst_name(pair); }
};

/// Serialized size estimate of one summary row, names excluded: window
/// bounds (2 x 16) + five statistics (~6 each) + commas.
/// CoarseBandwidthLog::approximate_bytes and the log store's coarse_bytes
/// gauge add pair_name_bytes() to it.
inline constexpr std::size_t kCoarseRowBytes = 32 + 5 * 6 + 8;

/// The coarse structure s: a bag of window summaries, queryable per pair.
class CoarseBandwidthLog {
 public:
  void append(WindowSummary summary);

  const std::vector<WindowSummary>& summaries() const noexcept { return summaries_; }
  std::size_t summary_count() const noexcept { return summaries_.size(); }

  /// Summaries for one pair in window order (index lookup, no full scan).
  std::vector<WindowSummary> pair_summaries(util::PairId pair) const;
  std::vector<WindowSummary> pair_summaries(const std::string& src,
                                            const std::string& dst) const;

  /// Sample-weighted mean of a pair across all windows.
  double pair_mean(util::PairId pair) const;
  double pair_mean(const std::string& src, const std::string& dst) const;

  /// Upper bound on a pair's p95 reconstructed from window summaries (max
  /// of window p95s — conservative, as any exact cross-window percentile is
  /// unrecoverable after coarsening).
  double pair_p95_upper(util::PairId pair) const;
  double pair_p95_upper(const std::string& src, const std::string& dst) const;

  /// Reconstructs a per-epoch log by holding each window's mean flat across
  /// its epochs ("acting on s"): downstream TE/planning consumes this as if
  /// it were a fine log.
  BandwidthLog reconstruct(util::SimTime epoch) const;

  /// Approximate serialized size: kCoarseRowBytes plus names per summary.
  std::size_t approximate_bytes() const noexcept;

 private:
  /// Rows of `pair` via the index; empty when the pair never appears.
  std::vector<std::uint32_t> rows_of(util::PairId pair) const;

  std::vector<WindowSummary> summaries_;
  std::unordered_map<util::PairId, std::vector<std::uint32_t>> by_pair_;  ///< row index
};

/// Fixed-window time coarsener.
class TimeCoarsener final : public core::Coarsener<BandwidthLog, CoarseBandwidthLog> {
 public:
  /// `window` must be positive; typical values range from 1 hour to 1 month.
  explicit TimeCoarsener(util::SimTime window);

  std::string name() const override;
  CoarseBandwidthLog coarsen(const BandwidthLog& fine) const override;
  std::size_t fine_size(const BandwidthLog& fine) const override { return fine.record_count(); }
  std::size_t coarse_size(const CoarseBandwidthLog& coarse) const override {
    return coarse.summary_count();
  }

  util::SimTime window() const noexcept { return window_; }

 private:
  util::SimTime window_;
};

/// One resolution level of the nested coarsener: records older than
/// `min_age` (relative to `now`) are summarized with `window`.
struct NestedLevel {
  util::SimTime min_age = 0;
  util::SimTime window = 0;
};

/// Multi-resolution coarsener: recent history stays fine-grained, older
/// history gets progressively coarser windows. Levels must be given in
/// increasing min_age order with increasing windows.
class NestedTimeCoarsener final : public core::Coarsener<BandwidthLog, CoarseBandwidthLog> {
 public:
  /// `now` anchors ages; records newer than levels.front().min_age keep a
  /// one-epoch window (i.e. stay effectively uncoarsened).
  NestedTimeCoarsener(std::vector<NestedLevel> levels, util::SimTime now,
                      util::SimTime epoch = util::kTelemetryEpoch);

  /// The default ladder used by the SMN history store: epochs for the last
  /// day, hours for the last week, days for the last quarter, weeks beyond.
  static NestedTimeCoarsener standard_ladder(util::SimTime now);

  std::string name() const override;
  CoarseBandwidthLog coarsen(const BandwidthLog& fine) const override;
  std::size_t fine_size(const BandwidthLog& fine) const override { return fine.record_count(); }
  std::size_t coarse_size(const CoarseBandwidthLog& coarse) const override {
    return coarse.summary_count();
  }

  /// Window applied to a record of age `age`.
  util::SimTime window_for_age(util::SimTime age) const noexcept;

 private:
  std::vector<NestedLevel> levels_;
  util::SimTime now_;
  util::SimTime epoch_;
};

}  // namespace smn::telemetry
