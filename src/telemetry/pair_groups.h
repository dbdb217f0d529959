// A fine log's rows grouped by pair: the shape every per-pair consumer of
// a month of telemetry wants (the demand estimators, the forecaster's
// series extraction, the capacity planner's utilization pass).
//
// One counting partition by PairId puts each pair's rows side by side and
// keeps them in log order; a stable timestamp sort then runs only for a
// pair whose rows are out of order. So a pair's rows come out exactly as
// they appear in the (timestamp, name)-sorted log that
// BandwidthLogStore::fine_range() returns, whether the input is that
// sorted log or the same rows in storage order
// (ReadView::storage_range()): both hold each pair's rows in the same
// relative order, and a stable timestamp sort of that order is what the
// sorted read does to them. Consumers that fold across pairs visit the
// groups in name_order() to add terms in the sorted log's order too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "util/interner.h"
#include "util/sim_time.h"

namespace smn::telemetry {

class PairGroups {
 public:
  /// Groups the rows of `log`. O(rows + largest PairId), plus a stable
  /// sort of the rows of each pair that arrived out of timestamp order.
  explicit PairGroups(const BandwidthLog& log);

  /// Distinct pairs of the log; groups are numbered in ascending PairId.
  std::size_t size() const noexcept { return pairs_.size(); }
  util::PairId pair(std::size_t group) const noexcept { return pairs_[group]; }

  /// Rows of one group, in non-decreasing timestamp order; rows with equal
  /// timestamps keep their log order.
  std::span<const util::SimTime> timestamps(std::size_t group) const noexcept {
    return std::span<const util::SimTime>(timestamps_).subspan(begin_[group], rows(group));
  }
  std::span<const double> bandwidths(std::size_t group) const noexcept {
    return std::span<const double>(bandwidths_).subspan(begin_[group], rows(group));
  }

  /// Group numbers in pair name order (IdSpace::pair_ranks()).
  std::vector<std::uint32_t> name_order() const;

 private:
  std::size_t rows(std::size_t group) const noexcept {
    return begin_[group + 1] - begin_[group];
  }

  std::vector<util::PairId> pairs_;
  std::vector<std::size_t> begin_;  ///< first row of each group, then the row count
  std::vector<util::SimTime> timestamps_;
  std::vector<double> bandwidths_;
};

}  // namespace smn::telemetry
