#include "telemetry/pair_groups.h"

#include <algorithm>
#include <numeric>

namespace smn::telemetry {

PairGroups::PairGroups(const BandwidthLog& log) {
  constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;
  const auto timestamps = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bandwidths = log.bandwidths();
  const std::size_t n = log.record_count();
  if (n == 0) {
    begin_.push_back(0);
    return;
  }
  // Count rows per PairId, then number the pairs present in ascending id.
  const util::PairId top = *std::max_element(pairs.begin(), pairs.end());
  std::vector<std::uint32_t> group_of(static_cast<std::size_t>(top) + 1, 0);
  for (const util::PairId p : pairs) ++group_of[p];
  std::size_t at = 0;
  for (util::PairId p = 0; p <= top; ++p) {
    const std::uint32_t count = group_of[p];
    if (count == 0) {
      group_of[p] = kNoGroup;
      continue;
    }
    group_of[p] = static_cast<std::uint32_t>(pairs_.size());
    pairs_.push_back(p);
    begin_.push_back(at);
    at += count;
  }
  begin_.push_back(n);

  // Scatter rows into their groups in log order, noting the groups whose
  // rows arrive out of timestamp order.
  timestamps_.resize(n);
  bandwidths_.resize(n);
  std::vector<std::size_t> fill(begin_.begin(), begin_.end() - 1);
  std::vector<bool> unsorted(pairs_.size(), false);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t g = group_of[pairs[i]];
    const std::size_t to = fill[g]++;
    if (to > begin_[g] && timestamps_[to - 1] > timestamps[i]) unsorted[g] = true;
    timestamps_[to] = timestamps[i];
    bandwidths_[to] = bandwidths[i];
  }

  std::vector<std::uint32_t> order;
  std::vector<util::SimTime> ts;
  std::vector<double> bw;
  for (std::size_t g = 0; g < pairs_.size(); ++g) {
    if (!unsorted[g]) continue;
    const std::size_t first = begin_[g];
    const std::size_t len = rows(g);
    order.resize(len);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return timestamps_[first + a] < timestamps_[first + b];
    });
    ts.resize(len);
    bw.resize(len);
    for (std::size_t k = 0; k < len; ++k) {
      ts[k] = timestamps_[first + order[k]];
      bw[k] = bandwidths_[first + order[k]];
    }
    std::copy(ts.begin(), ts.end(), timestamps_.begin() + static_cast<std::ptrdiff_t>(first));
    std::copy(bw.begin(), bw.end(), bandwidths_.begin() + static_cast<std::ptrdiff_t>(first));
  }
}

std::vector<std::uint32_t> PairGroups::name_order() const {
  std::vector<std::uint32_t> order(pairs_.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto ranks = util::IdSpace::global().pair_ranks();
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return (*ranks)[pairs_[a]] < (*ranks)[pairs_[b]];
  });
  return order;
}

}  // namespace smn::telemetry
