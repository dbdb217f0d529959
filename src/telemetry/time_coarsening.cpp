#include "telemetry/time_coarsening.h"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.h"
#include "util/stats.h"

namespace smn::telemetry {
namespace {

/// Emits one summary per bucket in (src name, dst name, window key) order —
/// the exact order the old string-keyed std::map paths produced. Bucket
/// keys are distinct, so the sort is total; `key_less` ranks pairs through
/// the id space's name-rank table.
template <typename BucketMap, typename KeyLess, typename MakeSummary>
CoarseBandwidthLog emit_sorted(const BucketMap& buckets, KeyLess key_less,
                               MakeSummary make_summary) {
  using Key = typename BucketMap::key_type;
  std::vector<Key> keys;
  keys.reserve(buckets.size());
  for (const auto& [key, _] : buckets) keys.push_back(key);
  const auto ranks = util::IdSpace::global().pair_ranks();
  const auto less = [&](const Key& a, const Key& b) { return key_less(a, b, *ranks); };
  if (!std::is_sorted(keys.begin(), keys.end(), less)) std::sort(keys.begin(), keys.end(), less);
  CoarseBandwidthLog coarse;
  for (const Key& key : keys) {
    coarse.append(make_summary(key, util::summarize(buckets.at(key))));
  }
  return coarse;
}

}  // namespace

void CoarseBandwidthLog::append(WindowSummary summary) {
  by_pair_[summary.pair].push_back(static_cast<std::uint32_t>(summaries_.size()));
  summaries_.push_back(summary);
}

std::vector<std::uint32_t> CoarseBandwidthLog::rows_of(util::PairId pair) const {
  const auto it = by_pair_.find(pair);
  return it == by_pair_.end() ? std::vector<std::uint32_t>{} : it->second;
}

std::vector<WindowSummary> CoarseBandwidthLog::pair_summaries(util::PairId pair) const {
  std::vector<WindowSummary> out;
  for (const std::uint32_t row : rows_of(pair)) out.push_back(summaries_[row]);
  std::sort(out.begin(), out.end(), [](const WindowSummary& a, const WindowSummary& b) {
    return a.window_start < b.window_start;
  });
  return out;
}

std::vector<WindowSummary> CoarseBandwidthLog::pair_summaries(const std::string& src,
                                                              const std::string& dst) const {
  const auto pair = util::IdSpace::global().find_pair_of_names(src, dst);
  return pair ? pair_summaries(*pair) : std::vector<WindowSummary>{};
}

double CoarseBandwidthLog::pair_mean(util::PairId pair) const {
  double weighted = 0.0;
  std::size_t samples = 0;
  for (const std::uint32_t row : rows_of(pair)) {
    const WindowSummary& s = summaries_[row];
    weighted += s.mean * static_cast<double>(s.sample_count);
    samples += s.sample_count;
  }
  return samples ? weighted / static_cast<double>(samples) : 0.0;
}

double CoarseBandwidthLog::pair_mean(const std::string& src, const std::string& dst) const {
  const auto pair = util::IdSpace::global().find_pair_of_names(src, dst);
  return pair ? pair_mean(*pair) : 0.0;
}

double CoarseBandwidthLog::pair_p95_upper(util::PairId pair) const {
  double best = 0.0;
  for (const std::uint32_t row : rows_of(pair)) best = std::max(best, summaries_[row].p95);
  return best;
}

double CoarseBandwidthLog::pair_p95_upper(const std::string& src, const std::string& dst) const {
  const auto pair = util::IdSpace::global().find_pair_of_names(src, dst);
  return pair ? pair_p95_upper(*pair) : 0.0;
}

BandwidthLog CoarseBandwidthLog::reconstruct(util::SimTime epoch) const {
  BandwidthLog log;
  if (epoch <= 0) return log;
  for (const WindowSummary& s : summaries_) {
    const util::SimTime end = s.window_start + s.window_length;
    for (util::SimTime t = s.window_start; t < end; t += epoch) {
      log.append(t, s.pair, s.mean);
    }
  }
  log.sort();
  return log;
}

std::size_t CoarseBandwidthLog::approximate_bytes() const noexcept {
  std::unordered_map<util::PairId, std::size_t> name_bytes;
  std::size_t bytes = 0;
  for (const WindowSummary& s : summaries_) {
    auto it = name_bytes.find(s.pair);
    if (it == name_bytes.end()) it = name_bytes.emplace(s.pair, pair_name_bytes(s.pair)).first;
    bytes += kCoarseRowBytes + it->second;
  }
  return bytes;
}

TimeCoarsener::TimeCoarsener(util::SimTime window) : window_(window) {
  if (window_ <= 0) throw std::invalid_argument("TimeCoarsener: window must be positive");
}

std::string TimeCoarsener::name() const {
  return "time-window-" + std::to_string(window_ / util::kMinute) + "min";
}

CoarseBandwidthLog TimeCoarsener::coarsen(const BandwidthLog& fine) const {
  // Bucket records by (pair, window index) — one u64 key, no string re-keying.
  const auto timestamps = fine.timestamps();
  const auto pairs = fine.pair_ids();
  const auto bw = fine.bandwidths();
  std::unordered_map<std::uint64_t, std::vector<double>> buckets;
  for (std::size_t i = 0; i < fine.record_count(); ++i) {
    SMN_DCHECK(timestamps[i] / window_ <= 0xFFFFFFFF,
               "window index overflows the packed u32 bucket key");
    const auto window_index = static_cast<std::uint32_t>(timestamps[i] / window_);
    const std::uint64_t key = (static_cast<std::uint64_t>(pairs[i]) << 32) | window_index;
    buckets[key].push_back(bw[i]);
  }
  return emit_sorted(
      buckets,
      [](std::uint64_t a, std::uint64_t b, const util::PairRankTable& rank) {
        const auto pa = rank[static_cast<util::PairId>(a >> 32)];
        const auto pb = rank[static_cast<util::PairId>(b >> 32)];
        if (pa != pb) return pa < pb;
        return (a & 0xFFFFFFFFu) < (b & 0xFFFFFFFFu);
      },
      [&](std::uint64_t key, const util::Summary& stats) {
        WindowSummary s;
        s.pair = static_cast<util::PairId>(key >> 32);
        s.window_start = static_cast<util::SimTime>(key & 0xFFFFFFFFu) * window_;
        s.window_length = window_;
        s.sample_count = stats.count;
        s.mean = stats.mean;
        s.p50 = stats.p50;
        s.p95 = stats.p95;
        s.min = stats.min;
        s.max = stats.max;
        return s;
      });
}

NestedTimeCoarsener::NestedTimeCoarsener(std::vector<NestedLevel> levels, util::SimTime now,
                                         util::SimTime epoch)
    : levels_(std::move(levels)), now_(now), epoch_(epoch) {
  if (epoch_ <= 0) throw std::invalid_argument("NestedTimeCoarsener: epoch must be positive");
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].window <= 0) {
      throw std::invalid_argument("NestedTimeCoarsener: windows must be positive");
    }
    if (i > 0 && (levels_[i].min_age <= levels_[i - 1].min_age ||
                  levels_[i].window < levels_[i - 1].window)) {
      throw std::invalid_argument(
          "NestedTimeCoarsener: levels must have increasing ages and windows");
    }
  }
}

NestedTimeCoarsener NestedTimeCoarsener::standard_ladder(util::SimTime now) {
  return NestedTimeCoarsener(
      {
          {util::kDay, util::kHour},
          {util::kWeek, util::kDay},
          {13 * util::kWeek, util::kWeek},
      },
      now);
}

std::string NestedTimeCoarsener::name() const {
  return "nested-time-" + std::to_string(levels_.size()) + "levels";
}

util::SimTime NestedTimeCoarsener::window_for_age(util::SimTime age) const noexcept {
  util::SimTime window = epoch_;
  for (const NestedLevel& level : levels_) {
    if (age >= level.min_age) window = level.window;
  }
  return window;
}

CoarseBandwidthLog NestedTimeCoarsener::coarsen(const BandwidthLog& fine) const {
  struct Key {
    util::PairId pair;
    util::SimTime window_start;
    util::SimTime window_length;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.pair;
      h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.window_start);
      h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.window_length);
      return static_cast<std::size_t>(h);
    }
  };
  const auto timestamps = fine.timestamps();
  const auto pairs = fine.pair_ids();
  const auto bw = fine.bandwidths();
  std::unordered_map<Key, std::vector<double>, KeyHash> buckets;
  for (std::size_t i = 0; i < fine.record_count(); ++i) {
    const util::SimTime age = std::max<util::SimTime>(0, now_ - timestamps[i]);
    const util::SimTime window = window_for_age(age);
    const util::SimTime window_start = (timestamps[i] / window) * window;
    buckets[Key{pairs[i], window_start, window}].push_back(bw[i]);
  }
  return emit_sorted(
      buckets,
      [](const Key& a, const Key& b, const util::PairRankTable& rank) {
        const auto pa = rank[a.pair];
        const auto pb = rank[b.pair];
        if (pa != pb) return pa < pb;
        if (a.window_start != b.window_start) return a.window_start < b.window_start;
        return a.window_length < b.window_length;
      },
      [](const Key& key, const util::Summary& stats) {
        WindowSummary s;
        s.pair = key.pair;
        s.window_start = key.window_start;
        s.window_length = key.window_length;
        s.sample_count = stats.count;
        s.mean = stats.mean;
        s.p50 = stats.p50;
        s.p95 = stats.p95;
        s.min = stats.min;
        s.max = stats.max;
        return s;
      });
}

}  // namespace smn::telemetry
