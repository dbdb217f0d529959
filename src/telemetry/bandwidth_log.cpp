#include "telemetry/bandwidth_log.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "util/contracts.h"
#include "util/string_util.h"

namespace smn::telemetry {

BandwidthRecord BandwidthLog::record_at(std::size_t i) const {
  const util::IdSpace& ids = util::IdSpace::global();
  return BandwidthRecord{timestamps_.at(i), ids.src_name(pairs_[i]), ids.dst_name(pairs_[i]),
                         bw_[i]};
}

std::vector<BandwidthRecord> BandwidthLog::records() const {
  std::vector<BandwidthRecord> out;
  out.reserve(record_count());
  const util::IdSpace& ids = util::IdSpace::global();
  for (std::size_t i = 0; i < record_count(); ++i) {
    out.push_back(
        BandwidthRecord{timestamps_[i], ids.src_name(pairs_[i]), ids.dst_name(pairs_[i]), bw_[i]});
  }
  return out;
}

void BandwidthLog::append_time_filtered(std::span<const util::SimTime> timestamps,
                                        std::span<const util::PairId> pairs,
                                        std::span<const double> bw_gbps, util::SimTime begin,
                                        util::SimTime end) {
  SMN_DCHECK(pairs.size() == timestamps.size() && bw_gbps.size() == timestamps.size(),
             "filtered append with diverging column lengths");
  // Segments are mostly in order, so in-range records arrive in long runs;
  // copy each run as whole columns instead of a per-record append.
  const std::size_t n = timestamps.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && (timestamps[i] < begin || timestamps[i] >= end)) ++i;
    std::size_t j = i;
    while (j < n && timestamps[j] >= begin && timestamps[j] < end) ++j;
    if (j > i) {
      append_columns(timestamps.subspan(i, j - i), pairs.subspan(i, j - i),
                     bw_gbps.subspan(i, j - i));
    }
    i = j;
  }
}

void BandwidthLog::sort() {
  SMN_DCHECK(pairs_.size() == timestamps_.size() && bw_.size() == timestamps_.size(),
             "columnar SoA columns diverged");
  const std::size_t n = record_count();
  SMN_CHECK(n <= 0xFFFFFFFFu, "BandwidthLog::sort indexes rows with 32 bits");
  if (n < 2) return;
  const auto ranks = util::IdSpace::global().pair_ranks();
  const util::PairRankTable& rank = *ranks;
  // Rows already in (timestamp, name rank) order — one shard's read, or a
  // log sorted before — stay where they are.
  std::size_t i = 1;
  while (i < n && (timestamps_[i - 1] < timestamps_[i] ||
                   (timestamps_[i - 1] == timestamps_[i] &&
                    (pairs_[i - 1] == pairs_[i] || rank[pairs_[i - 1]] < rank[pairs_[i]])))) {
    ++i;
  }
  if (i == n) return;
  // One unsigned key per row: the timestamp's offset from the earliest one
  // above the dense name rank. LSD radix passes over the key are stable,
  // so rows with equal (timestamp, pair) keep their input order.
  const auto [lo, hi] = std::minmax_element(timestamps_.begin(), timestamps_.end());
  const auto offset = [first = static_cast<std::uint64_t>(*lo)](util::SimTime t) {
    return static_cast<std::uint64_t>(t) - first;
  };
  const int rank_bits = std::bit_width(rank.size());
  const int key_bits = std::bit_width(offset(*hi)) + rank_bits;
  SMN_CHECK(key_bits <= 64, "BandwidthLog::sort: timestamp span too wide for its sort key");
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint32_t> rows(n);
  for (std::size_t r = 0; r < n; ++r) {
    keys[r] = (offset(timestamps_[r]) << rank_bits) | rank[pairs_[r]];
    rows[r] = static_cast<std::uint32_t>(r);
  }
  constexpr int kDigitBits = 8;
  constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
  std::vector<std::uint64_t> keys_out(n);
  std::vector<std::uint32_t> rows_out(n);
  std::vector<std::uint32_t> start(kDigitMask + 2);
  for (int shift = 0; shift < key_bits; shift += kDigitBits) {
    std::fill(start.begin(), start.end(), 0u);
    for (const std::uint64_t k : keys) ++start[((k >> shift) & kDigitMask) + 1];
    if (start[((keys[0] >> shift) & kDigitMask) + 1] == n) continue;  // one digit value
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint32_t to = start[(keys[r] >> shift) & kDigitMask]++;
      keys_out[to] = keys[r];
      rows_out[to] = rows[r];
    }
    keys.swap(keys_out);
    rows.swap(rows_out);
  }
  // Release the key buffers before the gather, one column at a time.
  keys = {};
  keys_out = {};
  rows_out = {};
  const auto gather = [&](auto& column) {
    std::remove_reference_t<decltype(column)> sorted(n);
    for (std::size_t r = 0; r < n; ++r) sorted[r] = column[rows[r]];
    column = std::move(sorted);
  };
  gather(timestamps_);
  gather(pairs_);
  gather(bw_);
}

std::pair<util::SimTime, util::SimTime> BandwidthLog::time_range() const noexcept {
  if (timestamps_.empty()) return {0, 0};
  util::SimTime lo = timestamps_.front();
  util::SimTime hi = lo;
  for (const util::SimTime t : timestamps_) {
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  return {lo, hi};
}

std::vector<util::PairId> BandwidthLog::pair_ids_first_seen() const {
  std::vector<util::PairId> out;
  std::unordered_map<util::PairId, bool> seen;
  for (const util::PairId p : pairs_) {
    if (seen.emplace(p, true).second) out.push_back(p);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> BandwidthLog::pairs() const {
  std::vector<std::pair<std::string, std::string>> out;
  const util::IdSpace& ids = util::IdSpace::global();
  for (const util::PairId p : pair_ids_first_seen()) {
    out.emplace_back(ids.src_name(p), ids.dst_name(p));
  }
  return out;
}

std::map<util::PairId, std::vector<std::pair<util::SimTime, double>>>
BandwidthLog::series_by_pair_id() const {
  std::map<util::PairId, std::vector<std::pair<util::SimTime, double>>> out;
  for (std::size_t i = 0; i < record_count(); ++i) {
    out[pairs_[i]].emplace_back(timestamps_[i], bw_[i]);
  }
  return out;
}

std::map<std::pair<std::string, std::string>, std::vector<std::pair<util::SimTime, double>>>
BandwidthLog::series_by_pair() const {
  std::map<std::pair<std::string, std::string>, std::vector<std::pair<util::SimTime, double>>> out;
  const util::IdSpace& ids = util::IdSpace::global();
  for (auto& [pair, series] : series_by_pair_id()) {
    out.emplace(std::make_pair(ids.src_name(pair), ids.dst_name(pair)), std::move(series));
  }
  return out;
}

double BandwidthLog::total_volume() const noexcept {
  double total = 0.0;
  for (const double v : bw_) total += v;
  return total;
}

std::string BandwidthLog::to_listing_format() const {
  std::ostringstream out;
  out << "# Format: ts, src_dc, dst_dc, bw_Gbps\n";
  const util::IdSpace& ids = util::IdSpace::global();
  for (std::size_t i = 0; i < record_count(); ++i) {
    out << util::format_iso8601(timestamps_[i]) << ", " << ids.src_name(pairs_[i]) << ", "
        << ids.dst_name(pairs_[i]) << ", " << util::format_double(bw_[i], 0) << '\n';
  }
  return out.str();
}

BandwidthLog BandwidthLog::from_listing_format(const std::string& text,
                                               ListingParseStats* stats) {
  BandwidthLog log;
  ListingParseStats local;
  util::IdSpace& ids = util::IdSpace::global();
  std::istringstream in(text);
  std::string line;
  util::SimTime last_ts = std::numeric_limits<util::SimTime>::min();
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = util::split(trimmed, ',');
    if (fields.size() != 4) {
      ++local.bad_field_count;
      continue;
    }
    util::SimTime ts = 0;
    if (!util::parse_iso8601(std::string(util::trim(fields[0])), ts)) {
      ++local.bad_timestamp;
      continue;
    }
    const std::string_view src = util::trim(fields[1]);
    const std::string_view dst = util::trim(fields[2]);
    double bw = 0.0;
    try {
      bw = std::stod(std::string(util::trim(fields[3])));
    } catch (...) {
      ++local.bad_value;
      continue;
    }
    if (!std::isfinite(bw)) {
      ++local.non_finite;
      continue;
    }
    if (bw < 0.0) {
      ++local.negative;
      continue;
    }
    if (src.empty() || dst.empty()) {
      ++local.empty_name;
      continue;
    }
    if (ts < last_ts) {
      ++local.out_of_order;
      continue;
    }
    last_ts = ts;
    log.append(ts, ids.pair_of_names(src, dst), bw);
    ++local.parsed;
  }
  if (stats != nullptr) *stats = local;
  return log;
}

BandwidthLog BandwidthLog::from_listing_format(const std::string& text, std::size_t* skipped) {
  ListingParseStats stats;
  BandwidthLog log = from_listing_format(text, &stats);
  if (skipped != nullptr) *skipped = stats.skipped();
  return log;
}

std::size_t pair_name_bytes(util::PairId pair) {
  const util::IdSpace& ids = util::IdSpace::global();
  return ids.src_name(pair).size() + ids.dst_name(pair).size();
}

std::size_t BandwidthLog::approximate_bytes() const noexcept {
  // "2025-06-01T00:00, us-e1, eu-w1, 1250\n". Name lengths are cached per
  // pair id.
  std::unordered_map<util::PairId, std::size_t> name_bytes;
  std::size_t bytes = 0;
  for (const util::PairId p : pairs_) {
    auto it = name_bytes.find(p);
    if (it == name_bytes.end()) it = name_bytes.emplace(p, pair_name_bytes(p)).first;
    bytes += kListingRowBytes + it->second;
  }
  return bytes;
}

}  // namespace smn::telemetry
