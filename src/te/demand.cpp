#include "te/demand.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "telemetry/pair_groups.h"
#include "util/contracts.h"
#include "util/stats.h"

namespace smn::te {
namespace {

/// Sorts distinct pair ids by (src name, dst name) — the emission order the
/// old string-keyed std::map produced, kept so demand matrices are
/// byte-identical regardless of interning history.
std::vector<util::PairId> name_sorted(std::vector<util::PairId> pairs) {
  const auto ranks = util::IdSpace::global().pair_ranks();
  std::sort(pairs.begin(), pairs.end(),
            [&](util::PairId a, util::PairId b) { return (*ranks)[a] < (*ranks)[b]; });
  return pairs;
}

DemandEntry make_entry(util::PairId pair, double gbps) {
  const util::IdSpace& ids = util::IdSpace::global();
  return DemandEntry{ids.src_name(pair), ids.dst_name(pair), gbps, pair};
}

}  // namespace

double DemandMatrix::total_gbps() const noexcept {
  double total = 0.0;
  for (const DemandEntry& e : entries_) total += e.gbps;
  return total;
}

DemandMatrix DemandMatrix::from_log(const telemetry::BandwidthLog& log, DemandStatistic stat) {
  // Group the columnar log by pair id — no string materialization.
  const telemetry::PairGroups groups(log);
  DemandMatrix matrix;
  for (const std::uint32_t g : groups.name_order()) {
    const util::Summary s = util::summarize(groups.bandwidths(g));
    double value = s.mean;
    if (stat == DemandStatistic::kP95) value = s.p95;
    if (stat == DemandStatistic::kMax) value = s.max;
    matrix.add(make_entry(groups.pair(g), value));
  }
  return matrix;
}

DemandMatrix DemandMatrix::from_coarse_log(const telemetry::CoarseBandwidthLog& coarse,
                                           DemandStatistic stat) {
  struct Accum {
    double weighted_mean = 0.0;
    std::size_t samples = 0;
    double p95_upper = 0.0;
    double max = 0.0;
  };
  std::unordered_map<util::PairId, Accum> accums;
  for (const telemetry::WindowSummary& s : coarse.summaries()) {
    SMN_DCHECK(s.pair != util::kInvalidPairId, "coarse summary with an invalid PairId");
    Accum& a = accums[s.pair];
    a.weighted_mean += s.mean * static_cast<double>(s.sample_count);
    a.samples += s.sample_count;
    a.p95_upper = std::max(a.p95_upper, s.p95);
    a.max = std::max(a.max, s.max);
  }
  std::vector<util::PairId> keys;
  keys.reserve(accums.size());
  for (const auto& [pair, _] : accums) keys.push_back(pair);
  DemandMatrix matrix;
  for (const util::PairId pair : name_sorted(std::move(keys))) {
    const Accum& a = accums.at(pair);
    double value = a.samples ? a.weighted_mean / static_cast<double>(a.samples) : 0.0;
    if (stat == DemandStatistic::kP95) value = a.p95_upper;
    if (stat == DemandStatistic::kMax) value = a.max;
    matrix.add(make_entry(pair, value));
  }
  return matrix;
}

DemandMatrix DemandMatrix::from_forecast(const telemetry::BandwidthLog& log,
                                         std::size_t horizon, telemetry::ForecastMethod method,
                                         const telemetry::ForecastOptions& options) {
  SMN_CHECK(horizon > 0, "from_forecast: horizon must be positive");
  // One grouping pass over the log yields every pair's dense series (in
  // PairId order); the forecasts themselves are per-pair and independent.
  const std::vector<std::pair<util::PairId, telemetry::Series>> all =
      telemetry::extract_all_series(log);
  std::vector<std::size_t> order(all.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto ranks = util::IdSpace::global().pair_ranks();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return (*ranks)[all[a].first] < (*ranks)[all[b].first];
  });
  DemandMatrix matrix;
  std::vector<double> predicted;
  for (const std::size_t i : order) {
    const auto& [pair, series] = all[i];
    if (series.values.empty()) continue;
    predicted = telemetry::forecast(series, horizon, method, options);
    double mean = 0.0;
    for (const double v : predicted) mean += v;
    mean /= static_cast<double>(predicted.size());
    matrix.add(make_entry(pair, std::max(mean, 0.0)));
  }
  return matrix;
}

std::vector<lp::Commodity> DemandMatrix::to_commodities(const topology::WanTopology& wan,
                                                        std::size_t* unresolved) const {
  const util::IdSpace& ids = util::IdSpace::global();
  std::vector<lp::Commodity> commodities;
  commodities.reserve(entries_.size());
  std::size_t missing = 0;
  for (const DemandEntry& e : entries_) {
    // Id fast path: two flat-vector loads; name lookup only for entries
    // built outside the id space.
    std::optional<graph::NodeId> src, dst;
    if (e.pair != util::kInvalidPairId) {
      src = wan.node_of(ids.pair_src(e.pair));
      dst = wan.node_of(ids.pair_dst(e.pair));
    } else {
      src = wan.find_datacenter(e.src);
      dst = wan.find_datacenter(e.dst);
    }
    if (!src || !dst) {
      ++missing;
      continue;
    }
    commodities.push_back(lp::Commodity{*src, *dst, e.gbps});
  }
  if (unresolved != nullptr) *unresolved = missing;
  return commodities;
}

telemetry::DemandBaseline DemandMatrix::to_baseline(util::SimTime solved_at) const {
  telemetry::DemandBaseline baseline;
  baseline.solved_at = solved_at;
  baseline.entries.reserve(entries_.size());
  for (const DemandEntry& e : entries_) {
    if (e.pair == util::kInvalidPairId) continue;
    baseline.entries.emplace_back(e.pair, e.gbps);
  }
  return baseline;
}

}  // namespace smn::te
