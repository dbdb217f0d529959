#include "telemetry/forecast.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "telemetry/pair_groups.h"
#include "util/contracts.h"

namespace smn::telemetry {
namespace {

/// Turns one pair's points — timestamps non-decreasing, rows with equal
/// timestamps in log order — into a dense series: the shared back half of
/// every extract_series flavor. A later point overwrites an earlier one in
/// the same epoch, so duplicate timestamps resolve last-wins.
Series densify(std::span<const util::SimTime> timestamps, std::span<const double> values,
               util::SimTime epoch) {
  Series series;
  series.epoch = epoch;
  if (timestamps.empty()) return series;
  series.start = timestamps.front();
  const util::SimTime last = timestamps.back();
  const auto n = static_cast<std::size_t>((last - series.start) / epoch) + 1;
  series.values.assign(n, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    series.values[static_cast<std::size_t>((timestamps[i] - series.start) / epoch)] = values[i];
  }
  // Fill gaps: linear interpolation between known neighbors.
  std::size_t prev_known = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(series.values[i])) continue;
    if (i > prev_known + 1 && !std::isnan(series.values[prev_known])) {
      const double lo = series.values[prev_known];
      const double hi = series.values[i];
      for (std::size_t j = prev_known + 1; j < i; ++j) {
        const double frac = static_cast<double>(j - prev_known) /
                            static_cast<double>(i - prev_known);
        series.values[j] = lo + frac * (hi - lo);
      }
    }
    prev_known = i;
  }
  // Edge gaps repeat the nearest known value.
  double last_known = 0.0;
  bool seen = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isnan(series.values[i])) {
      if (!seen) {
        for (std::size_t j = 0; j < i; ++j) series.values[j] = series.values[i];
      }
      last_known = series.values[i];
      seen = true;
    } else if (seen) {
      series.values[i] = last_known;
    }
  }
  return series;
}

}  // namespace

Series extract_series(const BandwidthLog& log, const std::string& src, const std::string& dst,
                      util::SimTime epoch) {
  if (epoch <= 0) throw std::invalid_argument("extract_series: epoch must be positive");
  // One id lookup, then a scan over the pair-id column — no per-record
  // string compares.
  const auto pair = util::IdSpace::global().find_pair_of_names(src, dst);
  return extract_series(log, pair.value_or(util::kInvalidPairId), epoch);
}

Series extract_series(const BandwidthLog& log, util::PairId pair, util::SimTime epoch) {
  if (epoch <= 0) throw std::invalid_argument("extract_series: epoch must be positive");
  BandwidthLog rows;
  if (pair != util::kInvalidPairId) {
    const auto timestamps = log.timestamps();
    const auto pairs = log.pair_ids();
    const auto bw = log.bandwidths();
    for (std::size_t i = 0; i < log.record_count(); ++i) {
      if (pairs[i] == pair) rows.append(timestamps[i], pair, bw[i]);
    }
  }
  const PairGroups groups(rows);
  if (groups.size() == 0) return densify({}, {}, epoch);
  return densify(groups.timestamps(0), groups.bandwidths(0), epoch);
}

std::vector<std::pair<util::PairId, Series>> extract_all_series(const BandwidthLog& log,
                                                                util::SimTime epoch) {
  if (epoch <= 0) throw std::invalid_argument("extract_all_series: epoch must be positive");
  // One grouping pass over the columnar log; each pair then densifies
  // exactly like the single-pair path (duplicate timestamps: last wins).
  const PairGroups groups(log);
  std::vector<std::pair<util::PairId, Series>> out;
  out.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    out.emplace_back(groups.pair(g), densify(groups.timestamps(g), groups.bandwidths(g), epoch));
  }
  return out;
}

std::string forecast_method_name(ForecastMethod method) {
  switch (method) {
    case ForecastMethod::kSeasonalNaive:
      return "seasonal-naive";
    case ForecastMethod::kEwma:
      return "ewma";
    case ForecastMethod::kSeasonalGrowth:
      return "seasonal+growth";
  }
  SMN_UNREACHABLE("forecast_method_name: unhandled ForecastMethod");
}

namespace {

std::vector<double> ewma_forecast(const Series& history, std::size_t horizon, double alpha) {
  double level = history.values.empty() ? 0.0 : history.values.front();
  for (const double v : history.values) level = alpha * v + (1.0 - alpha) * level;
  return std::vector<double>(horizon, level);
}

/// Re-weighting strength of the measured drift: exactly 0 at drift 0 (the
/// drift-aware paths are then never entered, keeping every method
/// byte-identical to the drift-blind forecast), saturating toward 1 as
/// drift_decay * drift_level grows.
double drift_weight(const ForecastOptions& options) {
  // !(x > 0) rather than x <= 0: NaN drift (an empty-baseline report) must
  // also take the quiescent path, not poison the forecast.
  if (!(options.drift_level > 0.0) || options.drift_decay <= 0.0) return 0.0;
  return 1.0 - std::exp(-options.drift_decay * options.drift_level);
}

}  // namespace

std::vector<double> forecast(const Series& history, std::size_t horizon, ForecastMethod method,
                             const ForecastOptions& options) {
  if (horizon == 0) return {};
  const std::size_t n = history.size();
  const double w = drift_weight(options);
  if (method == ForecastMethod::kEwma || n < options.season || options.season == 0) {
    // Drift raises the effective alpha toward 1, so the level estimate
    // weights the post-shift tail over stale history; w == 0 leaves the
    // configured alpha untouched.
    const double alpha = w > 0.0
                             ? options.ewma_alpha + (1.0 - options.ewma_alpha) * w
                             : options.ewma_alpha;
    return ewma_forecast(history, horizon, alpha);
  }

  // Seasonal-naive core: value one season ago (wrapping forward for long
  // horizons).
  std::vector<double> out(horizon, 0.0);
  for (std::size_t h = 0; h < horizon; ++h) {
    const std::size_t offset = (h % options.season);
    out[h] = history.values[n - options.season + offset];
  }

  if (method == ForecastMethod::kSeasonalGrowth && n >= 2 * options.season) {
    // Trailing week-over-week growth ratio, clamped to a sane band.
    double growth_recent = 0.0, previous = 0.0;
    for (std::size_t i = n - options.season; i < n; ++i) growth_recent += history.values[i];
    for (std::size_t i = n - 2 * options.season; i < n - options.season; ++i) {
      previous += history.values[i];
    }
    const double growth =
        previous > 0.0 ? std::clamp(growth_recent / previous, 0.5, 2.0) : 1.0;
    for (double& v : out) v *= growth;
  }

  if (w > 0.0) {
    // Drift re-anchoring: scale the seasonal template by the ratio of the
    // trailing recent level to the same epochs one season earlier, blended
    // in by the drift weight. Under a confirmed level shift (w -> 1) the
    // forecast tracks the new level while keeping last season's shape;
    // at low drift the template stays authoritative. The window is clamped
    // so the season-ago reference always exists, and the ratio is clamped
    // like the growth ratio (a wider band: shifts are larger than trends).
    const std::size_t window = std::min(std::max<std::size_t>(options.drift_recent_window, 1),
                                        n - options.season);
    if (window > 0) {
      double recent = 0.0, reference = 0.0;
      for (std::size_t i = n - window; i < n; ++i) recent += history.values[i];
      for (std::size_t i = n - options.season - window; i < n - options.season; ++i) {
        reference += history.values[i];
      }
      if (reference > 0.0) {
        const double ratio = std::clamp(recent / reference, 0.2, 5.0);
        const double anchor = 1.0 + w * (ratio - 1.0);
        for (double& v : out) v *= anchor;
      }
    }
  }
  return out;
}

double forecast_mape(const Series& actuals, ForecastMethod method, std::size_t horizon,
                     std::size_t min_history, const ForecastOptions& options) {
  const std::size_t n = actuals.size();
  if (horizon == 0 || min_history == 0 || n <= min_history) return 0.0;
  double total = 0.0;
  std::size_t counted = 0;
  for (std::size_t split = min_history; split + 1 <= n; split += horizon) {
    Series prefix;
    prefix.start = actuals.start;
    prefix.epoch = actuals.epoch;
    prefix.values.assign(actuals.values.begin(),
                         actuals.values.begin() + static_cast<std::ptrdiff_t>(split));
    const auto predicted = forecast(prefix, horizon, method, options);
    for (std::size_t h = 0; h < horizon && split + h < n; ++h) {
      const double truth = actuals.values[split + h];
      if (truth == 0.0) continue;
      total += std::abs((truth - predicted[h]) / truth);
      ++counted;
    }
  }
  return counted ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace smn::telemetry
