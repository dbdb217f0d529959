// Demand forecasting from bandwidth logs (§4): "in wide-area SDNs, these
// historical logs are used to forecast future demand [19, 20, 26, 46]."
// The forecasters here are the standard operational baselines:
//
//   * seasonal-naive — next week looks like last week at the same epoch
//     (captures the diurnal/weekly structure that dominates WAN traffic);
//   * EWMA — exponentially weighted moving average (captures level
//     shifts, ignores seasonality);
//   * seasonal + growth — seasonal-naive scaled by the trailing
//     week-over-week growth ratio (captures the §4 long-term trend).
//
// Forecasters run on per-pair series extracted from either fine logs or
// coarse reconstructions, which is how the coarsening experiments measure
// what summarization does to forecast quality.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/bandwidth_log.h"

namespace smn::telemetry {

/// A per-pair, fixed-epoch series (values at start + i * epoch).
struct Series {
  util::SimTime start = 0;
  util::SimTime epoch = util::kTelemetryEpoch;
  std::vector<double> values;

  std::size_t size() const noexcept { return values.size(); }
};

/// Extracts a dense series for `src`->`dst` from `log` (missing epochs are
/// linearly interpolated; leading/trailing gaps repeat the edge value).
/// Returns an empty series when the pair never appears.
Series extract_series(const BandwidthLog& log, const std::string& src, const std::string& dst,
                      util::SimTime epoch = util::kTelemetryEpoch);

/// Id-addressed overload: the same densification for an interned pair
/// handle. kInvalidPairId (or a pair absent from the log) yields an empty
/// series.
Series extract_series(const BandwidthLog& log, util::PairId pair,
                      util::SimTime epoch = util::kTelemetryEpoch);

/// One-pass bulk extraction: a dense series for every distinct pair in
/// `log`, in ascending PairId order. Equivalent to calling the id-addressed
/// extract_series per pair, but groups the log once (telemetry/pair_groups.h)
/// instead of scanning it once per pair — the shape the per-pair demand
/// forecaster needs. Only each pair's own row order matters, so the sorted
/// fine_range() read and the same rows in storage order give the same
/// series.
std::vector<std::pair<util::PairId, Series>> extract_all_series(
    const BandwidthLog& log, util::SimTime epoch = util::kTelemetryEpoch);

enum class ForecastMethod { kSeasonalNaive, kEwma, kSeasonalGrowth };

std::string forecast_method_name(ForecastMethod method);

struct ForecastOptions {
  /// Season length in epochs (one week of five-minute epochs by default).
  std::size_t season = static_cast<std::size_t>(util::kWeek / util::kTelemetryEpoch);
  double ewma_alpha = 0.2;
  /// Measured demand drift vs the last TE solve (the store's
  /// DriftReport::level), fed in by the adaptive control loop (DESIGN.md
  /// §15). At the default 0 every method is byte-identical to the
  /// drift-blind forecast. Positive drift discounts stale history: the
  /// EWMA's effective alpha rises toward 1 so the level estimate
  /// re-converges on post-shift data, and the seasonal methods re-anchor
  /// last season's template on the trailing recent level — under a level
  /// shift the old absolute values are wrong even when the shape is right.
  double drift_level = 0.0;
  /// Decay knob: how fast drift saturates the re-weighting,
  /// weight = 1 - exp(-drift_decay * drift_level), in [0, 1).
  double drift_decay = 4.0;
  /// Trailing epochs defining the "recent level" the seasonal methods
  /// re-anchor on under drift (one day of telemetry epochs by default).
  std::size_t drift_recent_window =
      static_cast<std::size_t>(util::kDay / util::kTelemetryEpoch);
};

/// Forecasts `horizon` epochs past the end of `history`. Requires at least
/// one season of history for the seasonal methods (falls back to EWMA
/// otherwise).
std::vector<double> forecast(const Series& history, std::size_t horizon, ForecastMethod method,
                             const ForecastOptions& options = {});

/// Walk-forward evaluation: repeatedly forecast the next `horizon` epochs
/// from a growing prefix (starting at `min_history`), compare against the
/// actuals, and return the MAPE over all forecast points.
double forecast_mape(const Series& actuals, ForecastMethod method, std::size_t horizon,
                     std::size_t min_history, const ForecastOptions& options = {});

}  // namespace smn::telemetry
