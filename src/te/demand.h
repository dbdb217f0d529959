// Demand matrices: the interface between telemetry (bandwidth logs) and
// optimization (TE, capacity planning). §4: "traffic engineering
// controllers use the resulting demand estimates to compute network flow
// allocations". A matrix can be estimated from fine logs or from coarse
// window summaries — the fidelity difference between those two estimates is
// precisely what the coarsening experiments measure.
#pragma once

#include <string>
#include <vector>

#include "lp/mcf.h"
#include "telemetry/bandwidth_log.h"
#include "telemetry/forecast.h"
#include "telemetry/log_store.h"
#include "telemetry/time_coarsening.h"
#include "topology/wan.h"

namespace smn::te {

/// Which summary statistic turns a demand time series into one number.
enum class DemandStatistic { kMean, kP95, kMax };

struct DemandEntry {
  std::string src;
  std::string dst;
  double gbps = 0.0;
  /// Interned pair handle (shared util::IdSpace); kInvalidPairId when the
  /// entry was built from names outside the id space.
  util::PairId pair = util::kInvalidPairId;
};

/// Named demand matrix; node names resolve against a WanTopology at
/// commodity-construction time so the same type serves fine and coarse
/// granularities.
class DemandMatrix {
 public:
  void add(DemandEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<DemandEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  double total_gbps() const noexcept;

  /// Estimates a matrix from a fine log: per pair, `stat` over all epochs.
  /// Only each pair's own rows matter, so a log in storage order gives the
  /// same matrix as the same rows sorted.
  static DemandMatrix from_log(const telemetry::BandwidthLog& log, DemandStatistic stat);

  /// Estimates a matrix from coarse window summaries: per pair, the
  /// sample-weighted mean (kMean) or max of window p95s (kP95/kMax upper
  /// bounds — the only reconstructions the summaries permit).
  static DemandMatrix from_coarse_log(const telemetry::CoarseBandwidthLog& coarse,
                                      DemandStatistic stat);

  /// Day-ahead demand estimate (DESIGN.md §15): per pair in `log`, extract
  /// the fine series, forecast `horizon` epochs past its end, and take the
  /// mean forecast value as the pair's demand. `options.drift_level`
  /// carries the store's measured drift so level shifts discount stale
  /// history; at drift 0 this is exactly the drift-blind forecast. Emission
  /// order matches from_log (name-sorted), so downstream consumers see a
  /// deterministic matrix.
  static DemandMatrix from_forecast(const telemetry::BandwidthLog& log, std::size_t horizon,
                                    telemetry::ForecastMethod method,
                                    const telemetry::ForecastOptions& options = {});

  /// Resolves names against `wan`; entries naming unknown datacenters are
  /// skipped and counted in `*unresolved` when provided.
  std::vector<lp::Commodity> to_commodities(const topology::WanTopology& wan,
                                            std::size_t* unresolved = nullptr) const;

  /// Store-native snapshot of this matrix — the drift baseline handle the
  /// bandwidth store compares live ingest against. Entries without an
  /// interned PairId (built from names outside the id space) are skipped.
  telemetry::DemandBaseline to_baseline(util::SimTime solved_at) const;

 private:
  std::vector<DemandEntry> entries_;
};

}  // namespace smn::te
