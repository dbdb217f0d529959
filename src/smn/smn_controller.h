// The SMN Controller of Figure 1: owns the CLDS (data lake + catalog), the
// Cloud Dependency Graph, the CLTO optimizer, the generalized control
// plane (RIB/FIB/MIB), the AIOps hooks, and the multi-timescale control
// loops. This is the library's top-level façade — examples and benches
// drive the whole system through it.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "depgraph/service_graph.h"
#include "lp/mcf.h"
#include "optical/optical.h"
#include "smn/adaptive_controller.h"
#include "smn/aiops.h"
#include "smn/clto.h"
#include "smn/control_plane.h"
#include "smn/controller_core.h"
#include "smn/data_lake.h"
#include "smn/feedback.h"
#include "smn/query.h"
#include "smn/query_serving.h"
#include "telemetry/log_store.h"
#include "topology/wan.h"

namespace smn::smn {

struct SmnConfig {
  CltoConfig clto;
  RetentionPolicy retention;
  /// Periods of the built-in control loops. SMN_CHECK-validated at
  /// construction, as are the drift knobs below: zero/negative periods and
  /// an inverted hysteresis band used to be accepted silently and armed
  /// control loops that could never fire (or never stop firing).
  util::SimTime incident_loop_period = util::kMinute;
  util::SimTime telemetry_loop_period = 5 * util::kMinute;
  util::SimTime retention_loop_period = util::kDay;
  util::SimTime planning_loop_period = util::kMonth;
  /// Bandwidth-store retention: fine segments older than this are sealed
  /// into `bw_coarse_window` summaries by the retention loop.
  util::SimTime bw_max_fine_age = util::kWeek;
  util::SimTime bw_coarse_window = util::kHour;
  /// Bandwidth-store sharding: PairId-hash shards and the worker count for
  /// bulk ingest / retention (0 = min(shards, hardware threads)).
  std::size_t bw_shards = 8;
  std::size_t bw_ingest_threads = 0;
  /// Bandwidth-store cold tier: when non-empty, the retention loop spills
  /// sealed fine segments to flat column files under this directory instead
  /// of discarding them (fine_range() maps them back transparently). Empty
  /// keeps the drop-on-seal behavior. The directory must be private to this
  /// controller instance.
  std::string bw_spill_dir;
  /// Drift-triggered TE re-solve: fire an early capacity-planning pass when
  /// aggregate demand drift vs the last solve crosses
  /// `drift_resolve_threshold`; stay disarmed until drift falls back below
  /// `drift_rearm_threshold` (hysteresis), and never fire within
  /// `drift_min_resolve_interval` of the previous solve.
  double drift_resolve_threshold = 0.25;
  double drift_rearm_threshold = 0.10;
  util::SimTime drift_min_resolve_interval = util::kHour;
  /// Closed-loop adaptive control (DESIGN.md §15): the drift -> epsilon
  /// policy of the drift-triggered re-solve, and the day-ahead horizon (in
  /// telemetry epochs) of its drift-weighted demand forecast.
  /// `adaptive.resolve_threshold` is overridden with
  /// `drift_resolve_threshold` at construction so one knob arms both the
  /// core's fire decision and the policy's reaction clock.
  AdaptiveConfig adaptive;
  std::size_t adaptive_forecast_horizon =
      static_cast<std::size_t>(util::kDay / util::kTelemetryEpoch);
  /// Admission control of the served query surface (serve_query /
  /// serve_bandwidth_range): in-flight cap and per-query deadline SLO.
  QueryBudgetConfig query_budget;
};

/// One row of the paper's Table 1 (SDN vs SMN).
struct ParadigmComparison {
  std::string aspect;
  std::string sdn;
  std::string smn;
};

class SmnController {
 public:
  /// `sg` is the cloud's fine-grained service graph (teams derive from it);
  /// `wan` is the L1-L3 topology under management. Both must outlive the
  /// controller.
  SmnController(const depgraph::ServiceGraph& sg, const topology::WanTopology& wan,
                SmnConfig config = {});
  /// Keeps references to both structures; temporaries would dangle.
  SmnController(depgraph::ServiceGraph&&, const topology::WanTopology&, SmnConfig) = delete;
  SmnController(const depgraph::ServiceGraph&, topology::WanTopology&&, SmnConfig) = delete;

  // --- Figure-1 components ---
  DataLake& clds() noexcept { return lake_; }
  const DataLake& clds() const noexcept { return lake_; }
  const depgraph::Cdg& cdg() const noexcept { return clto_.cdg(); }
  Clto& clto() noexcept { return clto_; }
  FeedbackBus& feedback() noexcept { return bus_; }
  const FeedbackBus& feedback() const noexcept { return bus_; }
  Rib& rib() noexcept { return rib_; }
  Fib& fib() noexcept { return fib_; }
  Mib& mib() noexcept { return mib_; }
  TelemetryDenoiser& denoiser() noexcept { return denoiser_; }
  IncidentEnricher& enricher() noexcept { return enricher_; }
  telemetry::BandwidthLogStore& bandwidth_store() noexcept { return core_.store(); }

  /// Ingests telemetry through the AIOps denoiser into the CLDS.
  void ingest_telemetry(const std::string& dataset, Record record);

  /// Streams a bandwidth log into the store (columnar, builds the open
  /// window accumulators the retention loop seals). Returns records added.
  std::size_t ingest_bandwidth(const telemetry::BandwidthLog& log);

  /// Publishes the optical layer's risk map (per-link flap/cut rates and
  /// SRLG exposure) into the "optical.link-risk" dataset, and the
  /// wavelength->link cartography into "cross-layer.deps" — the §7
  /// cross-layer inputs the CLTO's planning loop consumes. Returns the
  /// number of records written.
  std::size_t ingest_optical_risks(const optical::OpticalNetwork& underlay,
                                   util::SimTime now);

  /// Runs a CLDS query as `team` (convenience over run_query). Unbudgeted:
  /// internal/control-loop callers only — external serving goes through
  /// serve_query below.
  std::vector<QueryRow> query(const std::string& team, const Query& q) const {
    return run_query(lake_, team, q);
  }

  /// Budget-gated CLDS query: the external serving surface. Sheds on
  /// overload instead of queueing (DESIGN.md §14 admission semantics).
  ServedQuery serve_query(const std::string& team, const Query& q) const {
    return smn::serve_query(lake_, team, q, query_budget_);
  }

  /// Budget-gated snapshot read of the bandwidth store: lock-free against
  /// the controller's own ingest and retention loops.
  ServedFineRange serve_bandwidth_range(util::SimTime begin, util::SimTime end) const {
    return smn::serve_fine_range(core_.store(), begin, end, query_budget_);
  }

  QueryBudget& query_budget() const noexcept { return query_budget_; }

  /// Full incident pipeline: route via CLTO, enrich with similar past
  /// incidents, propose mitigations. Returns the routing decision.
  RoutingDecision handle_incident(const incident::Incident& incident, util::SimTime now);

  /// Runs all registered control loops due at `now`.
  std::size_t tick(util::SimTime now);

  /// Retention pass over the CLDS and the bandwidth store (also runs from
  /// the retention loop). Returns lake records plus fine bandwidth records
  /// retired.
  std::size_t run_retention(util::SimTime now);

  /// Capacity planning pass over the managed WAN using the bandwidth store
  /// (also runs from the planning loop). Installs the solved demand matrix
  /// as the store's drift baseline.
  capacity::CapacityPlan run_capacity_planning(util::SimTime now);

  /// Drift-watch pass (also runs from its control loop): publishes drift
  /// gauges, feeds the adaptive policy, and fires an early adaptive
  /// re-solve when aggregate drift crosses the configured threshold,
  /// subject to hysteresis and the min-interval guard. Returns the drift
  /// report it acted on.
  telemetry::DriftReport check_demand_drift(util::SimTime now);

  /// The drift-triggered adaptive re-solve (DESIGN.md §15): forecasts
  /// day-ahead demand with the measured drift discounting stale history,
  /// solves TE at the policy-chosen epsilon warm-started from the previous
  /// solve's path cache, installs the forecast as the new drift baseline
  /// (so drift settles and the trigger re-arms), runs the capacity-planning
  /// tail, and publishes the adaptive gauges (adaptive_epsilon,
  /// adaptive_warm_hit_rate, adaptive_reaction_latency_s,
  /// adaptive_te_resolves). Fired by the drift-watch loop; callable
  /// directly.
  lp::McfResult run_adaptive_resolve(util::SimTime now);

  const AdaptiveController& adaptive() const noexcept { return adaptive_; }
  const lp::McfPathCache& te_path_cache() const noexcept { return te_path_cache_; }

  std::uint64_t early_te_resolves() const noexcept { return core_.early_te_resolves(); }

  std::uint64_t incidents_handled() const noexcept { return next_incident_id_ - 1; }

  /// Table 1 of the paper, as data.
  static std::vector<ParadigmComparison> sdn_vs_smn();

 private:
  /// The trailing-month fine slice both planning passes estimate from, in
  /// storage order (ReadView::storage_range): the demand estimators and
  /// the capacity planner give bit-identical results on it and on the
  /// sorted fine_range() of the same month.
  telemetry::BandwidthLog recent_bandwidth(util::SimTime now) const;
  /// Shared planning tail: records the solve time (min-interval guard +
  /// gauge) and runs the CLTO capacity planner over `recent`.
  capacity::CapacityPlan finish_planning(const telemetry::BandwidthLog& recent,
                                         util::SimTime now);

  const depgraph::ServiceGraph& sg_;
  const topology::WanTopology& wan_;
  SmnConfig config_;
  FeedbackBus bus_;
  DataLake lake_;
  Clto clto_;
  Rib rib_;
  Fib fib_;
  Mib mib_;
  TelemetryDenoiser denoiser_;
  IncidentEnricher enricher_;
  MitigationEngine mitigator_;
  /// The region-scoped engine (bandwidth store, drift hysteresis, gauge
  /// publication) shared with the federation's RegionController.
  ControllerCore core_;
  /// Drift -> epsilon policy plus the reaction clock of the adaptive loop.
  AdaptiveController adaptive_;
  /// Cross-solve warm-start state of the adaptive re-solve. Only
  /// run_adaptive_resolve touches it, and re-solves are serialized by the
  /// core's drift state machine.
  lp::McfPathCache te_path_cache_;
  /// Admission gate of the served query surface. mutable: serving is
  /// logically read-only on the controller (the budget's atomics are its
  /// own internally-synchronized state).
  mutable QueryBudget query_budget_;
  ControlLoopRunner loops_;
  std::uint64_t next_incident_id_ = 1;
};

}  // namespace smn::smn
