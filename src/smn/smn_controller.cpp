#include "smn/smn_controller.h"

#include <algorithm>

#include "te/demand.h"
#include "util/contracts.h"

namespace smn::smn {
namespace {

DataCatalog default_catalog(const depgraph::ServiceGraph& sg) {
  DataCatalog catalog;
  // One telemetry dataset per team plus shared alert/incident/dependency
  // sets — the §6 "uniform schema" starting point.
  for (const std::string& team : sg.teams()) {
    catalog.register_dataset({.name = "telemetry." + team,
                              .owner_team = team,
                              .type = DataType::kTelemetry,
                              .schema = {{"latency_ms", "ms", true},
                                         {"error_rate", "fraction", true},
                                         {"cpu_util", "fraction", true},
                                         {"qps_ratio", "fraction", true}},
                              .description = team + " service health telemetry"});
    catalog.register_dataset({.name = "alerts." + team,
                              .owner_team = team,
                              .type = DataType::kAlert,
                              .schema = {{"severity", "fraction", true}},
                              .description = team + " alerts"});
  }
  catalog.register_dataset({.name = "incidents",
                            .owner_team = "smn",
                            .type = DataType::kIncident,
                            .schema = {{"assigned_team_index", "index", true}},
                            .description = "cloud-wide incident archive"});
  catalog.register_dataset({.name = "bandwidth.logs",
                            .owner_team = "network",
                            .type = DataType::kTelemetry,
                            .schema = {{"bw_gbps", "Gbps", true}},
                            .description = "inter-DC bandwidth logs (Listing 1)"});
  catalog.register_dataset({.name = "cross-layer.deps",
                            .owner_team = "smn",
                            .type = DataType::kDependency,
                            .schema = {},
                            .description = "cross-layer dependency records"});
  catalog.register_dataset({.name = "optical.link-risk",
                            .owner_team = "optical",
                            .type = DataType::kTelemetry,
                            .schema = {{"flaps_per_day", "1/day", true},
                                       {"cuts_per_year", "1/year", true},
                                       {"srlg_partners", "count", true}},
                            .description = "per-link risk from the optical layer"});
  return catalog;
}

/// The region-scoped slice of SmnConfig, in ControllerCore terms. The core
/// SMN_CHECK-validates the drift knobs at construction.
CoreConfig core_config(const SmnConfig& config) {
  CoreConfig core;
  core.bw_max_fine_age = config.bw_max_fine_age;
  core.bw_coarse_window = config.bw_coarse_window;
  core.bw_shards = config.bw_shards;
  core.bw_ingest_threads = config.bw_ingest_threads;
  core.bw_spill_dir = config.bw_spill_dir;
  core.drift_resolve_threshold = config.drift_resolve_threshold;
  core.drift_rearm_threshold = config.drift_rearm_threshold;
  core.drift_min_resolve_interval = config.drift_min_resolve_interval;
  return core;
}

/// Loop-period validation, run from config_'s initializer so a bad config
/// fails before the expensive members (data lake, CLTO training) construct.
SmnConfig validated(SmnConfig config) {
  SMN_CHECK(config.incident_loop_period > 0, "incident_loop_period must be positive");
  SMN_CHECK(config.telemetry_loop_period > 0, "telemetry_loop_period must be positive");
  SMN_CHECK(config.retention_loop_period > 0, "retention_loop_period must be positive");
  SMN_CHECK(config.planning_loop_period > 0, "planning_loop_period must be positive");
  SMN_CHECK(config.adaptive_forecast_horizon > 0,
            "adaptive_forecast_horizon must be positive");
  return config;
}

/// The adaptive policy's reaction clock measures the same excursions the
/// core's fire decision acts on: one threshold knob drives both.
AdaptiveConfig adaptive_config(const SmnConfig& config) {
  AdaptiveConfig adaptive = config.adaptive;
  adaptive.resolve_threshold = config.drift_resolve_threshold;
  return adaptive;
}

}  // namespace

SmnController::SmnController(const depgraph::ServiceGraph& sg, const topology::WanTopology& wan,
                             SmnConfig config)
    : sg_(sg),
      wan_(wan),
      config_(validated(config)),
      lake_(default_catalog(sg), config.clto.seed),
      clto_(sg, bus_, config.clto),
      core_(core_config(config_), "smn"),
      adaptive_(adaptive_config(config_)),
      query_budget_(config_.query_budget) {
  // Seed the control plane: a static route per datacenter via its first
  // graph neighbor (stands in for an IGP) — the generalized control plane
  // manages these alongside everything else.
  for (graph::NodeId n = 0; n < wan_.datacenter_count(); ++n) {
    const auto edges = wan_.graph().out_edges(n);
    if (edges.empty()) continue;
    RibEntry route;
    route.prefix = wan_.datacenter(n).name;
    route.next_hop = wan_.graph().node_name(wan_.graph().edge(edges[0]).to);
    route.metric = 10;
    route.protocol = "static";
    rib_.add_route(route);
  }
  fib_.program_from(rib_);

  loops_.add_loop({"telemetry-ingest", config_.telemetry_loop_period,
                   [this](util::SimTime now) {
                     core_.publish_store_gauges(mib_, now);
                     query_budget_.publish_gauges(mib_, core_.scope());
                   }});
  loops_.add_loop({"drift-watch", config_.telemetry_loop_period,
                   [this](util::SimTime now) { check_demand_drift(now); }});
  loops_.add_loop({"retention", config_.retention_loop_period,
                   [this](util::SimTime now) { run_retention(now); }});
  loops_.add_loop({"capacity-planning", config_.planning_loop_period,
                   [this](util::SimTime now) { run_capacity_planning(now); }});
}

void SmnController::ingest_telemetry(const std::string& dataset, Record record) {
  denoiser_.denoise(dataset, record);
  lake_.ingest(dataset, std::move(record));
  mib_.increment_counter("smn", "records_ingested");
}

std::size_t SmnController::ingest_bandwidth(const telemetry::BandwidthLog& log) {
  return core_.ingest_bandwidth(log, mib_);
}

RoutingDecision SmnController::handle_incident(const incident::Incident& incident,
                                               util::SimTime now) {
  const std::uint64_t id = next_incident_id_++;
  const RoutingDecision decision = clto_.route_incident(incident, now, id);

  // Archive the incident in the CLDS (retention keeps these for years).
  Record archive;
  archive.timestamp = now;
  archive.incident_id = id;
  archive.numeric = {{"assigned_team_index", static_cast<double>(decision.team)}};
  archive.tags = {{"assigned_team", decision.team_name}};
  lake_.ingest("incidents", archive);

  // Enrichment: attach nearest past incidents, then remember this one.
  const incident::FeatureExtractor extractor(sg_, clto_.cdg());
  const std::vector<double> features = extractor.combined_features(incident);
  enricher_.similar(features, 3);  // consumers read via enricher(); archived next:
  enricher_.add_resolved({id, features, decision.team_name, "routed by CLTO"});

  // Automatic mitigation proposals.
  const auto actions = mitigator_.propose(sg_, incident);
  mitigator_.publish(actions, bus_, now, id);
  mib_.increment_counter("smn", "incidents_handled");
  return decision;
}

std::size_t SmnController::ingest_optical_risks(const optical::OpticalNetwork& underlay,
                                                util::SimTime now) {
  std::size_t written = 0;
  for (const optical::LinkRisk& risk : underlay.assess_risks()) {
    if (risk.logical_link >= wan_.link_count()) continue;
    Record r;
    r.timestamp = now;
    r.numeric = {{"flaps_per_day", risk.expected_flaps_per_day},
                 {"cuts_per_year", risk.expected_cuts_per_year},
                 {"srlg_partners", static_cast<double>(risk.srlg_partners.size())}};
    const graph::Edge& edge = wan_.graph().edge(wan_.link(risk.logical_link).forward);
    r.tags = {{"link", wan_.graph().node_name(edge.from) + "<->" +
                           wan_.graph().node_name(edge.to)}};
    lake_.ingest("optical.link-risk", std::move(r));
    ++written;
  }
  // Cartography: wavelength -> logical link dependency records.
  for (std::size_t i = 0; i < underlay.wavelength_count(); ++i) {
    const optical::Wavelength& w = underlay.wavelength(i);
    if (!w.logical_link || *w.logical_link >= wan_.link_count()) continue;
    const graph::Edge& edge = wan_.graph().edge(wan_.link(*w.logical_link).forward);
    Record dep;
    dep.timestamp = now;
    dep.tags = {{"from", "link:" + wan_.graph().node_name(edge.from) + "~" +
                             wan_.graph().node_name(edge.to)},
                {"to", "wavelength:" + w.id}};
    lake_.ingest("cross-layer.deps", std::move(dep));
    ++written;
  }
  mib_.increment_counter("smn", "optical_risk_records", static_cast<double>(written));
  return written;
}

std::size_t SmnController::tick(util::SimTime now) { return loops_.tick(now); }

std::size_t SmnController::run_retention(util::SimTime now) {
  const std::size_t lake_retired = lake_.apply_retention(now, config_.retention);
  const std::size_t bw_retired = core_.run_bw_retention(now);
  mib_.increment_counter("smn", "records_retired",
                         static_cast<double>(lake_retired + bw_retired));
  return lake_retired + bw_retired;
}

telemetry::BandwidthLog SmnController::recent_bandwidth(util::SimTime now) const {
  // Storage order, unsorted: every consumer groups the rows by pair
  // (telemetry/pair_groups.h), which yields the sorted read's per-pair
  // sequences, so the sort would buy nothing but time.
  return core_.store().read_view().storage_range(
      now - util::kMonth < 0 ? 0 : now - util::kMonth, now);
}

capacity::CapacityPlan SmnController::finish_planning(const telemetry::BandwidthLog& recent,
                                                      util::SimTime now) {
  core_.note_te_solve(now);
  mib_.set_gauge("smn", "last_te_solve", static_cast<double>(now));
  return clto_.plan_capacity(wan_, recent, now);
}

capacity::CapacityPlan SmnController::run_capacity_planning(util::SimTime now) {
  const telemetry::BandwidthLog recent = recent_bandwidth(now);
  // Snapshot the demand this solve is based on: the drift-watch loop
  // compares live ingest against it to decide when the plan went stale.
  const te::DemandMatrix demand =
      te::DemandMatrix::from_log(recent, te::DemandStatistic::kMean);
  if (!demand.entries().empty()) {
    core_.store().set_demand_baseline(demand.to_baseline(now));
  }
  return finish_planning(recent, now);
}

lp::McfResult SmnController::run_adaptive_resolve(util::SimTime now) {
  // Read the drift this re-solve is answering before anything resets it;
  // it sets both the forecast's history discount and the chosen epsilon.
  const telemetry::DriftReport report = core_.store().drift();
  adaptive_.observe(report.level, now);
  const util::SimTime latency = adaptive_.note_resolve(now);

  const telemetry::BandwidthLog recent = recent_bandwidth(now);
  telemetry::ForecastOptions forecast_options;
  forecast_options.drift_level = report.level;
  const te::DemandMatrix demand = te::DemandMatrix::from_forecast(
      recent, config_.adaptive_forecast_horizon, telemetry::ForecastMethod::kEwma,
      forecast_options);

  lp::McfOptions mcf_options;
  mcf_options.epsilon = adaptive_.epsilon();
  mcf_options.warm_start = &te_path_cache_;
  lp::McfResult solved =
      lp::max_concurrent_flow(wan_.graph(), demand.to_commodities(wan_), mcf_options);
  adaptive_.record_solve(solved.warm_hits, solved.warm_misses, solved.sp_calls,
                         solved.lambda);

  // The forecast becomes the drift baseline: live ingest is now judged
  // against what this solve planned for, so drift settles and the trigger
  // re-arms once the plan actually matches reality.
  if (!demand.entries().empty()) {
    core_.store().set_demand_baseline(demand.to_baseline(now));
  }
  finish_planning(recent, now);

  mib_.set_gauge("smn", "adaptive_epsilon", adaptive_.epsilon());
  mib_.set_gauge("smn", "adaptive_warm_hit_rate", adaptive_.warm_hit_rate());
  mib_.set_gauge("smn", "adaptive_reaction_latency_s", static_cast<double>(latency));
  mib_.increment_counter("smn", "adaptive_te_resolves");
  return solved;
}

telemetry::DriftReport SmnController::check_demand_drift(util::SimTime now) {
  const telemetry::DriftReport report = core_.check_demand_drift(
      now, mib_, [this](util::SimTime t) { run_adaptive_resolve(t); });
  // Every tick feeds the policy (not just fires), so epsilon relaxes as
  // drift settles between solves; the gauge always shows what the next
  // re-solve would use.
  mib_.set_gauge("smn", "adaptive_epsilon", adaptive_.observe(report.level, now));
  return report;
}

std::vector<ParadigmComparison> SmnController::sdn_vs_smn() {
  return {
      {"Scope", "Data Plane", "All Planes"},
      {"Timescale", "microseconds to Hours", "Minutes to Years"},
      {"Data Inputs", "Structured (Traffic, Topology)", "Mixed (Telemetry, Logs)"},
      {"Outputs", "Actions (e.g., add FIB entry)", "Actions, Process Changes"},
      {"APIs", "OpenFlow, P4", "OpenTelemetry, OpenConfig"},
      {"Enabling Technologies", "NoSQL, Compilers, Optimization",
       "Data Lakes, Generative AI, ML"},
      {"Managed Layers", "L2-L3", "L1-L7"},
  };
}

}  // namespace smn::smn
