// The top-level SMN controller, the CLTO, and the war stories.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "depgraph/reddit.h"
#include "smn/smn_controller.h"
#include "optical/optical.h"
#include "smn/war_stories.h"
#include "te/demand.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/contracts.h"

namespace smn::smn {
namespace {

/// Shared fixture: Clto training is the expensive part, do it once.
struct World {
  depgraph::ServiceGraph sg = depgraph::build_reddit_deployment();
  topology::WanTopology wan = topology::generate_test_wan();
  SmnController controller{sg, wan};
};

World& world() {
  static World w;
  return w;
}

incident::Incident simulate(const char* component, incident::FaultType type,
                            std::uint64_t seed, std::size_t variant = 0) {
  incident::IncidentSimulator sim(world().sg);
  util::Rng rng(seed);
  return sim.simulate({type, *world().sg.find(component), variant}, rng);
}

TEST(Clto, TrainsToUsefulHoldoutAccuracy) {
  EXPECT_GT(world().controller.clto().router_holdout_accuracy(), 0.4);
}

TEST(Clto, RouteIncidentPublishesAssignment) {
  World& w = world();
  const std::size_t before = w.controller.feedback().size();
  const auto inc = simulate("postgres-primary", incident::FaultType::kDiskPressure, 3);
  const RoutingDecision decision = w.controller.clto().route_incident(inc, util::kHour, 1001);
  EXPECT_LT(decision.team, w.sg.teams().size());
  EXPECT_FALSE(decision.team_name.empty());
  EXPECT_GT(decision.confidence, 0.0);
  const auto assignments = w.controller.feedback().of_kind(FeedbackKind::kIncidentAssignment);
  ASSERT_GT(w.controller.feedback().size(), before);
  ASSERT_FALSE(assignments.empty());
  EXPECT_EQ(assignments.back().target, decision.team_name);
  EXPECT_EQ(assignments.back().incident_id, 1001u);
}

TEST(Clto, InformsSymptomaticTeams) {
  World& w = world();
  const auto inc = simulate("hypervisor-2", incident::FaultType::kHypervisorFailure, 4);
  const RoutingDecision decision = w.controller.clto().route_incident(inc, util::kHour, 1002);
  // A fan-out fault leaves several symptomatic teams to inform.
  EXPECT_GE(decision.informed_teams.size(), 1u);
  for (const std::string& team : decision.informed_teams) {
    EXPECT_NE(team, decision.team_name);
  }
}

TEST(Clto, CapacityPlanPublishesFeedback) {
  // Dedicated small world so feedback counts are isolated.
  const depgraph::ServiceGraph sg = depgraph::build_reddit_deployment();
  FeedbackBus bus;
  CltoConfig config;
  config.training_incidents = 80;
  config.forest_trees = 20;
  Clto clto(sg, bus, config);

  topology::WanTopology wan;
  const auto a = wan.add_datacenter({"w/a", "w", "na", 0, 0});
  const auto b = wan.add_datacenter({"w/b", "w", "na", 1, 0});
  const auto c = wan.add_datacenter({"e/c", "e", "na", 2, 0});
  wan.add_link(a, b, 100.0, 100.0, 1.0);  // locked
  wan.add_link(b, c, 100.0, 300.0, 1.0);
  telemetry::BandwidthLog log;
  for (int e = 0; e < 20; ++e) {
    log.append({e * util::kTelemetryEpoch, "w/a", "w/b", 90.0});
    log.append({e * util::kTelemetryEpoch, "w/b", "e/c", 90.0});
  }
  const auto plan = clto.plan_capacity(wan, log, util::kDay);
  EXPECT_EQ(plan.upgrades.size(), 1u);
  EXPECT_EQ(plan.fiber_build_requests.size(), 1u);
  EXPECT_EQ(bus.of_kind(FeedbackKind::kCapacityUpgrade).size(), 1u);
  const auto fiber = bus.of_kind(FeedbackKind::kFiberBuildRequest);
  ASSERT_EQ(fiber.size(), 1u);
  EXPECT_EQ(fiber[0].target, "external:fiber-provider");
}

TEST(SmnController, IngestCountsAndDenoises) {
  World& w = world();
  Record r;
  r.timestamp = 0;
  r.numeric["latency_ms"] = 10.0;
  w.controller.ingest_telemetry("telemetry.application", r);
  EXPECT_GE(w.controller.clds().record_count("telemetry.application"), 1u);
  EXPECT_GE(*w.controller.mib().get("smn", "records_ingested"), 1.0);
}

TEST(SmnController, HandleIncidentRunsFullPipeline) {
  World& w = world();
  // Variant 3 injects at high severity (>= 0.71), ensuring the mitigation
  // threshold (0.6) is crossed at the root.
  const auto inc = simulate("rabbitmq", incident::FaultType::kProcessCrash, 5, 3);
  const RoutingDecision decision = w.controller.handle_incident(inc, 2 * util::kHour);
  EXPECT_FALSE(decision.team_name.empty());
  // Incident archived in the CLDS.
  EXPECT_GE(w.controller.clds().record_count("incidents"), 1u);
  // Enricher remembers it.
  EXPECT_GE(w.controller.enricher().archive_size(), 1u);
  // Crash at severity >= 0.6 triggers at least one mitigation proposal.
  EXPECT_FALSE(w.controller.feedback().of_kind(FeedbackKind::kMitigation).empty());
}

TEST(SmnController, ControlPlaneSeeded) {
  World& w = world();
  EXPECT_GT(w.controller.rib().size(), 0u);
  EXPECT_GT(w.controller.fib().size(), 0u);
  const std::string first_dc = w.wan.datacenter(0).name;
  EXPECT_TRUE(w.controller.fib().lookup(first_dc).has_value());
}

TEST(SmnController, TickRunsLoops) {
  World& w = world();
  EXPECT_GT(w.controller.tick(0), 0u);
}

TEST(SmnController, RetentionReducesLake) {
  World& w = world();
  for (util::SimTime t = 0; t < 20 * util::kDay; t += util::kHour) {
    Record r;
    r.timestamp = t;
    r.numeric["cpu_util"] = 0.5;
    w.controller.ingest_telemetry("telemetry.network", r);
  }
  const std::size_t retired = w.controller.run_retention(20 * util::kDay);
  EXPECT_GT(retired, 0u);
}

TEST(SmnController, IngestsOpticalRisksAndAnswersQueries) {
  World& w = world();
  const optical::OpticalNetwork underlay = optical::build_underlay(w.wan, 77);
  const std::size_t written = w.controller.ingest_optical_risks(underlay, util::kDay);
  EXPECT_GT(written, w.wan.link_count());  // risks + cartography
  // Query the risk dataset through the controller's query interface.
  Query q;
  q.dataset = "optical.link-risk";
  q.group_by_tag = "link";
  q.aggregation = Aggregation::kMax;
  q.field = "flaps_per_day";
  const auto rows = w.controller.query("network", q);
  EXPECT_EQ(rows.size(), w.wan.link_count());
  for (const QueryRow& row : rows) EXPECT_GE(row.value, 0.0);
  // Dependency cartography landed too.
  Query deps;
  deps.dataset = "cross-layer.deps";
  EXPECT_GT(w.controller.query("smn", deps)[0].matched, 0u);
}

TEST(SmnController, DriftTriggeredResolveFiresEarlyWithHysteresis) {
  // Dedicated small world: cheap Clto, three-DC WAN, two demand pairs.
  const depgraph::ServiceGraph sg = depgraph::build_reddit_deployment();
  topology::WanTopology wan;
  const auto a = wan.add_datacenter({"d/a", "d", "na", 0, 0});
  const auto b = wan.add_datacenter({"d/b", "d", "na", 1, 0});
  const auto c = wan.add_datacenter({"d/c", "d", "na", 2, 0});
  wan.add_link(a, b, 1000.0, 2000.0, 1.0);
  wan.add_link(b, c, 1000.0, 2000.0, 1.0);

  SmnConfig config;
  config.clto.training_incidents = 80;
  config.clto.forest_trees = 20;
  config.bw_shards = 4;
  // Defaults under test: fire at 0.25, re-arm below 0.10, min interval 1h,
  // fixed planning period one month.
  SmnController controller(sg, wan, config);

  const auto ingest_hour = [&](util::SimTime from, double gbps) {
    telemetry::BandwidthLog log;
    for (util::SimTime t = from; t < from + util::kHour; t += util::kTelemetryEpoch) {
      log.append({t, "d/a", "d/b", gbps});
      log.append({t, "d/b", "d/c", gbps});
    }
    controller.ingest_bandwidth(log);
  };

  // Steady state, then a solve that snapshots 100 Gbps per pair.
  ingest_hour(0, 100.0);
  controller.run_capacity_planning(util::kHour);
  EXPECT_EQ(controller.early_te_resolves(), 0u);
  EXPECT_EQ(controller.check_demand_drift(util::kHour).level, 0.0);

  // Step change: demand triples. The drift check fires an early re-solve
  // one hour in — far before the one-month planning period.
  ingest_hour(util::kHour, 300.0);
  const telemetry::DriftReport fired = controller.check_demand_drift(2 * util::kHour);
  EXPECT_GT(fired.level, config.drift_resolve_threshold);
  EXPECT_EQ(controller.early_te_resolves(), 1u);
  ASSERT_TRUE(controller.mib().get("smn", "early_te_resolves").has_value());
  EXPECT_EQ(*controller.mib().get("smn", "early_te_resolves"), 1.0);
  EXPECT_LT(2 * util::kHour, config.planning_loop_period);  // early indeed

  // The re-solve installed its drift-weighted forecast (~300) as the new
  // baseline, so a SECOND excursion right after still reads as drift; the
  // min-interval guard blocks a re-fire this soon after the last one.
  ingest_hour(2 * util::kHour, 600.0);
  controller.check_demand_drift(2 * util::kHour + 10 * util::kMinute);
  EXPECT_EQ(controller.early_te_resolves(), 1u);

  // One hour later the interval guard has lapsed, but the trigger is still
  // disarmed because drift never fell below the re-arm threshold: the
  // hysteresis half of the state machine.
  const telemetry::DriftReport held = controller.check_demand_drift(3 * util::kHour);
  EXPECT_GE(held.level, config.drift_rearm_threshold);
  EXPECT_EQ(controller.early_te_resolves(), 1u);

  // Demand settles back onto the forecast baseline: drift decays below the
  // re-arm threshold and the trigger re-arms.
  ingest_hour(3 * util::kHour, 300.0);
  const telemetry::DriftReport settled = controller.check_demand_drift(4 * util::kHour);
  EXPECT_LT(settled.level, config.drift_rearm_threshold);
  EXPECT_EQ(controller.early_te_resolves(), 1u);

  // A third excursion now fires a second early solve.
  ingest_hour(4 * util::kHour, 900.0);
  controller.check_demand_drift(5 * util::kHour);
  EXPECT_EQ(controller.early_te_resolves(), 2u);
  EXPECT_GE(*controller.mib().get("smn", "bw_drift_level"), 0.0);
}

/// A controller config whose Clto trains in a fraction of the default time.
SmnConfig quick_config() {
  SmnConfig config;
  config.clto.training_incidents = 80;
  config.clto.forest_trees = 20;
  return config;
}

TEST(SmnController, GaugeTicksTakeNoReadView) {
  const depgraph::ServiceGraph sg = depgraph::build_reddit_deployment();
  const topology::WanTopology wan = topology::generate_test_wan();
  const SmnConfig config = quick_config();
  SmnController controller(sg, wan, config);
  const auto views = [&] { return *controller.mib().get("smn", "bw_read_views_acquired"); };

  // The first tick runs every loop: the gauges publish first, then the
  // planning pass reads the (empty) store through one view.
  controller.tick(0);
  EXPECT_EQ(views(), 0.0);
  // Later ticks run only the gauge and drift loops, which take no view:
  // the counter stays at the planning pass's single read.
  for (int i = 1; i <= 24; ++i) {
    controller.tick(i * config.telemetry_loop_period);
    EXPECT_EQ(views(), 1.0) << "tick " << i;
  }
  EXPECT_EQ(controller.bandwidth_store().stats().views_acquired, 1u);
  EXPECT_EQ(*controller.mib().get("smn", "bw_read_views_live"), 0.0);
}

TEST(SmnController, SnapshotAgeGaugeMatchesReadViewHighWater) {
  const depgraph::ServiceGraph sg = depgraph::build_reddit_deployment();
  const topology::WanTopology wan = topology::generate_test_wan();
  SmnConfig config = quick_config();
  config.bw_max_fine_age = util::kDay;
  config.bw_spill_dir = ::testing::TempDir() + "smn_controller_snapshot_age";
  std::filesystem::remove_all(config.bw_spill_dir);
  SmnController controller(sg, wan, config);

  telemetry::TrafficConfig traffic;
  traffic.duration = 3 * util::kDay;
  traffic.active_pairs = 24;
  traffic.seed = 31;
  controller.ingest_bandwidth(telemetry::TrafficGenerator(wan, traffic).generate());

  // Days 0 and 1 spill; day 2 stays resident.
  const util::SimTime now = 3 * util::kDay + util::kHour;
  controller.run_retention(now);
  const telemetry::LogStoreStats stats = controller.bandwidth_store().stats();
  ASSERT_GT(stats.spilled_records, 0u);
  ASSERT_GT(stats.fine_records, 0u);

  const util::SimTime high_water = controller.bandwidth_store().read_view().high_water();
  ASSERT_GT(high_water, 0);
  controller.tick(now);
  EXPECT_EQ(*controller.mib().get("smn", "bw_snapshot_age"),
            static_cast<double>(now - high_water));
}

TEST(SmnController, PlanAndResolveFromTheStorageOrderReadMatchTheSortedRead) {
  // The planning passes read the trailing month in storage order and group
  // it by pair; on a multi-shard store with spilled days their demand and
  // plan must equal what the (timestamp, name)-sorted fine_range() of the
  // same month gives, bit for bit.
  const depgraph::ServiceGraph sg = depgraph::build_reddit_deployment();
  const topology::WanTopology wan = topology::generate_test_wan();
  SmnConfig config = quick_config();
  config.bw_shards = 8;
  config.bw_max_fine_age = util::kDay;
  config.bw_spill_dir = ::testing::TempDir() + "smn_controller_storage_order";
  std::filesystem::remove_all(config.bw_spill_dir);
  SmnController controller(sg, wan, config);
  const telemetry::BandwidthLogStore& store = controller.bandwidth_store();

  telemetry::TrafficConfig traffic;
  traffic.duration = 4 * util::kDay;
  traffic.active_pairs = 60;
  traffic.seed = 41;
  traffic.regimes = {{telemetry::RegimeKind::kLevelShift, 3 * util::kDay, 0, 2.0, ""}};
  const telemetry::BandwidthLog trace = telemetry::TrafficGenerator(wan, traffic).generate();
  const auto ingest_days = [&](util::SimTime from, util::SimTime to) {
    telemetry::BandwidthLog part;
    part.append_time_filtered(trace.timestamps(), trace.pair_ids(), trace.bandwidths(), from,
                              to);
    controller.ingest_bandwidth(part);
  };

  // Days 0-2 ingested; the retention pass spills days 0 and 1.
  ingest_days(0, 3 * util::kDay);
  const util::SimTime plan_at = 3 * util::kDay;
  controller.run_retention(plan_at);
  ASSERT_GT(store.stats().spilled_records, 0u);

  capacity::PlannerConfig planner_config = config.clto.planner;
  planner_config.cross_layer = true;
  const capacity::CapacityPlan want_plan =
      capacity::CapacityPlanner(wan, planner_config).plan(store.fine_range(0, plan_at));
  const capacity::CapacityPlan plan = controller.run_capacity_planning(plan_at);
  ASSERT_FALSE(want_plan.upgrades.empty());
  ASSERT_EQ(plan.upgrades.size(), want_plan.upgrades.size());
  for (std::size_t i = 0; i < plan.upgrades.size(); ++i) {
    EXPECT_EQ(plan.upgrades[i].link_index, want_plan.upgrades[i].link_index);
    EXPECT_EQ(plan.upgrades[i].proposed_capacity_gbps,
              want_plan.upgrades[i].proposed_capacity_gbps);
    EXPECT_EQ(plan.upgrades[i].overload_fraction, want_plan.upgrades[i].overload_fraction);
  }
  EXPECT_EQ(plan.fiber_build_requests, want_plan.fiber_build_requests);
  EXPECT_EQ(plan.total_added_gbps, want_plan.total_added_gbps);

  // Day 3 doubles demand: the re-solve forecasts under measured drift.
  ingest_days(3 * util::kDay, 4 * util::kDay);
  const util::SimTime resolve_at = 4 * util::kDay;
  const double level = store.drift().level;
  ASSERT_GT(level, 0.0);
  telemetry::ForecastOptions forecast_options;
  forecast_options.drift_level = level;
  const te::DemandMatrix want_demand = te::DemandMatrix::from_forecast(
      store.fine_range(0, resolve_at), config.adaptive_forecast_horizon,
      telemetry::ForecastMethod::kEwma, forecast_options);
  const te::DemandMatrix demand = te::DemandMatrix::from_forecast(
      store.read_view().storage_range(0, resolve_at), config.adaptive_forecast_horizon,
      telemetry::ForecastMethod::kEwma, forecast_options);
  ASSERT_EQ(demand.size(), want_demand.size());
  ASSERT_GT(demand.size(), 0u);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    EXPECT_EQ(demand.entries()[i].pair, want_demand.entries()[i].pair);
    EXPECT_EQ(demand.entries()[i].gbps, want_demand.entries()[i].gbps);
  }
  // The controller's first re-solve starts from an empty path cache at the
  // epsilon a fresh policy picks for this drift: a cold solve of the
  // sorted read's demand with both must give the same flow.
  AdaptiveController policy(controller.adaptive().config());
  policy.observe(level, resolve_at);
  lp::McfPathCache cache;
  lp::McfOptions mcf_options;
  mcf_options.epsilon = policy.epsilon();
  mcf_options.warm_start = &cache;
  const lp::McfResult want_solve = lp::max_concurrent_flow(
      wan.graph(), want_demand.to_commodities(wan), mcf_options);
  const lp::McfResult solved = controller.run_adaptive_resolve(resolve_at);
  EXPECT_EQ(solved.lambda, want_solve.lambda);
  EXPECT_EQ(solved.sp_calls, want_solve.sp_calls);
}

TEST(SmnController, Table1HasSevenAspects) {
  const auto rows = SmnController::sdn_vs_smn();
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].aspect, "Scope");
  EXPECT_EQ(rows[0].sdn, "Data Plane");
  EXPECT_EQ(rows[0].smn, "All Planes");
  EXPECT_EQ(rows[6].smn, "L1-L7");
}

TEST(WarStories, CapacityTeInTheDark) {
  const WarStoryReport report = run_war_story_capacity_te();
  EXPECT_EQ(report.id, "WS1");
  EXPECT_TRUE(report.smn_improved) << report.siloed_outcome << " | " << report.smn_outcome;
  EXPECT_GT(report.siloed_cost, report.smn_cost);
}

TEST(WarStories, WavelengthModulation) {
  const WarStoryReport report = run_war_story_wavelength();
  EXPECT_EQ(report.id, "WS2");
  EXPECT_TRUE(report.smn_improved) << report.smn_outcome;
  EXPECT_NE(report.smn_outcome.find("modulation 200G->400G"), std::string::npos);
  EXPECT_GT(report.siloed_cost / report.smn_cost, 100.0);  // weeks vs one tick
}

TEST(WarStories, WanFlapRouting) {
  const WarStoryReport report = run_war_story_wan_flap();
  EXPECT_EQ(report.id, "WS3");
  EXPECT_TRUE(report.smn_improved) << report.siloed_outcome << " | " << report.smn_outcome;
}

TEST(WarStories, DatabaseAlertStorm) {
  const WarStoryReport report = run_war_story_alert_storm();
  EXPECT_EQ(report.id, "WS4");
  EXPECT_TRUE(report.smn_improved) << report.siloed_outcome << " | " << report.smn_outcome;
  EXPECT_GT(report.siloed_cost, 1.0);  // several siloed incidents
  EXPECT_EQ(report.smn_cost, 1.0);     // one SMN incident
}

TEST(SmnConfigValidation, RejectsNonPositiveLoopPeriods) {
  // Validation runs from config_'s initializer, so a bad config fails
  // before the expensive members (data lake, CLTO training) construct.
  const util::ScopedContractMode scoped(util::ContractMode::kThrow);
  World& w = world();
  SmnConfig zero;
  zero.telemetry_loop_period = 0;
  EXPECT_THROW(SmnController(w.sg, w.wan, zero), util::ContractViolation);
  SmnConfig negative;
  negative.planning_loop_period = -util::kHour;
  EXPECT_THROW(SmnController(w.sg, w.wan, negative), util::ContractViolation);
}

TEST(WarStories, RunAllReturnsFour) {
  const auto reports = run_all_war_stories();
  ASSERT_EQ(reports.size(), 4u);
  for (const WarStoryReport& r : reports) {
    EXPECT_TRUE(r.smn_improved) << r.id << ": " << r.smn_outcome;
  }
}

}  // namespace
}  // namespace smn::smn
