// ingest_day and regime_day: simulated WAN days replayed through one
// monolithic SmnController on the default 308-DC planetary WAN.
//
// Every five-minute epoch the replay hands the controller the epoch's
// telemetry batch and then runs each stage due at that epoch: the retention
// seal (with spill), the initial planning pass, and the controller's tick,
// whose drift-watch loop fires the warm-started adaptive re-solve; every
// re-solve is followed by a routing failure sweep. An open-loop fleet
// serves budgeted fine-range queries against the live store throughout.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "depgraph/reddit.h"
#include "lp/mcf.h"
#include "smn/smn_controller.h"
#include "te/coarse_te.h"
#include "te/demand.h"
#include "te/failure_analysis.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"

namespace wanday {
namespace {

namespace sim = smn::util;
namespace tel = smn::telemetry;
namespace ctl = smn::smn;

/// Sizing of one monolith workload.
struct MonolithSpec {
  bool regimes = false;
  smn::topology::WanConfig wan;
  std::size_t pairs = 0;
  sim::SimTime duration = 0;
  sim::SimTime fine_age = 0;
  /// Telemetry is shipped to the controller at every multiple of this:
  /// each five-minute epoch, or (regime_day, as in the adaptive-control
  /// soak) the past hour's twelve epochs at the end of the hour.
  sim::SimTime ship_every = sim::kTelemetryEpoch;
  /// Retention (seal + spill) runs at every multiple of this.
  sim::SimTime retention_every = 0;
  /// The planning pass runs at plan_at and then every plan_every.
  sim::SimTime plan_at = 2 * sim::kHour;
  sim::SimTime plan_every = sim::kYear;
  sim::SimTime min_resolve_interval = sim::kHour;
  /// Open-loop fleet: two threads share `query_rate` queries per second.
  std::size_t query_threads = 2;
  double query_rate = 1.0;
  /// Queries read only windows inside the resident fine age; else any past
  /// or current window, resident or spilled.
  bool resident_queries = true;
  std::size_t clto_incidents = 120;
  std::size_t clto_trees = 30;
};

/// Sizes per workload. ingest_day replays twice the pairs of regime_day,
/// shipped every epoch, with no regimes and a daily planning pass;
/// regime_day injects the three regimes of the adaptive-control soak (level
/// shift, flash crowd, evacuation). Both fleets send 40 q/s, but
/// regime_day's reads of spilled days cost several times ingest_day's
/// resident reads. README.md gives the reasons for each size.
MonolithSpec spec_for(const Options& options) {
  MonolithSpec spec;
  const bool ingest = options.workload == "ingest_day";
  spec.regimes = !ingest;
  if (options.tiny()) {
    spec.wan.regions_per_continent = 2;
    spec.wan.dcs_per_region = 3;
    spec.pairs = ingest ? 1200 : 1000;
    spec.duration = 36 * sim::kHour;
    spec.fine_age = 6 * sim::kHour;
    spec.retention_every = 6 * sim::kHour;
    spec.min_resolve_interval = 30 * sim::kMinute;
    spec.clto_incidents = 40;
    spec.clto_trees = 10;
    spec.query_rate = ingest ? 5.0 : 50.0;
  } else {
    spec.pairs = ingest ? 2000 : 1000;
    spec.duration = 4 * sim::kDay;  // 1152 epochs
    spec.fine_age = ingest ? 6 * sim::kHour : 12 * sim::kHour;
    spec.retention_every = 6 * sim::kHour;
    spec.query_rate = 40.0;
  }
  // One planning pass per replay gave ingest_day's resolve_p50_ms one
  // sample per traffic draw, and its cost depends on the draw (about 33 or
  // about 49 ms); four passes, each over the trailing month, smooth that.
  if (ingest) spec.plan_every = sim::kDay;
  spec.ship_every = ingest ? sim::kTelemetryEpoch : sim::kHour;
  spec.resident_queries = ingest;
  return spec;
}

/// The injected regimes and their onsets, as in the adaptive-control soak.
std::vector<tel::RegimeEvent> regimes_for(const Options& options) {
  if (options.tiny()) {
    return {{tel::RegimeKind::kLevelShift, 12 * sim::kHour, 0, 2.0, ""},
            {tel::RegimeKind::kFlashCrowd, 20 * sim::kHour, 4 * sim::kHour, 4.0, "eu"},
            {tel::RegimeKind::kRegionalEvacuation, 28 * sim::kHour, 6 * sim::kHour, 0.25, "as"}};
  }
  return {{tel::RegimeKind::kLevelShift, sim::kDay + 12 * sim::kHour, 0, 2.0, ""},
          {tel::RegimeKind::kFlashCrowd, 2 * sim::kDay + 6 * sim::kHour, 6 * sim::kHour, 4.0,
           "eu"},
          {tel::RegimeKind::kRegionalEvacuation, 3 * sim::kDay, 12 * sim::kHour, 0.25, "as"}};
}

/// Reaction bound of the adaptive-control soak: every regime must be
/// answered by a drift-fired re-solve within this much simulated time.
constexpr sim::SimTime kReactionBound = 2 * sim::kHour;

/// Drift threshold that fires the adaptive re-solve.
constexpr double kResolveThreshold = 0.15;

/// A regime must be answered within the bound only when its own demand
/// shift is at least this multiple of the threshold. The evacuation's scope
/// carries a different share of demand in every draw: over 400 draws of
/// 1000 pairs its shift had median 0.21 and 5th percentile 0.16, and a
/// shift near the threshold is one the controller is right to answer late.
constexpr double kRequiredShift = 1.25;

/// Span of one served fine-range query: three epochs.
constexpr sim::SimTime kQueryWindow = 15 * sim::kMinute;

/// Everything built before the replay starts (timed as set-up).
struct MonolithSetup {
  smn::topology::WanTopology wan;
  smn::depgraph::ServiceGraph services;
  /// Shipment i: the records of [i * ship_every, (i + 1) * ship_every).
  std::vector<tel::BandwidthLog> batches;
  std::string spill_dir;
  std::unique_ptr<ctl::SmnController> controller;
};

/// An empty spill directory private to this process.
std::string fresh_spill_dir(const Options& options) {
  const std::filesystem::path dir =
      std::filesystem::path(options.out_dir) / "spill" /
      (options.workload + "-" + std::to_string(static_cast<long>(getpid())));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The trace cut into shipments of `ship_every`, identical to the matching
/// slices of TrafficGenerator::generate() (same pair order, same values).
std::vector<tel::BandwidthLog> shipments(const smn::topology::WanTopology& wan,
                                         const tel::TrafficGenerator& gen,
                                         sim::SimTime ship_every) {
  sim::IdSpace& ids = sim::IdSpace::global();
  std::vector<sim::PairId> pair_ids;
  for (const tel::TrafficPair& pair : gen.pairs()) {
    pair_ids.push_back(ids.pair(wan.dc_id(pair.src), wan.dc_id(pair.dst)));
  }
  const tel::TrafficConfig& config = gen.config();
  const auto per_batch = static_cast<std::size_t>(ship_every / config.epoch);
  std::vector<tel::BandwidthLog> batches(gen.epoch_count() / per_batch);
  for (std::size_t e = 0; e < batches.size() * per_batch; ++e) {
    const sim::SimTime t = config.start + static_cast<sim::SimTime>(e) * config.epoch;
    tel::BandwidthLog& batch = batches[e / per_batch];
    if (e % per_batch == 0) batch.reserve(per_batch * pair_ids.size());
    for (std::size_t p = 0; p < pair_ids.size(); ++p) {
      batch.append(t, pair_ids[p], gen.demand_at(p, t));
    }
  }
  return batches;
}

/// Reaction probe of one injected regime (as in the adaptive soak).
struct Probe {
  sim::SimTime at = 0;
  /// Ground-truth drift the regime causes: sum over pairs of the latent
  /// demand change across its onset, over the latent demand before it.
  double shift = 0.0;
  bool armed = false;
  std::uint64_t resolves_before = 0;
  sim::SimTime reaction = -1;
};

}  // namespace

ReplayResult run_monolith(const Options& options, bool traced) {
  const MonolithSpec spec = spec_for(options);
  ReplayResult result;
  result.traced = traced;

  // --- Set-up: WAN, trace, controller (CLTO training), spill directory. ---
  const auto setup_start = Clock::now();
  MonolithSetup setup{smn::topology::generate_planetary_wan(spec.wan),
                      smn::depgraph::build_reddit_deployment(),
                      {},
                      {},
                      nullptr};
  tel::TrafficConfig traffic;
  traffic.duration = spec.duration;
  traffic.active_pairs = spec.pairs;
  traffic.seed = options.seed;
  // Seasonal confounders flattened, as in the adaptive soak, so measured
  // drift is the injected regimes and ingest_day fires no re-solve.
  traffic.diurnal_amplitude = 0.05;
  traffic.weekend_factor = 1.0;
  traffic.holiday_spike_factor = 1.0;
  traffic.noise_sigma = 0.02;
  if (spec.regimes) traffic.regimes = regimes_for(options);
  std::vector<Probe> probes;
  {
    const tel::TrafficGenerator gen(setup.wan, traffic);
    setup.batches = shipments(setup.wan, gen, spec.ship_every);
    for (const tel::RegimeEvent& event : traffic.regimes) {
      double moved = 0.0;
      double before = 0.0;
      for (std::size_t p = 0; p < gen.pairs().size(); ++p) {
        const double pre = gen.latent_demand_at(p, event.at - sim::kHour);
        moved += std::abs(gen.latent_demand_at(p, event.at + sim::kHour) - pre);
        before += pre;
      }
      probes.push_back({event.at, before > 0.0 ? moved / before : 0.0});
    }
  }
  setup.spill_dir = fresh_spill_dir(options);
  ctl::SmnConfig config;
  config.clto.training_incidents = spec.clto_incidents;
  config.clto.forest_trees = spec.clto_trees;
  config.bw_shards = 8;
  // Serial ingest and retention on the replay thread: with the two query
  // threads that is three busy threads on a four-thread host. A store pool
  // beside them oversubscribes the host and turns the tails into scheduler
  // noise.
  config.bw_ingest_threads = 1;
  config.bw_spill_dir = setup.spill_dir;
  config.bw_max_fine_age = spec.fine_age;
  config.telemetry_loop_period = sim::kTelemetryEpoch;
  // Retention and planning are driven explicitly below, so they are timed
  // as their own stages; the loops' periods park them after the first tick.
  config.retention_loop_period = sim::kYear;
  config.planning_loop_period = sim::kYear;
  config.drift_resolve_threshold = kResolveThreshold;
  config.drift_rearm_threshold = 0.08;
  config.drift_min_resolve_interval = spec.min_resolve_interval;
  setup.controller = std::make_unique<ctl::SmnController>(setup.services, setup.wan, config);
  ctl::SmnController& controller = *setup.controller;
  controller.tick(0);  // arms the control loops on the empty store
  result.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();

  // --- Replay. ---
  Tracer tracer(traced);
  const auto epochs = static_cast<std::size_t>(spec.duration / sim::kTelemetryEpoch);
  std::atomic<sim::SimTime> sim_now{0};
  // Queries read one window of kQueryWindow: a random past or current
  // window (regime_day: resident or spilled), or one inside the resident
  // fine age (ingest_day). Per window, a result never shrinks.
  const std::size_t windows = static_cast<std::size_t>(spec.duration / kQueryWindow) + 1;
  std::vector<std::vector<std::size_t>> last_rows(spec.query_threads,
                                                  std::vector<std::size_t>(windows, 0));
  auto send = [&](std::size_t thread, sim::Rng& rng) {
    const sim::SimTime now = sim_now.load(std::memory_order_acquire);
    const std::int64_t current = now / kQueryWindow;
    const std::int64_t first =
        spec.resident_queries ? std::max<std::int64_t>(0, (now - spec.fine_age) / kQueryWindow) : 0;
    const std::int64_t window = rng.uniform_int(first, std::max(first, current));
    const sim::SimTime begin = window * kQueryWindow;
    const sim::SimTime end = begin + kQueryWindow;
    const ctl::ServedFineRange served = controller.serve_bandwidth_range(begin, end);
    QueryOutcome outcome{served.admitted, served.deadline_exceeded, served.log.record_count()};
    if (served.admitted) {
      std::size_t& last = last_rows[thread][static_cast<std::size_t>(window)];
      outcome.valid = range_well_formed(served.log, begin, end) && outcome.rows >= last;
      last = std::max(last, outcome.rows);
    }
    return outcome;
  };

  double tick_busy_ms = 0.0;
  double drift_busy_ms = 0.0;
  double resolve_busy_ms = 0.0;
  double plan_busy_ms = 0.0;
  double warm_hit_rate_sum = 0.0;
  double sp_calls = 0.0;
  double warm_hits = 0.0;
  double warm_misses = 0.0;
  double records_retired = 0.0;
  double resident_bytes_max = 0.0;
  std::size_t sweeps = 0;
  double sweep_pairs = 0.0;
  double ch_queries = 0.0;
  double ch_fallbacks = 0.0;
  std::vector<smn::lp::Commodity> last_commodities;
  smn::te::RoutingSweepReport last_sweep;
  sim::SimTime last_fire = -1;
  sim::SimTime last_plan = -1;
  double last_fire_drift = 0.0;

  QueryFleet fleet(spec.query_threads, spec.query_rate, options.seed, tracer, send);
  const auto replay_start = Clock::now();
  for (std::size_t e = 1; e <= epochs; ++e) {
    const sim::SimTime now = static_cast<sim::SimTime>(e) * sim::kTelemetryEpoch;
    for (Probe& p : probes) {
      if (!p.armed && now >= p.at) {
        p.resolves_before = controller.early_te_resolves();
        p.armed = true;
      }
    }
    const auto epoch_start = Clock::now();
    {
      const Scope epoch_span(tracer, "replay.epoch", Layer::kBench);
      if (now % spec.ship_every == 0) {
        const Scope span(tracer, "telemetry.ingest", Layer::kTelemetry);
        controller.ingest_bandwidth(
            setup.batches[static_cast<std::size_t>(now / spec.ship_every) - 1]);
      }
      sim_now.store(now, std::memory_order_release);
      if (now % spec.retention_every == 0) {
        if (traced) {
          const Scope span(tracer, "telemetry.stats", Layer::kTelemetry);
          resident_bytes_max = std::max(
              resident_bytes_max,
              static_cast<double>(controller.bandwidth_store().stats().resident_bytes));
        }
        const Scope span(tracer, "telemetry.seal", Layer::kTelemetry);
        records_retired += static_cast<double>(controller.run_retention(now));
      }
      if (now >= spec.plan_at && (now - spec.plan_at) % spec.plan_every == 0) {
        const Scope span(tracer, "smn.plan", Layer::kSmn);
        const auto start = Clock::now();
        controller.run_capacity_planning(now);
        const double ms = ms_between(start, Clock::now());
        last_plan = now;
        plan_busy_ms += ms;
        result.resolve_ms.push_back(ms);
      }
      const std::uint64_t resolves_before = controller.early_te_resolves();
      double tick_ms = 0.0;
      bool fired = false;
      {
        // A tick runs the telemetry loop (store gauge publication) and the
        // drift-watch loop. One that fires no re-solve does only store
        // work (stats and drift) and is labelled telemetry.drift; one that
        // fires is labelled smn.resolve.
        Scope span(tracer, "smn.tick", Layer::kSmn);
        const auto start = Clock::now();
        controller.tick(now);
        tick_ms = ms_between(start, Clock::now());
        fired = controller.early_te_resolves() > resolves_before;
        if (fired) {
          span.relabel("smn.resolve", Layer::kSmn);
        } else {
          span.relabel("telemetry.drift", Layer::kTelemetry);
        }
      }
      tick_busy_ms += tick_ms;
      if (fired) {
        // The drift-watch loop fired the adaptive re-solve inside this tick.
        resolve_busy_ms += tick_ms;
        result.resolve_ms.push_back(tick_ms);
        last_fire = now;
        last_fire_drift = controller.mib().get("smn", "bw_drift_level").value_or(0.0);
        warm_hit_rate_sum += controller.adaptive().warm_hit_rate();
        sp_calls += static_cast<double>(controller.adaptive().last_sp_calls());
        warm_hits += static_cast<double>(controller.te_path_cache().hits);
        warm_misses += static_cast<double>(controller.te_path_cache().misses);
        {
          const Scope span(tracer, "te.demand", Layer::kTe);
          // Endpoints of the demand the controller was last shipped.
          const tel::BandwidthLog& latest =
              setup.batches[static_cast<std::size_t>(now / spec.ship_every) - 1];
          last_commodities = smn::te::DemandMatrix::from_log(latest,
                                                             smn::te::DemandStatistic::kMean)
                                 .to_commodities(setup.wan);
        }
        {
          const Scope span(tracer, "te.sweep", Layer::kTe);
          last_sweep = smn::te::routing_failure_sweep(setup.wan, last_commodities, {}, {});
        }
        ++sweeps;
        sweep_pairs += static_cast<double>(last_sweep.pairs);
        ch_queries += static_cast<double>(last_sweep.ch_queries);
        ch_fallbacks += static_cast<double>(last_sweep.ch_fallbacks);
      } else {
        drift_busy_ms += tick_ms;
      }
    }
    result.epoch_ms.push_back(ms_between(epoch_start, Clock::now()));
    for (Probe& p : probes) {
      if (p.armed && p.reaction < 0 && controller.early_te_resolves() > p.resolves_before) {
        p.reaction = now - p.at;
      }
    }
  }
  result.replay_s = std::chrono::duration<double>(Clock::now() - replay_start).count();
  result.queries = fleet.stop();
  result.sim_days = static_cast<double>(spec.duration) / static_cast<double>(sim::kDay);

  // --- Per-layer values (traced replay). ---
  if (traced) {
    const TraceSummary& t = result.trace.emplace(tracer.summarize());
    const tel::LogStoreStats stats = controller.bandwidth_store().stats();
    const double resolves = static_cast<double>(controller.early_te_resolves());
    auto& L = result.layer;
    L["telemetry.ingest.calls"] = t.count("telemetry.ingest");
    L["telemetry.ingest.busy_ms"] = t.busy("telemetry.ingest");
    L["telemetry.ingest.records_per_s"] =
        static_cast<double>(epochs * spec.pairs) / (t.busy("telemetry.ingest") / 1e3);
    L["telemetry.shard_skew"] = shard_skew(stats);
    L["telemetry.seal.busy_ms"] = t.busy("telemetry.seal");
    L["telemetry.seal.records_retired"] = records_retired;
    L["telemetry.spill.bytes"] = static_cast<double>(stats.spilled_bytes);
    L["telemetry.spill.maps"] = static_cast<double>(stats.spill_maps);
    L["telemetry.resident_bytes"] = resident_bytes_max;
    L["telemetry.drift.busy_ms"] = drift_busy_ms;
    L["smn.resolve.count"] = resolves;
    L["smn.resolve.busy_ms"] = resolve_busy_ms;
    L["smn.plan.busy_ms"] = plan_busy_ms;
    L["smn.adaptive.warm_hit_rate"] = resolves > 0.0 ? warm_hit_rate_sum / resolves : 0.0;
    L["smn.tick.busy_ms"] = tick_busy_ms;
    L["lp.mcf.sp_calls"] = sp_calls;
    L["lp.mcf.warm_hits"] = warm_hits;
    L["lp.mcf.warm_misses"] = warm_misses;
    L["te.sweep.busy_ms"] = t.busy("te.sweep");
    L["te.sweep.pairs"] = sweeps > 0 ? sweep_pairs / static_cast<double>(sweeps) : 0.0;
    L["te.sweep.ch_fallback_ratio"] = ch_queries > 0.0 ? ch_fallbacks / ch_queries : 0.0;
    if (spec.regimes) {
      result.dominance_ok =
          t.layer_self("lp") + t.layer_self("te") > t.self("telemetry.ingest");
      result.checks.expect(*result.dominance_ok,
                           "traced replay: lp + te self time does not exceed telemetry ingest");
    } else {
      const double telemetry = t.layer_self("telemetry");
      result.dominance_ok = telemetry > t.layer_self("smn") && telemetry > t.layer_self("lp") &&
                            telemetry > t.layer_self("te");
      result.checks.expect(*result.dominance_ok,
                           "traced replay: telemetry self time is not the largest layer's");
    }
    write_span_file(tracer, options);
  }

  // --- Checks (after timing). ---
  CheckLog& checks = result.checks;
  const tel::BandwidthLogStore& store = controller.bandwidth_store();
  checks.expect(result.queries.invalid == 0, "served queries were unsorted, out of range or shrank");
  if (!spec.regimes) {
    // Ingest oracle: the store's fine view over resident plus spilled days
    // is the generated trace record for record, and its sealed summaries
    // are those of a single-shard store coarsening the same trace.
    const auto per_day = static_cast<std::size_t>(sim::kDay / spec.ship_every);
    const std::size_t days = (setup.batches.size() + per_day - 1) / per_day;
    tel::BandwidthLogStore oracle(sim::kHour);
    const sim::SimTime last_retention = spec.duration - spec.duration % spec.retention_every;
    for (std::size_t d = 0; d < days; ++d) {
      tel::BandwidthLog expected;
      for (std::size_t e = d * per_day; e < std::min(setup.batches.size(), (d + 1) * per_day);
           ++e) {
        const tel::BandwidthLog& batch = setup.batches[e];
        if (options.plant == "drop_record" && e == 0) {
          expected.append_columns(batch.timestamps().subspan(1), batch.pair_ids().subspan(1),
                                  batch.bandwidths().subspan(1));
        } else {
          expected.append_columns(batch.timestamps(), batch.pair_ids(), batch.bandwidths());
        }
      }
      oracle.ingest(expected);
      // The store serves fine ranges in (timestamp, src name, dst name)
      // order, the single-shard store's order.
      expected.sort();
      const sim::SimTime day_start = static_cast<sim::SimTime>(d) * sim::kDay;
      checks.expect(logs_identical(store.fine_range(day_start, day_start + sim::kDay), expected),
                    "fine_range of day " + std::to_string(d) + " differs from the trace");
      if (last_retention - (day_start + sim::kDay) >= spec.fine_age) {
        oracle.coarsen_older_than(day_start + sim::kDay, 0, sim::kHour);
      }
    }
    std::size_t where = 0;
    const bool same = summaries_identical(store.coarse().summaries(),
                                          oracle.coarse().summaries(), &where);
    checks.expect(same && !store.coarse().summaries().empty(),
                  "sealed summaries differ from the single-shard oracle at row " +
                      std::to_string(where));
    checks.expect(controller.early_te_resolves() == 0, "ingest_day fired a re-solve");
  } else {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Probe& p = probes[i];
      const bool answered = p.reaction >= 0 && p.reaction <= kReactionBound;
      if (p.shift >= kRequiredShift * kResolveThreshold) {
        checks.expect(answered, "regime " + std::to_string(i) + " (shift " +
                                    std::to_string(p.shift) +
                                    ") not answered within the reaction bound");
      } else if (!answered) {
        std::printf("note: regime %zu shifts demand by %.3f, under %.2fx the threshold; "
                    "answered after %lld s (not required)\n",
                    i, p.shift, kRequiredShift, static_cast<long long>(p.reaction));
      }
    }
    checks.expect(sweeps > 0, "no failure sweep ran");
    if (sweeps > 0) {
      // The last sweep (contraction hierarchy) against the flat ground
      // truth over a fixed subset of links.
      std::vector<std::size_t> subset;
      const std::size_t links = setup.wan.link_count();
      for (std::size_t l = 0; l < links; l += std::max<std::size_t>(1, links / 12)) {
        subset.push_back(l);
      }
      smn::te::RoutingSweepOptions flat;
      flat.use_ch = false;
      const smn::te::RoutingSweepReport truth =
          smn::te::routing_failure_sweep(setup.wan, last_commodities, subset, flat);
      bool same = truth.pairs == last_sweep.pairs && truth.impacts.size() == subset.size() &&
                  last_sweep.impacts.size() == links;
      for (std::size_t i = 0; same && i < subset.size(); ++i) {
        const smn::te::RoutingImpact& a = truth.impacts[i];
        const smn::te::RoutingImpact& b = last_sweep.impacts[subset[i]];
        same = a.link == b.link && a.rerouted_pairs == b.rerouted_pairs &&
               a.disconnected_pairs == b.disconnected_pairs &&
               a.mean_stretch == b.mean_stretch && a.worst_stretch == b.worst_stretch;
      }
      checks.expect(same, "last sweep differs from the flat sweep on the link subset");
    }
  }

  // --- te_fidelity: the last solve against a cold flat solve over the
  // same demand (after the replay, outside every timer). ---
  if (!traced) {
    smn::lp::McfOptions cold;  // default epsilon, no warm start
    if (last_fire >= 0) {
      // The adaptive re-solve's demand: the drift-weighted day-ahead
      // forecast of the trailing month at the firing tick.
      const tel::BandwidthLog recent =
          store.fine_range(std::max<sim::SimTime>(0, last_fire - sim::kMonth), last_fire);
      tel::ForecastOptions forecast;
      forecast.drift_level = last_fire_drift;
      const auto commodities =
          smn::te::DemandMatrix::from_forecast(
              recent, static_cast<std::size_t>(sim::kDay / sim::kTelemetryEpoch),
              tel::ForecastMethod::kEwma, forecast)
              .to_commodities(setup.wan);
      const smn::lp::McfResult reference =
          smn::lp::max_concurrent_flow(setup.wan.graph(), commodities, cold);
      result.te_fidelity = reference.lambda > 0.0
                               ? controller.adaptive().last_lambda() / reference.lambda
                               : 0.0;
    } else {
      // Only planning passes ran. The last one's routing is the
      // shortest-path routing the capacity planner evaluates
      // (routing_from_mcf of an empty solution) over the trailing month;
      // both routings are scored by greedily admitted demand, as federated
      // TE scores its fidelity.
      const tel::BandwidthLog recent =
          store.fine_range(std::max<sim::SimTime>(0, last_plan - sim::kMonth), last_plan);
      const auto commodities =
          smn::te::DemandMatrix::from_log(recent, smn::te::DemandStatistic::kMean)
              .to_commodities(setup.wan);
      const smn::graph::Digraph& g = setup.wan.graph();
      const double routed = smn::lp::greedy_admitted_demand(
          g, commodities, smn::te::routing_from_mcf(g, smn::lp::McfResult{}, commodities));
      const smn::lp::McfResult reference = smn::lp::max_concurrent_flow(g, commodities, cold);
      const double optimal = smn::lp::greedy_admitted_demand(
          g, commodities, smn::te::routing_from_mcf(g, reference, commodities));
      result.te_fidelity = optimal > 0.0 ? routed / optimal : 0.0;
    }
  }

  setup.controller.reset();
  std::filesystem::remove_all(setup.spill_dir);
  return result;
}

}  // namespace wanday
