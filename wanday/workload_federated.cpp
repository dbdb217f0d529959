// federated_day: simulated WAN days replayed through the two-level
// federation on a 35-region WAN (7 continents x 5 regions).
//
// Every epoch each RegionController ingests only its own pairs. Every hour
// two export streams take half the regions each: retention, then
// build_export -> serialize_export -> parse_export ->
// GlobalController::ingest_export; merge_pending follows on the replay
// thread. At the planning cadence the global tier runs federated TE over
// demand estimated from its merged coarse log, without the flat reference
// solve, because the global tier never sees fine state.
#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "smn/coarse_export.h"
#include "smn/global_controller.h"
#include "smn/query_serving.h"
#include "smn/region_controller.h"
#include "te/coarse_te.h"
#include "te/demand.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/thread_pool.h"

namespace wanday {
namespace {

namespace sim = smn::util;
namespace tel = smn::telemetry;
namespace ctl = smn::smn;

struct FederatedSpec {
  smn::topology::WanConfig wan;
  std::size_t pairs = 0;
  sim::SimTime duration = 0;
  sim::SimTime export_every = sim::kHour;
  sim::SimTime plan_every = 12 * sim::kHour;
  std::size_t export_streams = 2;
  std::size_t query_threads = 2;
  double query_rate = 100.0;
};

FederatedSpec spec_for(const Options& options) {
  FederatedSpec spec;
  spec.wan.regions_per_continent = 5;
  if (options.tiny()) {
    spec.wan.continents = 2;
    spec.wan.regions_per_continent = 2;
    spec.wan.dcs_per_region = 3;
    spec.pairs = 60;
    spec.duration = 2 * sim::kDay;
  } else {
    spec.wan.dcs_per_region = 6;  // 210 datacenters
    spec.pairs = 2000;
    spec.duration = 4 * sim::kDay;  // 1152 epochs
  }
  return spec;
}

/// What one export stream saw during one round.
struct StreamTally {
  double retired = 0.0;
  double bytes = 0.0;
  double summaries = 0.0;
  std::uint64_t exports = 0;
  std::vector<std::string> errors;
};

}  // namespace

ReplayResult run_federated(const Options& options, bool traced) {
  const FederatedSpec spec = spec_for(options);
  ReplayResult result;
  result.traced = traced;

  // --- Set-up: WAN, trace split by owning region, the federation. ---
  const auto setup_start = Clock::now();
  const smn::topology::WanTopology wan = smn::topology::generate_planetary_wan(spec.wan);
  const std::vector<std::string> region_names = wan.regions();
  const std::size_t regions = region_names.size();
  std::map<std::string, std::size_t> region_index;
  for (std::size_t r = 0; r < regions; ++r) region_index[region_names[r]] = r;

  tel::TrafficConfig traffic;
  traffic.duration = spec.duration;
  traffic.active_pairs = spec.pairs;
  traffic.seed = options.seed;
  // batches[epoch][region]: the epoch's records of pairs the region owns.
  std::vector<std::vector<tel::BandwidthLog>> batches;
  {
    const tel::TrafficGenerator gen(wan, traffic);
    sim::IdSpace& ids = sim::IdSpace::global();
    std::vector<sim::PairId> pair_ids;
    std::vector<std::size_t> owner;
    for (const tel::TrafficPair& pair : gen.pairs()) {
      pair_ids.push_back(ids.pair(wan.dc_id(pair.src), wan.dc_id(pair.dst)));
      owner.push_back(region_index.at(*wan.region_of_dc(wan.dc_id(pair.src))));
    }
    batches.assign(gen.epoch_count(), std::vector<tel::BandwidthLog>(regions));
    for (std::size_t e = 0; e < batches.size(); ++e) {
      const sim::SimTime t = static_cast<sim::SimTime>(e) * traffic.epoch;
      for (std::size_t p = 0; p < pair_ids.size(); ++p) {
        batches[e][owner[p]].append(t, pair_ids[p], gen.demand_at(p, t));
      }
    }
  }
  ctl::CoreConfig core;
  core.bw_max_fine_age = 0;  // each day seals at its end and goes up in the next export
  // Region stores are small; one region per host would not share a pool.
  core.bw_ingest_threads = 1;
  std::vector<std::unique_ptr<ctl::RegionController>> members;
  for (const std::string& name : region_names) {
    members.push_back(std::make_unique<ctl::RegionController>(name, wan, core));
  }
  ctl::GlobalController global(wan);
  smn::util::ThreadPool streams(spec.export_streams);
  result.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();

  // --- Replay. ---
  Tracer tracer(traced);
  const std::size_t epochs = batches.size();
  std::atomic<sim::SimTime> sim_now{0};
  ctl::QueryBudget budget;
  // A query is a fleet-wide fine-range read served region by region: one
  // hour of the open day (the only fine state a region keeps) from every
  // region's store. Per (region, hour), a result never shrinks.
  std::vector<std::map<std::pair<std::size_t, std::int64_t>, std::size_t>> last_rows(
      spec.query_threads);  // one table per query thread
  auto send = [&](std::size_t thread, sim::Rng& rng) {
    const sim::SimTime now = sim_now.load(std::memory_order_acquire);
    const std::int64_t first_hour = (now / sim::kDay) * (sim::kDay / sim::kHour);
    const std::int64_t hour = rng.uniform_int(first_hour, std::max(first_hour, now / sim::kHour));
    const sim::SimTime begin = hour * sim::kHour;
    const sim::SimTime end = begin + sim::kHour;
    QueryOutcome outcome{true, false, 0};
    for (std::size_t r = 0; r < regions; ++r) {
      const ctl::ServedFineRange served =
          ctl::serve_fine_range(members[r]->store(), begin, end, budget);
      outcome.admitted = outcome.admitted && served.admitted;
      outcome.deadline_exceeded = outcome.deadline_exceeded || served.deadline_exceeded;
      if (!served.admitted) continue;
      const std::size_t rows = served.log.record_count();
      outcome.rows += rows;
      outcome.valid = outcome.valid && range_well_formed(served.log, begin, end);
      // Retention drops the day once the replay has moved past it, so the
      // row count may only shrink if the day closed during the read: the
      // replay publishes the next day before it seals this one.
      if (sim_now.load(std::memory_order_acquire) / sim::kDay == begin / sim::kDay) {
        std::size_t& last = last_rows[thread][{r, hour}];
        outcome.valid = outcome.valid && rows >= last;
        last = std::max(last, rows);
      }
    }
    return outcome;
  };

  std::vector<std::vector<std::uint64_t>> sequences(regions);
  std::vector<std::string> export_errors;
  double records_retired = 0.0;
  double export_bytes = 0.0;
  double summaries_merged = 0.0;
  std::uint64_t exports_sent = 0;
  double global_ms = 0.0;
  double refine_ms = 0.0;
  double te_sp_calls = 0.0;
  double shard_skew_max = 0.0;
  double resident_bytes_max = 0.0;
  std::vector<smn::lp::Commodity> last_commodities;
  bool planted = false;

  // One stream's share of an export round: regions s, s + streams, ...
  auto export_stream = [&](std::size_t stream, sim::SimTime now, SpanId round) {
    StreamTally tally;
    for (std::size_t r = stream; r < regions; r += spec.export_streams) {
      const Scope region_span(tracer, "bench.region_export", Layer::kBench, round);
      ctl::RegionController& member = *members[r];
      try {
        {
          const Scope span(tracer, "telemetry.seal", Layer::kTelemetry);
          tally.retired += static_cast<double>(member.run_retention(now));
        }
        ctl::CoarseExport built;
        {
          const Scope span(tracer, "smn.export.build", Layer::kSmn);
          built = member.build_export(now);
        }
        ctl::CoarseExport parsed;
        {
          const Scope span(tracer, "smn.export.wire", Layer::kSmn);
          const std::string bytes = ctl::serialize_export(built);
          tally.bytes += static_cast<double>(bytes.size());
          parsed = ctl::parse_export(bytes);
        }
        if (options.plant == "mutate_summary" && r == 0 && !parsed.summaries.empty() &&
            !planted) {
          parsed.summaries.front().mean += 1.0;  // only stream 0 touches region 0
          planted = true;
        }
        tally.summaries += static_cast<double>(parsed.summaries.size());
        sequences[r].push_back(parsed.sequence);  // region r has one stream
        {
          const Scope span(tracer, "smn.global.ingest", Layer::kSmn);
          global.ingest_export(parsed);
        }
        ++tally.exports;
      } catch (const std::exception& error) {
        tally.errors.push_back(region_names[r] + ": " + error.what());
      }
    }
    return tally;
  };

  QueryFleet fleet(spec.query_threads, spec.query_rate, options.seed, tracer, send);
  const auto replay_start = Clock::now();
  for (std::size_t e = 1; e <= epochs; ++e) {
    const sim::SimTime now = static_cast<sim::SimTime>(e) * sim::kTelemetryEpoch;
    const auto epoch_start = Clock::now();
    {
      const Scope epoch_span(tracer, "replay.epoch", Layer::kBench);
      for (std::size_t r = 0; r < regions; ++r) {
        if (batches[e - 1][r].empty()) continue;
        const Scope span(tracer, "telemetry.ingest", Layer::kTelemetry);
        members[r]->ingest_bandwidth(batches[e - 1][r]);
      }
      sim_now.store(now, std::memory_order_release);
      if (now % spec.export_every == 0) {
        if (traced && now % sim::kDay == 0) {
          // Footprint just before the day's seal, when it peaks.
          const Scope span(tracer, "telemetry.stats", Layer::kTelemetry);
          double resident = 0.0;
          for (const auto& member : members) {
            const tel::LogStoreStats stats = member->store().stats();
            resident += static_cast<double>(stats.resident_bytes);
            shard_skew_max = std::max(shard_skew_max, shard_skew(stats));
          }
          resident_bytes_max = std::max(resident_bytes_max, resident);
        }
        const Scope round(tracer, "bench.export_round", Layer::kBench);
        std::vector<std::future<StreamTally>> pending;
        for (std::size_t s = 0; s < spec.export_streams; ++s) {
          pending.push_back(streams.submit([&, s] { return export_stream(s, now, round.id()); }));
        }
        for (auto& f : pending) {
          const StreamTally tally = f.get();
          records_retired += tally.retired;
          export_bytes += tally.bytes;
          summaries_merged += tally.summaries;
          exports_sent += tally.exports;
          export_errors.insert(export_errors.end(), tally.errors.begin(), tally.errors.end());
        }
        const Scope span(tracer, "smn.global.merge", Layer::kSmn);
        global.merge_pending();
      }
      if (now % spec.plan_every == 0 && global.coarse().summary_count() > 0) {
        {
          const Scope span(tracer, "te.demand", Layer::kTe);
          last_commodities = smn::te::DemandMatrix::from_coarse_log(
                                 global.coarse(), smn::te::DemandStatistic::kMean)
                                 .to_commodities(wan);
        }
        smn::te::FederatedTeOptions te_options;
        te_options.solve_flat = false;
        const Scope span(tracer, "te.federated", Layer::kTe);
        const auto start = Clock::now();
        const smn::te::FederatedTeReport report = global.run_global_te(last_commodities, te_options);
        result.resolve_ms.push_back(ms_between(start, Clock::now()));
        global_ms += report.global_solve_ms;
        refine_ms += report.refine_solve_ms;
        te_sp_calls += static_cast<double>(report.global_sp_calls + report.refine_sp_calls);
      }
    }
    result.epoch_ms.push_back(ms_between(epoch_start, Clock::now()));
  }
  result.replay_s = std::chrono::duration<double>(Clock::now() - replay_start).count();
  result.queries = fleet.stop();
  result.sim_days = static_cast<double>(spec.duration) / static_cast<double>(sim::kDay);

  if (traced) {
    const TraceSummary& t = result.trace.emplace(tracer.summarize());
    auto& L = result.layer;
    L["telemetry.ingest.calls"] = t.count("telemetry.ingest");
    L["telemetry.ingest.busy_ms"] = t.busy("telemetry.ingest");
    L["telemetry.ingest.records_per_s"] =
        static_cast<double>(epochs * spec.pairs) / (t.busy("telemetry.ingest") / 1e3);
    L["telemetry.shard_skew"] = shard_skew_max;
    L["telemetry.seal.busy_ms"] = t.busy("telemetry.seal");
    L["telemetry.seal.records_retired"] = records_retired;
    L["telemetry.resident_bytes"] = resident_bytes_max;
    L["smn.export.build_ms"] = t.busy("smn.export.build");
    L["smn.export.wire_ms"] = t.busy("smn.export.wire");
    L["smn.export.bytes"] = export_bytes;
    L["smn.global.ingest_ms"] = t.busy("smn.global.ingest");
    L["smn.global.merge_ms"] = t.busy("smn.global.merge");
    L["smn.global.summaries"] = summaries_merged;
    L["smn.resolve.count"] = static_cast<double>(result.resolve_ms.size());
    L["smn.resolve.busy_ms"] = t.busy("te.federated");
    L["te.federated.global_ms"] = global_ms;
    L["te.federated.refine_ms"] = refine_ms;
    L["te.federated.sp_calls"] = te_sp_calls;
    const double federation = t.self("smn.export.build") + t.self("smn.export.wire") +
                               t.self("smn.global.ingest") + t.self("smn.global.merge") +
                               t.self("te.federated");
    result.dominance_ok = federation > t.self("telemetry.ingest");
    result.checks.expect(*result.dominance_ok,
                         "traced replay: export, global and federated TE self time does not "
                         "exceed telemetry ingest");
    write_span_file(tracer, options);
  }

  // --- Checks (after timing). ---
  CheckLog& checks = result.checks;
  checks.expect(result.queries.invalid == 0, "served queries were unsorted, out of range or shrank");
  checks.expect(export_errors.empty(),
                "an export was rejected: " + (export_errors.empty() ? "" : export_errors.front()));
  checks.expect(global.exports_ingested() == exports_sent, "exports accepted != exports sent");
  bool increasing = true;
  for (const auto& seq : sequences) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      increasing = increasing && seq[i] == i + 1;
    }
  }
  checks.expect(increasing, "export sequences are not 1, 2, 3, ... per region");
  {
    // The merged global coarse log against one ControllerCore coarsening
    // the union trace at the same day boundaries.
    ctl::Mib mib;
    ctl::ControllerCore reference(core, "smn");
    const std::size_t per_day = static_cast<std::size_t>(sim::kDay / sim::kTelemetryEpoch);
    for (std::size_t e = 0; e < epochs; ++e) {
      for (std::size_t r = 0; r < regions; ++r) reference.ingest_bandwidth(batches[e][r], mib);
      if ((e + 1) % per_day == 0) {
        reference.run_bw_retention(static_cast<sim::SimTime>(e + 1) * sim::kTelemetryEpoch);
      }
    }
    std::size_t where = 0;
    const bool same = summaries_identical(global.coarse().summaries(),
                                          reference.store().coarse().summaries(), &where);
    checks.expect(same && global.coarse().summary_count() > 0,
                  "merged global coarse log differs from the single controller at row " +
                      std::to_string(where));
  }

  if (!traced && !last_commodities.empty()) {
    smn::te::FederatedTeOptions reference;  // with the flat single-controller solve
    result.te_fidelity = smn::te::evaluate_federated_te(wan, wan.region_partition(),
                                                        last_commodities, reference)
                             .throughput_fidelity;
  }
  return result;
}

}  // namespace wanday
