// Contract soak: drives the full SmnController stack over a generated WAN
// day with every SMN_CHECK/SMN_DCHECK in log mode, then fails if any
// contract fired. Where unit tests assert contracts on targeted inputs,
// the soak asserts the absence of violations under realistic sustained
// load: hourly bulk bandwidth ingest, five-minute control-loop ticks, a
// mid-day demand step that exercises the drift-triggered re-solve,
// incident routing, optical risk publication, and the retention seal over
// everything at the end.
//
// The bandwidth store runs with the spill tier enabled by default
// (sealed days go to column files instead of being dropped), so the soak
// also covers the spill write/read/merge paths under contracts; after the
// retention seal it verifies fine_range() still returns every ingested
// record. `--no-spill` restores the drop-on-seal store.
//
// A background query thread runs for the whole soak (DESIGN.md §14): it
// serves budget-gated bandwidth snapshot reads and CLDS queries against
// the live controller while the tick loop ingests, retires, and re-solves
// — so reads-during-ingest and reads-during-retention are soaked under
// contracts too, not just the quiesced read at the end. The thread
// validates every admitted read (sorted merge output, monotone record
// counts) and its deviations fail the soak like a contract violation.
//
//   contract_soak                  # planetary WAN, one day (nightly CI)
//   contract_soak --quick          # small WAN, three hours (ctest)
//   contract_soak --spill-dir DIR  # spill under DIR (default: a fresh
//                                  # directory under the system temp path)
//
// Exit status: 0 iff util::contract_failure_count() == 0 at the end (and,
// with spilling, the post-seal fine_range count matches ingest), and the
// query thread observed no incoherent read.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "depgraph/reddit.h"
#include "incident/simulator.h"
#include "optical/optical.h"
#include "smn/smn_controller.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace {

using namespace smn;

/// Records of `log` with timestamps in [begin, end), bandwidth scaled by
/// `gain` (the soak's mid-day demand step).
telemetry::BandwidthLog slice(const telemetry::BandwidthLog& log, util::SimTime begin,
                              util::SimTime end, double gain) {
  telemetry::BandwidthLog out;
  const auto timestamps = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    if (timestamps[i] >= begin && timestamps[i] < end) {
      out.append(timestamps[i], pairs[i], gain * bw[i]);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool spill = true;
  std::string spill_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--no-spill") == 0) spill = false;
    if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) spill_dir = argv[++i];
  }
  if (spill && spill_dir.empty()) {
    spill_dir =
        (std::filesystem::temp_directory_path() / "smn_contract_soak_spill").string();
  }
  if (spill) {
    // Stale files from a previous run are never registered by this store,
    // but start clean anyway so disk use reflects this run alone.
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }
  // Log-and-continue so one violation cannot end the run before the rest of
  // the day surfaces more; the exit status carries the verdict. (CI also
  // sets SMN_CONTRACT_MODE=log; this makes local runs match.)
  util::set_contract_mode(util::ContractMode::kLog);

  topology::WanConfig wan_config;
  if (quick) {
    wan_config.regions_per_continent = 2;
    wan_config.dcs_per_region = 3;
  }
  const topology::WanTopology wan = topology::generate_planetary_wan(wan_config);
  const depgraph::ServiceGraph services = depgraph::build_reddit_deployment();
  const optical::OpticalNetwork underlay = optical::build_underlay(wan, 31);

  ::smn::smn::SmnConfig config;
  config.clto.training_incidents = quick ? 80 : 240;
  config.clto.forest_trees = quick ? 20 : 60;
  config.bw_shards = 8;
  // Planning fires once early in the soak so the drift baseline installs;
  // retention fires at end-of-day inside the tick loop.
  config.planning_loop_period = quick ? util::kHour : 6 * util::kHour;
  config.retention_loop_period = util::kDay;
  config.bw_max_fine_age = quick ? util::kHour : 12 * util::kHour;
  // Let the mid-day demand step fire the drift re-solve inside the quick
  // window too (the default interval guard would run out the clock).
  if (quick) config.drift_min_resolve_interval = 30 * util::kMinute;
  if (spill) config.bw_spill_dir = spill_dir;
  ::smn::smn::SmnController controller(services, wan, config);

  telemetry::TrafficConfig traffic;
  // Quick runs three hours so the demand step at 2/3 of the window lands on
  // the final hourly ingest, after planning has installed a pre-step baseline.
  traffic.duration = quick ? 3 * util::kHour : util::kDay;
  traffic.active_pairs = quick ? 100 : 2000;
  traffic.seed = 93;
  const telemetry::BandwidthLog day = telemetry::TrafficGenerator(wan, traffic).generate();

  incident::IncidentSimulator simulator(services);
  util::Rng rng(4242);
  const std::size_t component_count = services.component_count();

  std::size_t records = 0;
  std::size_t ticks = 0;
  std::size_t incidents = 0;

  // Background query serving against the live controller: budget-gated
  // snapshot reads of the bandwidth store plus CLDS queries, continuously,
  // while the loop below ingests and retires. Coherence failures (unsorted
  // merge output, a snapshot going backwards under the single writer)
  // count as soak failures.
  std::atomic<bool> soak_done{false};
  std::atomic<std::uint64_t> queries_served{0};
  std::atomic<std::uint64_t> query_deviations{0};
  std::thread query_thread([&] {
    std::size_t last_count = 0;
    ::smn::smn::Query incidents_q;
    incidents_q.dataset = "incidents";
    while (!soak_done.load(std::memory_order_acquire)) {
      const ::smn::smn::ServedFineRange fine =
          controller.serve_bandwidth_range(0, traffic.duration);
      if (fine.admitted) {
        queries_served.fetch_add(1, std::memory_order_relaxed);
        // Monotone counts only hold with the spill tier: drop-on-seal
        // retention legitimately shrinks the fine horizon.
        if (spill && fine.log.record_count() < last_count) {
          query_deviations.fetch_add(1, std::memory_order_relaxed);
        }
        last_count = fine.log.record_count();
        for (std::size_t i = 1; i < fine.log.record_count(); ++i) {
          if (fine.log.timestamps()[i - 1] > fine.log.timestamps()[i]) {
            query_deviations.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
      const ::smn::smn::ServedQuery rows = controller.serve_query("smn", incidents_q);
      if (rows.admitted) queries_served.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  // One day, five-minute control ticks, hourly bulk ingest; demand doubles
  // for the last third of the day (drift-triggered early re-solve).
  const util::SimTime step_at = 2 * traffic.duration / 3;
  for (util::SimTime now = 0; now < traffic.duration; now += util::kTelemetryEpoch) {
    if (now % util::kHour == 0) {
      const double gain = now >= step_at ? 2.0 : 1.0;
      records += controller.ingest_bandwidth(slice(day, now, now + util::kHour, gain));
    }
    ticks += controller.tick(now);
    if (now % (2 * util::kHour) == util::kHour) {
      const auto victim = static_cast<graph::NodeId>(
          rng.uniform_int(0, static_cast<int>(component_count) - 1));
      const incident::Fault fault{incident::FaultType::kHypervisorFailure, victim, incidents};
      controller.handle_incident(simulator.simulate(fault, rng), now);
      ++incidents;
    }
    if (now == util::kHour) controller.ingest_optical_risks(underlay, now);
  }
  // End of day: seal everything old enough, then one more planning pass on
  // the sealed + fine mix. The query thread is still serving here, so the
  // big seal runs under concurrent snapshot reads; join it before the
  // quiesced verification below.
  controller.run_retention(traffic.duration + util::kWeek);
  controller.run_capacity_planning(traffic.duration);
  soak_done.store(true, std::memory_order_release);
  query_thread.join();

  // With the spill tier on, sealing demotes instead of dropping, so the
  // full-horizon fine read must still return every ingested record — this
  // drives the map/merge read path (and its contracts) after the seal.
  if (spill) {
    const telemetry::BandwidthLog all =
        controller.bandwidth_store().fine_range(0, traffic.duration);
    if (all.record_count() != records) {
      std::fprintf(stderr,
                   "CONTRACT SOAK FAILED: post-seal fine_range returned %zu of %zu records\n",
                   all.record_count(), records);
      return 1;
    }
  }

  const telemetry::LogStoreStats stats = controller.bandwidth_store().stats();
  const std::size_t failures = util::contract_failure_count();
  std::printf(
      "soak: %zu records ingested across %zu shards, %zu loop runs, %zu incidents,\n"
      "      %llu early TE re-solves, %zu fine records left, %zu coarse summaries\n",
      records, controller.bandwidth_store().shard_count(), ticks, incidents,
      static_cast<unsigned long long>(controller.early_te_resolves()), stats.fine_records,
      stats.coarse_summaries);
  std::printf("      query serving: %llu served, %llu shed, %llu views acquired\n",
              static_cast<unsigned long long>(queries_served.load()),
              static_cast<unsigned long long>(controller.query_budget().shed_total()),
              static_cast<unsigned long long>(stats.views_acquired));
  if (query_deviations.load() != 0) {
    std::fprintf(stderr, "CONTRACT SOAK FAILED: %llu incoherent concurrent read(s)\n",
                 static_cast<unsigned long long>(query_deviations.load()));
    return 1;
  }
  if (spill) {
    std::printf("      spill tier: %zu files, %zu records, %zu bytes on disk, "
                "%llu maps / %llu unmaps (%s)\n",
                stats.spilled_files, stats.spilled_records, stats.spilled_bytes,
                static_cast<unsigned long long>(stats.spill_maps),
                static_cast<unsigned long long>(stats.spill_unmaps), spill_dir.c_str());
  }
  if (failures != 0) {
    std::fprintf(stderr, "CONTRACT SOAK FAILED: %zu contract violation(s) logged\n", failures);
    return 1;
  }
  std::printf("contract soak passed: 0 contract violations\n");
  return 0;
}
