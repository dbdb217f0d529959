#include "smn/controller_core.h"

#include <algorithm>

#include "util/contracts.h"

namespace smn::smn {
namespace {

telemetry::LogStoreConfig store_config(const CoreConfig& config) {
  telemetry::LogStoreConfig store;
  store.streaming_window = config.bw_coarse_window;
  store.shards = config.bw_shards;
  store.ingest_threads = config.bw_ingest_threads;
  store.spill_dir = config.bw_spill_dir;
  store.spill_steal_lock = config.bw_spill_steal_lock;
  return store;
}

/// Knob validation, run from config_'s initializer so a bad config fails
/// before the store constructs (and before it takes any spill lockfile).
CoreConfig validated(CoreConfig config) {
  SMN_CHECK(config.bw_coarse_window > 0, "bw_coarse_window must be positive");
  SMN_CHECK(config.bw_max_fine_age >= 0, "bw_max_fine_age must be non-negative");
  SMN_CHECK(config.bw_shards >= 1, "bw_shards must be at least 1");
  SMN_CHECK(config.drift_resolve_threshold > 0.0,
            "drift_resolve_threshold must be positive");
  SMN_CHECK(config.drift_rearm_threshold >= 0.0,
            "drift_rearm_threshold must be non-negative");
  SMN_CHECK(config.drift_rearm_threshold < config.drift_resolve_threshold,
            "drift hysteresis needs rearm < resolve threshold; an inverted band can "
            "never re-arm after the first early solve");
  SMN_CHECK(config.drift_min_resolve_interval >= 0,
            "drift_min_resolve_interval must be non-negative");
  return config;
}

}  // namespace

ControllerCore::ControllerCore(CoreConfig config, std::string scope)
    : config_(validated(std::move(config))),
      scope_(std::move(scope)),
      store_(store_config(config_)) {}

std::size_t ControllerCore::ingest_bandwidth(const telemetry::BandwidthLog& log, Mib& mib) {
  store_.ingest(log);
  mib.increment_counter(scope_, "bw_records_ingested",
                        static_cast<double>(log.record_count()));
  return log.record_count();
}

std::size_t ControllerCore::run_bw_retention(util::SimTime now) {
  // Seal old fine bandwidth segments into summaries: the store's streaming
  // accumulators make this O(open windows), not O(records).
  return store_.coarsen_older_than(now, config_.bw_max_fine_age, config_.bw_coarse_window);
}

void ControllerCore::publish_store_gauges(Mib& mib, util::SimTime now) const {
  mib.set_gauge(scope_, "last_telemetry_tick", static_cast<double>(now));
  const telemetry::LogStoreStats s = store_.stats();
  mib.set_gauge(scope_, "bw_fine_records", static_cast<double>(s.fine_records));
  mib.set_gauge(scope_, "bw_coarse_summaries", static_cast<double>(s.coarse_summaries));
  mib.set_gauge(scope_, "bw_store_bytes", static_cast<double>(s.total_bytes()));
  // Shard occupancy: skew shows up as max >> mean.
  std::size_t occupied = 0;
  std::size_t max_records = 0;
  for (const std::size_t r : s.shard_records) {
    if (r > 0) ++occupied;
    max_records = std::max(max_records, r);
  }
  mib.set_gauge(scope_, "bw_shard_count", static_cast<double>(s.shard_records.size()));
  mib.set_gauge(scope_, "bw_shards_occupied", static_cast<double>(occupied));
  mib.set_gauge(scope_, "bw_shard_records_max", static_cast<double>(max_records));
  // Storage tiers: resident (hot columnar) vs spilled (cold files), plus
  // lifetime mapping traffic.
  mib.set_gauge(scope_, "bw_resident_bytes", static_cast<double>(s.resident_bytes));
  mib.set_gauge(scope_, "bw_spilled_bytes", static_cast<double>(s.spilled_bytes));
  mib.set_gauge(scope_, "bw_spilled_records", static_cast<double>(s.spilled_records));
  mib.set_gauge(scope_, "bw_spill_files", static_cast<double>(s.spilled_files));
  mib.set_gauge(scope_, "bw_spill_maps", static_cast<double>(s.spill_maps));
  mib.set_gauge(scope_, "bw_spill_unmaps", static_cast<double>(s.spill_unmaps));
  // Read work: what the reads cost, as counts no host speed moves.
  mib.set_gauge(scope_, "bw_spill_bytes_verified", static_cast<double>(s.spill_bytes_verified));
  mib.set_gauge(scope_, "bw_rows_scanned", static_cast<double>(s.rows_scanned));
  // Snapshot read path (DESIGN.md §14): view traffic, views pinning memory
  // right now, the interner generation readers resolve against, and how far
  // behind `now` a snapshot taken this instant would be. All of it comes off
  // stats() and the interner, not a ReadView of our own, so the view
  // counters count readers only.
  mib.set_gauge(scope_, "bw_read_views_acquired", static_cast<double>(s.views_acquired));
  mib.set_gauge(scope_, "bw_read_views_live", static_cast<double>(s.views_live));
  // Interner generation after the shard walk, in read_view()'s order.
  const util::IdSpaceSnapshot ids = util::IdSpace::global().snapshot();
  mib.set_gauge(scope_, "bw_reader_pair_epoch", static_cast<double>(ids.pair_count));
  mib.set_gauge(scope_, "bw_reader_dc_epoch", static_cast<double>(ids.dc_count));
  mib.set_gauge(scope_, "bw_snapshot_age",
                s.high_water > 0 ? static_cast<double>(now - s.high_water) : 0.0);
}

telemetry::DriftReport ControllerCore::check_demand_drift(
    util::SimTime now, Mib& mib, const std::function<void(util::SimTime)>& resolve) {
  const telemetry::DriftReport report = store_.drift();
  mib.set_gauge(scope_, "bw_drift_level", report.level);
  mib.set_gauge(scope_, "bw_drift_deviation_gbps", report.deviation_gbps);
  mib.set_gauge(scope_, "bw_drift_baseline_gbps", report.baseline_gbps);
  if (!report.has_baseline) return report;
  bool fire = false;
  {
    const std::lock_guard<std::mutex> lock(drift_mutex_);
    if (!drift_armed_) {
      // Hysteresis: stay disarmed until drift settles below the rearm
      // threshold, so one excursion fires exactly one early solve.
      if (report.level < config_.drift_rearm_threshold) drift_armed_ = true;
    } else if (report.level >= config_.drift_resolve_threshold &&
               !(last_te_solve_ &&
                 now - *last_te_solve_ < config_.drift_min_resolve_interval)) {
      drift_armed_ = false;
      ++early_te_resolves_;
      fire = true;
    }
  }
  if (!fire) return report;
  // Outside the critical section: the TE solve calls back into
  // note_te_solve, which takes drift_mutex_ itself.
  mib.increment_counter(scope_, "early_te_resolves");
  if (resolve) resolve(now);
  return report;
}

}  // namespace smn::smn
