// PR-4 performance bench — the PairId-hash sharded BandwidthLogStore on the
// ~308-DC planetary WAN ingest workload (one day of 5-minute epochs across
// 8000 active pairs, ~2.3M records). Measures bulk ingest through the
// sharded store at 1/2/4/8 shards against a faithful reimplementation of
// the pre-sharding single-shard store (day-keyed segments plus one
// unordered_map of per-(pair, window) accumulators, per-record eager
// appends), and verifies the sharded stores' merged fine_range() and sealed
// coarse() output byte-identical to the single-shard baseline. Also
// demonstrates the drift tracker: a demand step-change against the last
// solve's baseline raises the aggregate drift level.
//
// Writes BENCH_sharded_ingest.json into the working directory:
//   {
//     "instance": {...},
//     "ingest_ms": {"single_shard_baseline", "sharded_1", ..., "sharded_8"},
//     "ingest_records_per_s": {...},
//     "speedup_8_shards_vs_single_shard": ...,
//     "fidelity": {"fine_identical", "coarse_identical", "legs_checked"},
//     "drift": {"pre_step_level", "post_step_level", "baseline_gbps"}
//   }
//
// The single-shard baseline is reimplemented here verbatim so the
// comparison cannot silently drift as the library evolves. `--smoke`
// shrinks the instance for the bench_smoke ctest label.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "te/demand.h"
#include "telemetry/log_store.h"
#include "telemetry/time_coarsening.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/stats.h"

namespace {

using namespace smn;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Faithful reimplementation of the pre-sharding single-shard store: one
// day-keyed segment map, one unordered_map of (pair << 32 | window) sample
// accumulators per day, per-record eager appends, streaming seal in
// (src name, dst name, window) order.
// ---------------------------------------------------------------------------

class SingleShardStore {
 public:
  explicit SingleShardStore(util::SimTime window) : window_(window) {}

  void ingest(util::SimTime timestamp, util::PairId pair, double bw_gbps) {
    const util::SimTime day = (timestamp / util::kDay) * util::kDay;
    segments_[day].append(timestamp, pair, bw_gbps);
    accums_[day][key(pair, (timestamp / window_) * window_)].push_back(bw_gbps);
  }

  void ingest(const telemetry::BandwidthLog& log) {
    const auto timestamps = log.timestamps();
    const auto pairs = log.pair_ids();
    const auto bw = log.bandwidths();
    for (std::size_t i = 0; i < log.record_count(); ++i) {
      ingest(timestamps[i], pairs[i], bw[i]);
    }
  }

  std::size_t coarsen_older_than(util::SimTime now, util::SimTime max_fine_age) {
    std::size_t retired = 0;
    for (auto it = segments_.begin(); it != segments_.end();) {
      if (now - (it->first + util::kDay) < max_fine_age) {
        ++it;
        continue;
      }
      seal_day(accums_.at(it->first));
      accums_.erase(it->first);
      retired += it->second.record_count();
      it = segments_.erase(it);
    }
    return retired;
  }

  telemetry::BandwidthLog fine_range(util::SimTime begin, util::SimTime end) const {
    telemetry::BandwidthLog out;
    for (const auto& [day, segment] : segments_) {
      if (day >= end || day + util::kDay <= begin) continue;
      const auto timestamps = segment.timestamps();
      const auto pairs = segment.pair_ids();
      const auto bw = segment.bandwidths();
      for (std::size_t i = 0; i < segment.record_count(); ++i) {
        if (timestamps[i] >= begin && timestamps[i] < end) {
          out.append(timestamps[i], pairs[i], bw[i]);
        }
      }
    }
    out.sort();
    return out;
  }

  const std::vector<telemetry::WindowSummary>& coarse() const { return coarse_; }

 private:
  std::uint64_t key(util::PairId pair, util::SimTime window_start) const {
    return (static_cast<std::uint64_t>(pair) << 32) |
           static_cast<std::uint32_t>(window_start / window_);
  }

  void seal_day(std::unordered_map<std::uint64_t, std::vector<double>>& accums) {
    std::vector<std::uint64_t> keys;
    keys.reserve(accums.size());
    for (const auto& [k, _] : accums) keys.push_back(k);
    const auto ranks = util::IdSpace::global().pair_ranks();
    std::sort(keys.begin(), keys.end(), [&](std::uint64_t a, std::uint64_t b) {
      const auto pa = (*ranks)[static_cast<util::PairId>(a >> 32)];
      const auto pb = (*ranks)[static_cast<util::PairId>(b >> 32)];
      if (pa != pb) return pa < pb;
      return (a & 0xFFFFFFFFu) < (b & 0xFFFFFFFFu);
    });
    for (const std::uint64_t k : keys) {
      const util::Summary stats = util::summarize(accums.at(k));
      telemetry::WindowSummary s;
      s.pair = static_cast<util::PairId>(k >> 32);
      s.window_start = static_cast<util::SimTime>(k & 0xFFFFFFFFu) * window_;
      s.window_length = window_;
      s.sample_count = stats.count;
      s.mean = stats.mean;
      s.p50 = stats.p50;
      s.p95 = stats.p95;
      s.min = stats.min;
      s.max = stats.max;
      coarse_.push_back(s);
    }
  }

  util::SimTime window_;
  std::map<util::SimTime, telemetry::BandwidthLog> segments_;
  std::map<util::SimTime, std::unordered_map<std::uint64_t, std::vector<double>>> accums_;
  std::vector<telemetry::WindowSummary> coarse_;
};

// ---------------------------------------------------------------------------

bool logs_identical(const telemetry::BandwidthLog& a, const telemetry::BandwidthLog& b) {
  if (a.record_count() != b.record_count()) return false;
  for (std::size_t i = 0; i < a.record_count(); ++i) {
    if (a.timestamps()[i] != b.timestamps()[i] || a.pair_ids()[i] != b.pair_ids()[i] ||
        a.bandwidths()[i] != b.bandwidths()[i]) {
      return false;
    }
  }
  return true;
}

bool summaries_identical(const std::vector<telemetry::WindowSummary>& a,
                         const std::vector<telemetry::WindowSummary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].pair != b[i].pair || a[i].window_start != b[i].window_start ||
        a[i].window_length != b[i].window_length ||
        a[i].sample_count != b[i].sample_count || a[i].mean != b[i].mean ||
        a[i].p50 != b[i].p50 || a[i].p95 != b[i].p95 || a[i].min != b[i].min ||
        a[i].max != b[i].max) {
      return false;
    }
  }
  return true;
}

telemetry::LogStoreConfig sharded_config(std::size_t shards) {
  return telemetry::LogStoreConfig{.streaming_window = util::kHour, .shards = shards};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // ~308-DC planetary WAN, one day of 5-minute epochs across 8000 active
  // pairs (~2.3M records): §4's "~300 datacenters of continuous telemetry".
  topology::WanConfig wan_config;
  if (smoke) {
    wan_config.regions_per_continent = 2;
    wan_config.dcs_per_region = 3;
  }
  telemetry::TrafficConfig traffic;
  traffic.duration = smoke ? 2 * util::kHour : util::kDay;
  traffic.active_pairs = smoke ? 200 : 8000;
  traffic.seed = 47;
  const util::SimTime window = util::kHour;
  const util::SimTime now = traffic.duration + util::kWeek;
  const int reps = smoke ? 1 : 3;
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};

  const auto wan = topology::generate_planetary_wan(wan_config);
  const telemetry::TrafficGenerator gen(wan, traffic);
  const telemetry::BandwidthLog log = gen.generate();
  const std::size_t records = log.record_count();
  std::printf("instance: %zu DCs, %zu pairs, %zu epochs (%zu records)\n",
              wan.datacenter_count(), gen.pairs().size(), gen.epoch_count(), records);

  // --- Ingest timing: single-shard baseline, then the sharded store. ---
  double baseline_ms = std::numeric_limits<double>::infinity();
  std::map<std::size_t, double> sharded_ms;
  for (const std::size_t n : shard_counts) sharded_ms[n] = baseline_ms;
  for (int r = 0; r < reps; ++r) {
    {
      SingleShardStore store(window);
      const auto start = Clock::now();
      store.ingest(log);
      baseline_ms = std::min(baseline_ms, ms_since(start));
    }
    for (const std::size_t n : shard_counts) {
      telemetry::BandwidthLogStore store(sharded_config(n));
      const auto start = Clock::now();
      store.ingest(log);
      sharded_ms[n] = std::min(sharded_ms[n], ms_since(start));
    }
  }

  // --- Byte-identity: every sharded leg vs the single-shard baseline. ---
  SingleShardStore reference(window);
  reference.ingest(log);
  const telemetry::BandwidthLog ref_fine = reference.fine_range(0, now);
  reference.coarsen_older_than(now, 0);
  bool fine_identical = true;
  bool coarse_identical = true;
  for (const std::size_t n : shard_counts) {
    telemetry::BandwidthLogStore store(sharded_config(n));
    store.ingest(log);
    fine_identical = fine_identical && logs_identical(store.fine_range(0, now), ref_fine);
    store.coarsen_older_than(now, 0, window);
    coarse_identical =
        coarse_identical && summaries_identical(store.coarse().summaries(), reference.coarse());
    if (!fine_identical || !coarse_identical) {
      std::fprintf(stderr, "FIDELITY FAILURE at %zu shards (fine=%d coarse=%d)\n", n,
                   fine_identical, coarse_identical);
      break;
    }
  }

  // --- Drift tracker demo: install the solved demand as baseline, then
  // step every pair's demand up 2x for two hours of epochs. ---
  double pre_step_level = -1.0;
  double post_step_level = -1.0;
  double baseline_gbps = 0.0;
  {
    telemetry::BandwidthLogStore store(sharded_config(8));
    store.ingest(log);
    const te::DemandMatrix solved = te::DemandMatrix::from_log(log, te::DemandStatistic::kMean);
    store.set_demand_baseline(solved.to_baseline(traffic.duration));
    pre_step_level = store.drift().level;
    telemetry::BandwidthLog step;
    const auto timestamps = log.timestamps();
    const auto pairs = log.pair_ids();
    const auto bw = log.bandwidths();
    const util::SimTime step_window = std::min<util::SimTime>(2 * util::kHour, traffic.duration);
    for (std::size_t i = 0; i < records; ++i) {
      if (timestamps[i] >= traffic.duration - step_window) {
        step.append(timestamps[i] + traffic.duration, pairs[i], 2.0 * bw[i]);
      }
    }
    store.ingest(step);
    const telemetry::DriftReport report = store.drift();
    post_step_level = report.level;
    baseline_gbps = report.baseline_gbps;
  }
  const bool drift_detected = post_step_level > std::max(pre_step_level, 0.25);

  const auto records_per_s = [&](double ms) {
    return ms > 0.0 ? static_cast<double>(records) / (ms / 1000.0) : 0.0;
  };
  const double speedup = baseline_ms / sharded_ms.at(8);
  std::printf("single-shard baseline: %8.1f ms  (%.2fM rec/s)\n", baseline_ms,
              records_per_s(baseline_ms) / 1e6);
  for (const std::size_t n : shard_counts) {
    std::printf("sharded x%zu:           %8.1f ms  (%.2fM rec/s, %.2fx)\n", n, sharded_ms.at(n),
                records_per_s(sharded_ms.at(n)) / 1e6, baseline_ms / sharded_ms.at(n));
  }
  std::printf("speedup (8 shards vs single-shard): %.2fx\n", speedup);
  std::printf("fidelity: fine %s, coarse %s\n", fine_identical ? "identical" : "MISMATCH",
              coarse_identical ? "identical" : "MISMATCH");
  std::printf("drift: pre %.3f -> post %.3f (baseline %.0f Gbps) %s\n", pre_step_level,
              post_step_level, baseline_gbps, drift_detected ? "detected" : "NOT DETECTED");

  std::FILE* out = std::fopen("BENCH_sharded_ingest.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sharded_ingest.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"instance\": {\"dcs\": %zu, \"pairs\": %zu, \"epochs\": %zu, "
               "\"records\": %zu, \"window_s\": %lld, \"smoke\": %s},\n",
               wan.datacenter_count(), gen.pairs().size(), gen.epoch_count(), records,
               static_cast<long long>(window), smoke ? "true" : "false");
  std::fprintf(out, "  \"ingest_ms\": {\"single_shard_baseline\": %.3f", baseline_ms);
  for (const std::size_t n : shard_counts) {
    std::fprintf(out, ", \"sharded_%zu\": %.3f", n, sharded_ms.at(n));
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"ingest_records_per_s\": {\"single_shard_baseline\": %.0f",
               records_per_s(baseline_ms));
  for (const std::size_t n : shard_counts) {
    std::fprintf(out, ", \"sharded_%zu\": %.0f", n, records_per_s(sharded_ms.at(n)));
  }
  std::fprintf(out, "},\n");
  std::fprintf(out, "  \"speedup_8_shards_vs_single_shard\": %.3f,\n", speedup);
  std::fprintf(out,
               "  \"fidelity\": {\"fine_identical\": %s, \"coarse_identical\": %s, "
               "\"legs_checked\": %zu},\n",
               fine_identical ? "true" : "false", coarse_identical ? "true" : "false",
               shard_counts.size());
  std::fprintf(out,
               "  \"drift\": {\"pre_step_level\": %.6f, \"post_step_level\": %.6f, "
               "\"baseline_gbps\": %.3f, \"detected\": %s}\n",
               pre_step_level, post_step_level, baseline_gbps,
               drift_detected ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_sharded_ingest.json\n");
  return (fine_identical && coarse_identical && drift_detected) ? 0 : 1;
}
