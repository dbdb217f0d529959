// Shard-merge equivalence properties of the partitioned BandwidthLogStore:
// for random pair streams (in-order and out-of-order), N-shard ingest plus
// retention seal must produce byte-identical fine_range() / coarse() output
// to the single-shard store — at several shard counts, thread counts, via
// bulk and per-record ingest, and through both the streaming-seal and the
// batch-coarsen fallback retention paths. Drift reports must be
// bit-identical across shard counts too (PairId-ordered folding).
//
// The spill-tier properties live here too: with `spill_dir` set, sealing
// demotes fine days to column files instead of dropping them, and
// fine_range() over spilled days — full horizon, ranges straddling the
// spill/resident boundary, and after re-ingest into an already-spilled day
// — must stay byte-identical to a store that never sealed anything.
//
// Reads cost the rows they return: spill blocks and resident chunks whose
// time bounds miss a window are skipped. Random windows over resident and
// spilled days — with out-of-order rows, a second spill generation and
// pairs interned between reads — must still equal the single-shard store,
// a 15-minute spilled read verifies at most 5% of its day's spill bytes,
// and a read whose pairs the name-rank table already covers makes no
// name string comparison.
//
// stats() keeps its byte gauges as running counts; the reference
// estimators they replaced (BandwidthLog::approximate_bytes over the
// resident rows, CoarseBandwidthLog::approximate_bytes over coarse()) pin
// them to exact values through every ingest path, seal, spill and re-ingest.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "telemetry/log_store.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/rng.h"

namespace smn::telemetry {
namespace {

void expect_logs_identical(const BandwidthLog& a, const BandwidthLog& b) {
  ASSERT_EQ(a.record_count(), b.record_count());
  for (std::size_t i = 0; i < a.record_count(); ++i) {
    ASSERT_EQ(a.timestamps()[i], b.timestamps()[i]) << "row " << i;
    ASSERT_EQ(a.pair_ids()[i], b.pair_ids()[i]) << "row " << i;
    // Exact double equality: same record routed through either store.
    ASSERT_EQ(a.bandwidths()[i], b.bandwidths()[i]) << "row " << i;
  }
}

void expect_coarse_identical(const CoarseBandwidthLog& a, const CoarseBandwidthLog& b) {
  ASSERT_EQ(a.summary_count(), b.summary_count());
  const auto& sa = a.summaries();
  const auto& sb = b.summaries();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].pair, sb[i].pair) << "summary " << i;
    ASSERT_EQ(sa[i].window_start, sb[i].window_start) << "summary " << i;
    ASSERT_EQ(sa[i].window_length, sb[i].window_length) << "summary " << i;
    ASSERT_EQ(sa[i].sample_count, sb[i].sample_count) << "summary " << i;
    // Exact equality, not near: identical sample sequences through the
    // same util::summarize.
    ASSERT_EQ(sa[i].mean, sb[i].mean) << "summary " << i;
    ASSERT_EQ(sa[i].p50, sb[i].p50) << "summary " << i;
    ASSERT_EQ(sa[i].p95, sb[i].p95) << "summary " << i;
    ASSERT_EQ(sa[i].min, sb[i].min) << "summary " << i;
    ASSERT_EQ(sa[i].max, sb[i].max) << "summary " << i;
  }
}

/// Random three-day stream over a shared pair pool: mostly ascending
/// timestamps with occasional backward jumps (out-of-order arrivals) and a
/// heavy-tailed pair distribution (shard skew).
BandwidthLog random_stream(std::uint64_t seed, std::size_t records) {
  util::IdSpace& ids = util::IdSpace::global();
  std::vector<util::PairId> pool;
  for (int p = 0; p < 60; ++p) {
    pool.push_back(ids.pair_of_names("shard-src" + std::to_string(p % 12),
                                     "shard-dst" + std::to_string(p / 12 + 13 * (p % 5))));
  }
  util::Rng rng(seed);
  BandwidthLog log;
  util::SimTime t = 0;
  for (std::size_t i = 0; i < records; ++i) {
    // Heavy tail: a third of the stream concentrates on one pair.
    const std::size_t pick = rng.bernoulli(0.33)
                                 ? 0
                                 : static_cast<std::size_t>(
                                       rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
    log.append(t, pool[pick], static_cast<double>(rng.uniform_int(1, 900)) * 1.25);
    if (rng.bernoulli(0.1)) {
      // Out-of-order arrival: jump back up to two hours (can cross a
      // window, reopening it as a new accumulator run).
      t = std::max<util::SimTime>(0, t - rng.uniform_int(0, 2 * util::kHour));
    } else {
      t += rng.uniform_int(0, 2 * util::kTelemetryEpoch);
    }
  }
  return log;
}

/// Several independent random_stream() days laid end to end: out-of-order
/// arrivals stay within each day, days ascend. Gives the retention seal a
/// genuinely multi-day horizon (a single random_stream hovers inside day
/// zero — its backward jumps roughly cancel the forward drift).
BandwidthLog multi_day_stream(std::uint64_t seed, std::size_t records_per_day, int days) {
  BandwidthLog log;
  for (int d = 0; d < days; ++d) {
    const BandwidthLog one = random_stream(seed + static_cast<std::uint64_t>(d), records_per_day);
    const util::SimTime base = d * util::kDay;
    for (std::size_t i = 0; i < one.record_count(); ++i) {
      log.append(base + one.timestamps()[i] % util::kDay, one.pair_ids()[i], one.bandwidths()[i]);
    }
  }
  return log;
}

LogStoreConfig sharded(std::size_t shards, std::size_t threads) {
  return LogStoreConfig{.streaming_window = util::kHour,
                        .shards = shards,
                        .ingest_threads = threads};
}

/// Sharded config with the cold tier under a test-unique directory (spill
/// file names are only unique per store, so stores must not share one).
LogStoreConfig spill_config(std::size_t shards, std::size_t threads, const std::string& subdir) {
  LogStoreConfig config = sharded(shards, threads);
  config.spill_dir = ::testing::TempDir() + "smn_spill_prop/" + subdir;
  return config;
}

BandwidthLog concat(const BandwidthLog& a, const BandwidthLog& b) {
  BandwidthLog out = a;
  for (std::size_t i = 0; i < b.record_count(); ++i) {
    out.append(b.timestamps()[i], b.pair_ids()[i], b.bandwidths()[i]);
  }
  return out;
}

/// stats() against the reference estimators: fine gauges against the
/// store's resident rows, coarse gauges against coarse(), and the
/// high-water mark against a fresh ReadView.
void expect_stats_match_reference(const BandwidthLogStore& store, const BandwidthLog& resident) {
  const LogStoreStats stats = store.stats();
  EXPECT_EQ(stats.fine_records, resident.record_count());
  EXPECT_EQ(stats.open_window_samples, resident.record_count());
  EXPECT_EQ(stats.fine_bytes, resident.approximate_bytes());
  EXPECT_EQ(stats.coarse_summaries, store.coarse().summary_count());
  EXPECT_EQ(stats.coarse_bytes, store.coarse().approximate_bytes());
  EXPECT_EQ(stats.high_water, store.read_view().high_water());
}

TEST(ShardMergeProperty, BulkIngestMatchesSingleShardAtManyShardAndThreadCounts) {
  const BandwidthLog stream = random_stream(101, 20000);
  BandwidthLogStore reference(util::kHour);
  reference.ingest(stream);
  const BandwidthLog ref_fine = reference.fine_range(0, 10 * util::kDay);
  reference.coarsen_older_than(10 * util::kDay, util::kDay, util::kHour);

  for (const std::size_t shards : {2u, 3u, 8u, 13u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      BandwidthLogStore store(sharded(shards, threads));
      store.ingest(stream);
      ASSERT_EQ(store.shard_count(), shards);
      expect_logs_identical(store.fine_range(0, 10 * util::kDay), ref_fine);
      store.coarsen_older_than(10 * util::kDay, util::kDay, util::kHour);
      expect_coarse_identical(store.coarse(), reference.coarse());
      EXPECT_EQ(store.stats().open_window_samples, 0u);
    }
  }
}

TEST(ShardMergeProperty, PerRecordIngestMatchesBulk) {
  const BandwidthLog stream = random_stream(202, 8000);
  BandwidthLogStore bulk(sharded(8, 2));
  bulk.ingest(stream);
  BandwidthLogStore one_by_one(sharded(8, 2));
  for (std::size_t i = 0; i < stream.record_count(); ++i) {
    one_by_one.ingest(stream.timestamps()[i], stream.pair_ids()[i], stream.bandwidths()[i]);
  }
  expect_logs_identical(one_by_one.fine_range(0, 10 * util::kDay),
                        bulk.fine_range(0, 10 * util::kDay));
  bulk.coarsen_older_than(10 * util::kDay, 0, util::kHour);
  one_by_one.coarsen_older_than(10 * util::kDay, 0, util::kHour);
  expect_coarse_identical(one_by_one.coarse(), bulk.coarse());
}

TEST(ShardMergeProperty, BatchFallbackWindowMatchesSingleShard) {
  // A retention window different from the streaming window forces the
  // batch-coarsen path; the per-shard batch passes merged in name order
  // must equal the single-shard batch pass.
  const BandwidthLog stream = random_stream(303, 12000);
  BandwidthLogStore reference(util::kHour);
  reference.ingest(stream);
  reference.coarsen_older_than(10 * util::kDay, 0, 2 * util::kHour);

  BandwidthLogStore store(sharded(8, 4));
  store.ingest(stream);
  store.coarsen_older_than(10 * util::kDay, 0, 2 * util::kHour);
  expect_coarse_identical(store.coarse(), reference.coarse());
}

TEST(ShardMergeProperty, PartialRetentionKeepsRecentDaysIdentical) {
  const BandwidthLog stream = random_stream(404, 15000);
  BandwidthLogStore reference(util::kHour);
  reference.ingest(stream);
  BandwidthLogStore store(sharded(5, 2));
  store.ingest(stream);

  // Seal only days older than one day; the fine remainder and the sealed
  // prefix must both match the single-shard store.
  const util::SimTime now = stream.time_range().second;
  const std::size_t ref_retired = reference.coarsen_older_than(now, util::kDay, util::kHour);
  const std::size_t retired = store.coarsen_older_than(now, util::kDay, util::kHour);
  EXPECT_EQ(retired, ref_retired);
  expect_coarse_identical(store.coarse(), reference.coarse());
  expect_logs_identical(store.fine_range(0, now + util::kDay),
                        reference.fine_range(0, now + util::kDay));

  const LogStoreStats stats = store.stats();
  ASSERT_EQ(stats.shard_records.size(), 5u);
  std::size_t total = 0;
  for (const std::size_t r : stats.shard_records) total += r;
  EXPECT_EQ(total, stats.fine_records);
  EXPECT_EQ(stats.fine_records, reference.stats().fine_records);
}

TEST(ShardMergeProperty, DriftReportBitIdenticalAcrossShardCounts) {
  const BandwidthLog stream = random_stream(505, 10000);
  DemandBaseline baseline;
  baseline.solved_at = 0;
  // Baseline at 100 Gbps per pair over the pool's first-seen pairs.
  for (const util::PairId pair : stream.pair_ids_first_seen()) {
    baseline.entries.emplace_back(pair, 100.0);
  }

  DriftReport reference;
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 8u, 13u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    BandwidthLogStore store(sharded(shards, 2));
    store.set_demand_baseline(baseline);
    store.ingest(stream);
    const DriftReport report = store.drift();
    ASSERT_TRUE(report.has_baseline);
    EXPECT_GT(report.level, 0.0);
    if (first) {
      reference = report;
      first = false;
      continue;
    }
    // Bit-identical folding (PairId order), independent of sharding.
    EXPECT_EQ(report.level, reference.level);
    EXPECT_EQ(report.deviation_gbps, reference.deviation_gbps);
    EXPECT_EQ(report.baseline_gbps, reference.baseline_gbps);
    EXPECT_EQ(report.pairs_tracked, reference.pairs_tracked);
  }
}

TEST(ShardMergeProperty, WanWorkloadMatchesSingleShard) {
  // The 308-DC planetary WAN workload the bench runs: generator traffic is
  // in-order, one record per active pair per five-minute epoch.
  const topology::WanTopology wan = topology::generate_planetary_wan({});
  TrafficConfig config;
  config.duration = util::kDay;
  config.active_pairs = 500;
  config.seed = 77;
  const BandwidthLog fine = TrafficGenerator(wan, config).generate();

  BandwidthLogStore reference(util::kHour);
  reference.ingest(fine);
  BandwidthLogStore store(sharded(8, 4));
  store.ingest(fine);

  expect_logs_identical(store.fine_range(0, 2 * util::kDay),
                        reference.fine_range(0, 2 * util::kDay));
  reference.coarsen_older_than(10 * util::kDay, 0, util::kHour);
  store.coarsen_older_than(10 * util::kDay, 0, util::kHour);
  expect_coarse_identical(store.coarse(), reference.coarse());
}

TEST(SpillTierProperty, SpilledFineRangeMatchesAllResidentAtManyShardCounts) {
  const BandwidthLog stream = multi_day_stream(606, 6000, 4);
  const util::SimTime now = 4 * util::kDay;
  BandwidthLogStore reference(util::kHour);  // never sealed: everything resident
  reference.ingest(stream);

  for (const std::size_t shards : {2u, 8u, 13u}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      BandwidthLogStore store(spill_config(
          shards, threads, "match_s" + std::to_string(shards) + "_t" + std::to_string(threads)));
      store.ingest(stream);
      const std::size_t resident_before = store.stats().resident_bytes;

      // Seal days 0..1; days 2..3 stay resident behind the one-day age.
      store.coarsen_older_than(now, util::kDay, util::kHour);
      const LogStoreStats after = store.stats();
      ASSERT_GT(after.spilled_records, 0u);
      ASSERT_GT(after.spilled_files, 0u);
      EXPECT_LT(after.resident_bytes, resident_before);
      // On-disk bytes cover the 20 B/record columns plus one header per file.
      EXPECT_GT(after.spilled_bytes, 20u * after.spilled_records);

      // Full horizon: merged cold + warm reads are byte-identical.
      expect_logs_identical(store.fine_range(0, now + util::kDay),
                            reference.fine_range(0, now + util::kDay));
      // Purely-spilled window (day zero is sealed here).
      expect_logs_identical(store.fine_range(0, util::kDay), reference.fine_range(0, util::kDay));
      // Range straddling the spill/resident boundary (day 1 spilled, day 2
      // resident), cut mid-day to mid-day.
      const util::SimTime cut = util::kDay + util::kDay / 2;
      expect_logs_identical(store.fine_range(cut, cut + util::kDay),
                            reference.fine_range(cut, cut + util::kDay));

      // Reads mapped (and released) at least one spill file each.
      const LogStoreStats read_stats = store.stats();
      EXPECT_GT(read_stats.spill_maps, 0u);
      EXPECT_EQ(read_stats.spill_maps, read_stats.spill_unmaps);
    }
  }
}

TEST(SpillTierProperty, SealAllLeavesNothingResidentAndCoarseIdentical) {
  const BandwidthLog stream = random_stream(707, 12000);
  BandwidthLogStore reference(util::kHour);
  reference.ingest(stream);
  const BandwidthLog ref_fine = reference.fine_range(0, 10 * util::kDay);
  reference.coarsen_older_than(10 * util::kDay, 0, util::kHour);

  BandwidthLogStore store(spill_config(8, 2, "seal_all"));
  store.ingest(stream);
  const std::size_t total_records = store.stats().fine_records;
  store.coarsen_older_than(10 * util::kDay, 0, util::kHour);

  const LogStoreStats stats = store.stats();
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.fine_records, 0u);
  EXPECT_EQ(stats.spilled_records, total_records);
  // Coarse output is unchanged by spilling (same seal path feeds it), and
  // the fine view now served entirely from disk is still byte-identical.
  expect_coarse_identical(store.coarse(), reference.coarse());
  expect_logs_identical(store.fine_range(0, 10 * util::kDay), ref_fine);
}

TEST(SpillTierProperty, ReingestIntoSpilledDayAddsSecondGeneration) {
  const BandwidthLog first = random_stream(808, 9000);
  const BandwidthLog second = random_stream(909, 9000);  // same horizon, t=0 onward
  BandwidthLogStore reference(util::kHour);
  reference.ingest(first);
  reference.ingest(second);

  BandwidthLogStore store(spill_config(8, 2, "reingest"));
  store.ingest(first);
  store.coarsen_older_than(10 * util::kDay, 0, util::kHour);  // every day spilled
  const LogStoreStats gen1 = store.stats();
  ASSERT_GT(gen1.spilled_files, 0u);

  // Late arrivals land in already-spilled days: a fresh resident slab opens
  // behind each spill file, and reads merge generation-0 before it (ingest
  // order), matching the reference that saw both streams back to back.
  store.ingest(second);
  expect_logs_identical(store.fine_range(0, 10 * util::kDay),
                        reference.fine_range(0, 10 * util::kDay));

  // Sealing again writes generation-2 files alongside generation-1 ones;
  // the fully-cold view must still replay the complete ingest order.
  store.coarsen_older_than(10 * util::kDay, 0, util::kHour);
  const LogStoreStats gen2 = store.stats();
  EXPECT_GT(gen2.spilled_files, gen1.spilled_files);
  EXPECT_EQ(gen2.spilled_records, first.record_count() + second.record_count());
  EXPECT_EQ(gen2.resident_bytes, 0u);
  expect_logs_identical(store.fine_range(0, 10 * util::kDay),
                        reference.fine_range(0, 10 * util::kDay));
}

TEST(SpillTierProperty, PartialRetentionWithSpillMatchesNoSpillCoarse) {
  // Spilling must not perturb the coarse tier: a spill store and a drop
  // store sealing the same prefix emit identical summaries, and the spill
  // store's fine remainder still matches the never-sealed reference.
  const BandwidthLog stream = multi_day_stream(1010, 5000, 3);
  const util::SimTime now = 3 * util::kDay;

  BandwidthLogStore reference(util::kHour);
  reference.ingest(stream);
  BandwidthLogStore dropping(sharded(5, 2));
  dropping.ingest(stream);
  BandwidthLogStore spilling(spill_config(5, 2, "coarse_parity"));
  spilling.ingest(stream);

  const std::size_t dropped = dropping.coarsen_older_than(now, util::kDay, util::kHour);
  const std::size_t spilled = spilling.coarsen_older_than(now, util::kDay, util::kHour);
  EXPECT_EQ(spilled, dropped);
  expect_coarse_identical(spilling.coarse(), dropping.coarse());
  expect_logs_identical(spilling.fine_range(0, now + util::kDay),
                        reference.fine_range(0, now + util::kDay));
  // The drop store lost the sealed prefix; the spill store still serves it.
  EXPECT_LT(dropping.fine_range(0, util::kDay).record_count(),
            spilling.fine_range(0, util::kDay).record_count());
}

TEST(StatsGaugeProperty, RunningCountsMatchReferenceEstimators) {
  const BandwidthLog stream = multi_day_stream(1111, 3000, 3);
  // Late arrivals near t=0: they land in days the first seal spilled.
  const BandwidthLog late = random_stream(1212, 2000);
  const util::SimTime now = 3 * util::kDay;

  // Per-record ingest at every shard count; bulk ingest is the single-shard
  // append loop at one shard and the counting-sort scatter above that.
  for (const std::size_t shards : {1u, 3u, 8u}) {
    for (const bool bulk : {false, true}) {
      const std::string name = "stats_s" + std::to_string(shards) + (bulk ? "_bulk" : "_record");
      SCOPED_TRACE(name);
      BandwidthLogStore store(spill_config(shards, 2, name));
      const auto feed = [&](const BandwidthLog& log) {
        if (bulk) {
          store.ingest(log);
          return;
        }
        for (std::size_t i = 0; i < log.record_count(); ++i) {
          store.ingest(log.timestamps()[i], log.pair_ids()[i], log.bandwidths()[i]);
        }
      };

      feed(stream);
      expect_stats_match_reference(store, stream);

      // Seal and spill days 0 and 1; day 2 stays resident.
      store.coarsen_older_than(now, util::kDay, util::kHour);
      const BandwidthLog day2 = store.fine_range(2 * util::kDay, now);
      ASSERT_GT(day2.record_count(), 0u);
      ASSERT_GT(store.stats().spilled_records, 0u);
      expect_stats_match_reference(store, day2);

      // Re-ingest into spilled days opens fresh resident slabs behind the
      // spill files.
      feed(late);
      expect_stats_match_reference(store, concat(day2, late));

      // Sealing everything writes the second-generation files.
      const std::size_t files_before = store.stats().spilled_files;
      store.coarsen_older_than(10 * util::kDay, 0, util::kHour);
      const LogStoreStats sealed = store.stats();
      EXPECT_GT(sealed.spilled_files, files_before);
      EXPECT_EQ(sealed.spilled_records, stream.record_count() + late.record_count());
      expect_stats_match_reference(store, BandwidthLog{});
    }
  }
}

/// Cold-tier config whose directory starts empty (leftovers of an earlier
/// run would hold a stale LOCK or stale generation files).
LogStoreConfig fresh_spill_config(std::size_t shards, std::size_t threads,
                                  const std::string& subdir) {
  LogStoreConfig config = spill_config(shards, threads, subdir);
  std::filesystem::remove_all(config.spill_dir);
  return config;
}

/// fine_range over `windows` random windows of [0, horizon): lengths from
/// one epoch to two days, starts anywhere (including before the data).
void expect_random_windows_identical(const BandwidthLogStore& store,
                                     const BandwidthLogStore& reference, util::SimTime horizon,
                                     std::uint64_t seed, int windows) {
  util::Rng rng(seed);
  const util::SimTime lengths[] = {util::kTelemetryEpoch, 15 * util::kMinute, util::kHour,
                                   7 * util::kHour, util::kDay, 2 * util::kDay};
  for (int w = 0; w < windows; ++w) {
    const util::SimTime begin = rng.uniform_int(-util::kHour, horizon);
    const util::SimTime end = begin + lengths[rng.uniform_int(0, 5)];
    SCOPED_TRACE("window [" + std::to_string(begin) + ", " + std::to_string(end) + ")");
    expect_logs_identical(store.fine_range(begin, end), reference.fine_range(begin, end));
  }
}

TEST(ReadPathProperty, RandomWindowsMatchSingleShardAcrossTiers) {
  const util::SimTime now = 4 * util::kDay;
  const BandwidthLog stream = multi_day_stream(1313, 6000, 4);  // out-of-order within days
  const BandwidthLog late = random_stream(1414, 3000);           // lands in spilled day 0
  BandwidthLogStore reference(util::kHour);  // one shard, never sealed
  reference.ingest(stream);
  BandwidthLogStore store(fresh_spill_config(8, 2, "random_windows"));
  store.ingest(stream);

  // Days 0..2 spill; day 3 stays resident.
  store.coarsen_older_than(now, util::kDay, util::kHour);
  ASSERT_GT(store.stats().spilled_files, 0u);
  expect_random_windows_identical(store, reference, now, 1, 60);

  // Re-ingest into the spilled day, then seal again: day 0 gains
  // generation-2 files behind generation 1.
  reference.ingest(late);
  store.ingest(late);
  expect_random_windows_identical(store, reference, now, 2, 60);
  const std::size_t files_before = store.stats().spilled_files;
  store.coarsen_older_than(now, util::kDay, util::kHour);
  ASSERT_GT(store.stats().spilled_files, files_before);
  expect_random_windows_identical(store, reference, now, 3, 60);

  // Pairs interned between two reads, named to sort before every pair so
  // far: the rank table grows and every earlier rank shifts.
  util::IdSpace& ids = util::IdSpace::global();
  const std::size_t covered = ids.pair_ranks()->size();
  BandwidthLog fresh;
  for (int p = 0; p < 5; ++p) {
    const util::PairId pair = ids.pair_of_names("aaa-read-src" + std::to_string(p), "aaa-read-dst");
    for (util::SimTime t = 3 * util::kDay; t < now; t += util::kHour) {
      fresh.append(t + p, pair, 10.0 + p);
    }
  }
  reference.ingest(fresh);
  store.ingest(fresh);
  expect_random_windows_identical(store, reference, now, 4, 60);
  EXPECT_GT(ids.pair_ranks()->size(), covered);
}

TEST(ReadWorkProperty, FifteenMinuteSpilledReadVerifiesAtMostFivePercentOfItsDay) {
  // Benchmark density: the 308-DC WAN, 1000 pairs at five-minute epochs,
  // eight shards. Day 0 spills; each 15-minute read of it must checksum at
  // most 5% of the day's spill bytes (headers and block tables included).
  const topology::WanTopology wan = topology::generate_planetary_wan({});
  TrafficConfig config;
  config.duration = util::kDay;
  config.active_pairs = 1000;
  config.seed = 91;
  const BandwidthLog fine = TrafficGenerator(wan, config).generate();
  BandwidthLogStore reference(util::kHour);
  reference.ingest(fine);
  BandwidthLogStore store(fresh_spill_config(8, 1, "verify_budget"));
  store.ingest(fine);
  store.coarsen_older_than(util::kDay, 0, util::kHour);
  const LogStoreStats sealed = store.stats();
  ASSERT_EQ(sealed.spilled_records, fine.record_count());
  const double day_bytes = static_cast<double>(sealed.spilled_bytes);

  std::uint64_t verified = sealed.spill_bytes_verified;
  std::uint64_t scanned = sealed.rows_scanned;
  for (util::SimTime begin = 0; begin < util::kDay; begin += 15 * util::kMinute) {
    SCOPED_TRACE("window at " + std::to_string(begin));
    const util::SimTime end = begin + 15 * util::kMinute;
    const BandwidthLog got = store.fine_range(begin, end);
    expect_logs_identical(got, reference.fine_range(begin, end));
    const LogStoreStats after = store.stats();
    EXPECT_LE(static_cast<double>(after.spill_bytes_verified - verified), 0.05 * day_bytes);
    // Scanned rows are the returned rows plus at most two partial blocks
    // per spill file.
    EXPECT_LE(after.rows_scanned - scanned,
              got.record_count() + 2 * kFineChunkRows * sealed.spilled_files);
    verified = after.spill_bytes_verified;
    scanned = after.rows_scanned;
  }
}

TEST(ReadWorkProperty, CoveredReadsMakeNoNameComparison) {
  const util::SimTime now = 3 * util::kDay;
  const BandwidthLog stream = multi_day_stream(1515, 4000, 3);
  BandwidthLogStore store(fresh_spill_config(4, 2, "rank_covered"));
  store.ingest(stream);
  store.coarsen_older_than(now, util::kDay, util::kHour);
  util::IdSpace& ids = util::IdSpace::global();
  ids.pair_ranks();  // cover every pair interned so far

  const std::uint64_t before = ids.name_comparisons();
  // Spilled, resident and straddling reads, a streaming retention merge
  // and a batch coarsening: every sort ranks through the covering table.
  store.fine_range(0, util::kDay);
  store.fine_range(2 * util::kDay, now);
  store.fine_range(util::kDay / 2, 2 * util::kDay + util::kHour);
  store.coarsen_older_than(now + util::kDay, util::kDay, util::kHour);
  TimeCoarsener(util::kHour).coarsen(stream);
  EXPECT_EQ(ids.name_comparisons(), before);
}

}  // namespace
}  // namespace smn::telemetry
