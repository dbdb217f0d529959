// Identity of the pair grouping (telemetry/pair_groups.h) against the
// per-row groupings it replaced. Three consumers group a month of fine
// rows by pair — extract_all_series, DemandMatrix::from_log and
// CapacityPlanner::compute_utilization — and the controller now feeds
// them the store's storage-order read instead of the sorted fine_range().
// The old implementations are kept here verbatim as references: a
// std::map per pair of timestamp -> value, an unordered_map of value
// vectors, and a row-by-row utilization pass with a std::map epoch index
// and an unordered_map path cache. Each new consumer, given either the
// sorted read or the storage-order read of the same store, must match the
// reference run on the sorted read bit for bit. The store holds
// out-of-order rows, duplicate (pair, timestamp) rows (the last one wins),
// gaps, spilled days, a generation-2 re-ingest and a pair interned after
// the first seal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capacity/capacity_planner.h"
#include "graph/shortest_path.h"
#include "te/demand.h"
#include "telemetry/bandwidth_log.h"
#include "telemetry/forecast.h"
#include "telemetry/log_store.h"
#include "telemetry/pair_groups.h"
#include "telemetry/traffic_generator.h"
#include "topology/wan_generator.h"
#include "util/stats.h"

namespace smn {
namespace {

using telemetry::BandwidthLog;
using telemetry::Series;

constexpr util::SimTime kAllTime = std::numeric_limits<util::SimTime>::max();

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// --- References: the groupings before telemetry/pair_groups.h. ---

Series reference_densify(const std::map<util::SimTime, double>& points, util::SimTime epoch) {
  Series series;
  series.epoch = epoch;
  if (points.empty()) return series;
  series.start = points.begin()->first;
  const util::SimTime last = points.rbegin()->first;
  const auto n = static_cast<std::size_t>((last - series.start) / epoch) + 1;
  series.values.assign(n, std::numeric_limits<double>::quiet_NaN());
  for (const auto& [t, v] : points) {
    const auto idx = static_cast<std::size_t>((t - series.start) / epoch);
    if (idx < n) series.values[idx] = v;
  }
  std::size_t prev_known = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(series.values[i])) continue;
    if (i > prev_known + 1 && !std::isnan(series.values[prev_known])) {
      const double lo = series.values[prev_known];
      const double hi = series.values[i];
      for (std::size_t j = prev_known + 1; j < i; ++j) {
        const double frac = static_cast<double>(j - prev_known) /
                            static_cast<double>(i - prev_known);
        series.values[j] = lo + frac * (hi - lo);
      }
    }
    prev_known = i;
  }
  double last_known = 0.0;
  bool seen = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isnan(series.values[i])) {
      if (!seen) {
        for (std::size_t j = 0; j < i; ++j) series.values[j] = series.values[i];
      }
      last_known = series.values[i];
      seen = true;
    } else if (seen) {
      series.values[i] = last_known;
    }
  }
  return series;
}

std::vector<std::pair<util::PairId, Series>> reference_extract_all_series(
    const BandwidthLog& log, util::SimTime epoch = util::kTelemetryEpoch) {
  std::map<util::PairId, std::map<util::SimTime, double>> grouped;
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    grouped[log.pair_ids()[i]][log.timestamps()[i]] = log.bandwidths()[i];
  }
  std::vector<std::pair<util::PairId, Series>> out;
  for (const auto& [pair, points] : grouped) out.emplace_back(pair, reference_densify(points, epoch));
  return out;
}

Series reference_extract_series(const BandwidthLog& log, util::PairId pair) {
  std::map<util::SimTime, double> points;
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    if (log.pair_ids()[i] == pair) points[log.timestamps()[i]] = log.bandwidths()[i];
  }
  return reference_densify(points, util::kTelemetryEpoch);
}

std::vector<te::DemandEntry> reference_from_log(const BandwidthLog& log,
                                                te::DemandStatistic stat) {
  std::unordered_map<util::PairId, std::vector<double>> series;
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    series[log.pair_ids()[i]].push_back(log.bandwidths()[i]);
  }
  std::vector<util::PairId> keys;
  for (const auto& [pair, _] : series) keys.push_back(pair);
  const auto ranks = util::IdSpace::global().pair_ranks();
  std::sort(keys.begin(), keys.end(),
            [&](util::PairId a, util::PairId b) { return (*ranks)[a] < (*ranks)[b]; });
  std::vector<te::DemandEntry> out;
  const util::IdSpace& ids = util::IdSpace::global();
  for (const util::PairId pair : keys) {
    const util::Summary s = util::summarize(series.at(pair));
    double value = s.mean;
    if (stat == te::DemandStatistic::kP95) value = s.p95;
    if (stat == te::DemandStatistic::kMax) value = s.max;
    out.push_back(te::DemandEntry{ids.src_name(pair), ids.dst_name(pair), value, pair});
  }
  return out;
}

capacity::UtilizationSeries reference_compute_utilization(const topology::WanTopology& wan,
                                                          const BandwidthLog& log) {
  capacity::UtilizationSeries series;
  const graph::Digraph& g = wan.graph();
  const auto timestamps = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  std::map<util::SimTime, std::size_t> epoch_index;
  for (const util::SimTime ts : timestamps) epoch_index.emplace(ts, 0);
  std::size_t idx = 0;
  for (auto& [ts, i] : epoch_index) {
    i = idx++;
    series.epochs.push_back(ts);
  }
  const std::size_t epochs = series.epochs.size();
  series.by_link.assign(wan.link_count(), std::vector<double>(epochs, 0.0));
  if (epochs == 0) return series;
  const util::IdSpace& ids = util::IdSpace::global();
  std::unordered_map<util::PairId, std::vector<graph::EdgeId>> path_cache;
  std::vector<std::vector<double>> edge_load(g.edge_count(), std::vector<double>(epochs, 0.0));
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    auto it = path_cache.find(pairs[i]);
    if (it == path_cache.end()) {
      const auto src = wan.node_of(ids.pair_src(pairs[i]));
      const auto dst = wan.node_of(ids.pair_dst(pairs[i]));
      std::vector<graph::EdgeId> edges;
      if (src && dst && *src != *dst) {
        if (const auto path = graph::shortest_path(g, *src, *dst)) edges = path->edges;
      }
      it = path_cache.emplace(pairs[i], std::move(edges)).first;
    }
    if (it->second.empty()) continue;
    const std::size_t e_idx = epoch_index.at(timestamps[i]);
    for (const graph::EdgeId e : it->second) edge_load[e][e_idx] += bw[i];
  }
  for (std::size_t li = 0; li < wan.link_count(); ++li) {
    const topology::WanLink& link = wan.link(li);
    const double cap = link.capacity_gbps;
    if (cap <= 0.0) continue;
    for (std::size_t t = 0; t < epochs; ++t) {
      const double load = std::max(edge_load[link.forward][t], edge_load[link.backward][t]);
      series.by_link[li][t] = load / cap;
    }
  }
  return series;
}

// --- Comparisons. ---

void expect_series_identical(const Series& got, const Series& want) {
  ASSERT_EQ(got.start, want.start);
  ASSERT_EQ(got.epoch, want.epoch);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    ASSERT_TRUE(same_bits(got.values[i], want.values[i]))
        << "value " << i << ": " << got.values[i] << " vs " << want.values[i];
  }
}

void expect_all_series_identical(const std::vector<std::pair<util::PairId, Series>>& got,
                                 const std::vector<std::pair<util::PairId, Series>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(want[i].first));
    ASSERT_EQ(got[i].first, want[i].first);
    expect_series_identical(got[i].second, want[i].second);
  }
}

void expect_entries_identical(const std::vector<te::DemandEntry>& got,
                              const std::vector<te::DemandEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].pair, want[i].pair) << "entry " << i;
    ASSERT_EQ(got[i].src, want[i].src) << "entry " << i;
    ASSERT_EQ(got[i].dst, want[i].dst) << "entry " << i;
    ASSERT_TRUE(same_bits(got[i].gbps, want[i].gbps)) << "entry " << i;
  }
}

void expect_utilization_identical(const capacity::UtilizationSeries& got,
                                  const capacity::UtilizationSeries& want) {
  ASSERT_EQ(got.epochs, want.epochs);
  ASSERT_EQ(got.by_link.size(), want.by_link.size());
  for (std::size_t l = 0; l < want.by_link.size(); ++l) {
    ASSERT_EQ(got.by_link[l].size(), want.by_link[l].size());
    for (std::size_t t = 0; t < want.by_link[l].size(); ++t) {
      ASSERT_TRUE(same_bits(got.by_link[l][t], want.by_link[l][t]))
          << "link " << l << " epoch " << t;
    }
  }
}

// --- The store under test. ---

struct Reads {
  BandwidthLog sorted;   ///< fine_range()
  BandwidthLog storage;  ///< read_view().storage_range()
};

/// Three days of generator traffic over `wan`, perturbed: every 37th row
/// dropped (gaps), every 53rd row followed by a duplicate of its
/// (timestamp, pair) with another value, and every 41st row delivered 20
/// rows late. Ingested into an 8-shard spilling store; days 0-1 are sealed
/// and spilled, then day 0 is re-ingested (a generation-2 slab, sealed
/// again, then a resident third generation), partly by a pair interned
/// only after the first seal.
Reads perturbed_store_reads(const topology::WanTopology& wan, const std::string& dir) {
  telemetry::TrafficConfig traffic;
  traffic.duration = 3 * util::kDay;
  traffic.active_pairs = 60;
  traffic.seed = 99;
  const BandwidthLog clean = telemetry::TrafficGenerator(wan, traffic).generate();
  BandwidthLog stream;
  std::vector<std::size_t> late;
  for (std::size_t i = 0; i < clean.record_count(); ++i) {
    const util::SimTime t = clean.timestamps()[i];
    const util::PairId p = clean.pair_ids()[i];
    const double v = clean.bandwidths()[i];
    if (i % 37 == 5) continue;
    if (i % 41 == 3) {
      late.push_back(i);
    } else {
      stream.append(t, p, v);
      if (i % 53 == 7) stream.append(t, p, v * 1.5 + 1.0);
    }
    if (!late.empty() && i >= late.front() + 20) {
      const std::size_t j = late.front();
      late.erase(late.begin());
      stream.append(clean.timestamps()[j], clean.pair_ids()[j], clean.bandwidths()[j]);
    }
  }
  for (const std::size_t j : late) {
    stream.append(clean.timestamps()[j], clean.pair_ids()[j], clean.bandwidths()[j]);
  }

  std::filesystem::remove_all(dir);
  telemetry::LogStoreConfig config;
  config.shards = 8;
  config.ingest_threads = 1;
  config.spill_dir = dir;
  telemetry::BandwidthLogStore store(config);
  store.ingest(stream);
  store.coarsen_older_than(2 * util::kDay, 0, util::kHour);

  // Re-ingest into spilled day 0: existing pairs (duplicates of already
  // spilled (timestamp, pair) keys among them) and a pair of datacenters
  // interned only now.
  const util::PairId late_pair =
      util::IdSpace::global().pair_of_names("pair-groups-late-src", "pair-groups-late-dst");
  const auto reingest = [&](double scale) {
    for (std::size_t i = 0; i < 400; ++i) {
      const util::SimTime t = static_cast<util::SimTime>((i * 7919) % 288) * util::kTelemetryEpoch;
      const util::PairId p = i % 5 == 0 ? late_pair : clean.pair_ids()[(i * 13) % 60];
      store.ingest(t, p, scale * static_cast<double>(i % 17 + 1));
    }
  };
  reingest(2.0);
  store.coarsen_older_than(2 * util::kDay, 0, util::kHour);  // day 0, generation 1
  reingest(3.0);                                             // resident generation 2

  Reads reads;
  reads.sorted = store.fine_range(0, kAllTime);
  reads.storage = store.read_view().storage_range(0, kAllTime);
  return reads;
}

struct World {
  topology::WanTopology wan = topology::generate_test_wan();
  Reads reads = perturbed_store_reads(wan, ::testing::TempDir() + "smn_pair_groups_store");
};

const World& world() {
  static const World w;
  return w;
}

TEST(PairGroups, GroupsAreStableTimestampSortsOfEachPairsRows) {
  const BandwidthLog& log = world().reads.storage;
  const telemetry::PairGroups groups(log);
  std::map<util::PairId, std::vector<std::pair<util::SimTime, double>>> want;
  for (std::size_t i = 0; i < log.record_count(); ++i) {
    want[log.pair_ids()[i]].emplace_back(log.timestamps()[i], log.bandwidths()[i]);
  }
  ASSERT_EQ(groups.size(), want.size());
  std::size_t g = 0;
  for (auto& [pair, rows] : want) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_EQ(groups.pair(g), pair);
    ASSERT_EQ(groups.timestamps(g).size(), rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      ASSERT_EQ(groups.timestamps(g)[k], rows[k].first);
      ASSERT_TRUE(same_bits(groups.bandwidths(g)[k], rows[k].second));
    }
    ++g;
  }
  const auto order = groups.name_order();
  const auto ranks = util::IdSpace::global().pair_ranks();
  for (std::size_t k = 1; k < order.size(); ++k) {
    ASSERT_LT((*ranks)[groups.pair(order[k - 1])], (*ranks)[groups.pair(order[k])]);
  }
  EXPECT_EQ(telemetry::PairGroups(BandwidthLog{}).size(), 0u);
}

TEST(PairGroups, TheStoreHoldsWhatTheIdentityTestsNeed) {
  // Guards the fixture: the storage-order read really is out of sorted
  // order, holds out-of-order and duplicate rows per pair, and the same
  // rows as the sorted read.
  const Reads& r = world().reads;
  ASSERT_EQ(r.storage.record_count(), r.sorted.record_count());
  BandwidthLog resorted = r.storage;
  resorted.sort();
  for (std::size_t i = 0; i < r.sorted.record_count(); ++i) {
    ASSERT_EQ(resorted.timestamps()[i], r.sorted.timestamps()[i]);
    ASSERT_EQ(resorted.pair_ids()[i], r.sorted.pair_ids()[i]);
    ASSERT_TRUE(same_bits(resorted.bandwidths()[i], r.sorted.bandwidths()[i]));
  }
  bool storage_unsorted = false;
  for (std::size_t i = 1; i < r.storage.record_count(); ++i) {
    if (r.storage.timestamps()[i] < r.storage.timestamps()[i - 1]) storage_unsorted = true;
  }
  EXPECT_TRUE(storage_unsorted);
  std::map<std::pair<util::PairId, util::SimTime>, int> seen;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < r.sorted.record_count(); ++i) {
    if (++seen[{r.sorted.pair_ids()[i], r.sorted.timestamps()[i]}] == 2) ++duplicates;
  }
  EXPECT_GT(duplicates, 100u);
}

TEST(PairGroupsIdentity, ExtractAllSeriesMatchesTheMapReference) {
  const Reads& r = world().reads;
  const auto want = reference_extract_all_series(r.sorted);
  expect_all_series_identical(telemetry::extract_all_series(r.sorted), want);
  expect_all_series_identical(telemetry::extract_all_series(r.storage), want);
  for (std::size_t k = 0; k < want.size(); k += 7) {
    const util::PairId pair = want[k].first;
    SCOPED_TRACE("single pair " + std::to_string(pair));
    expect_series_identical(telemetry::extract_series(r.storage, pair),
                            reference_extract_series(r.sorted, pair));
  }
  EXPECT_TRUE(telemetry::extract_series(r.storage, util::kInvalidPairId).values.empty());
}

TEST(PairGroupsIdentity, DemandFromLogMatchesTheUnorderedMapReference) {
  const Reads& r = world().reads;
  for (const te::DemandStatistic stat :
       {te::DemandStatistic::kMean, te::DemandStatistic::kP95, te::DemandStatistic::kMax}) {
    const auto want = reference_from_log(r.sorted, stat);
    expect_entries_identical(te::DemandMatrix::from_log(r.sorted, stat).entries(), want);
    expect_entries_identical(te::DemandMatrix::from_log(r.storage, stat).entries(), want);
  }
}

TEST(PairGroupsIdentity, ForecastDemandIsTheSameOnEitherRead) {
  const Reads& r = world().reads;
  telemetry::ForecastOptions options;
  options.drift_level = 0.3;
  for (const telemetry::ForecastMethod method :
       {telemetry::ForecastMethod::kEwma, telemetry::ForecastMethod::kSeasonalNaive}) {
    expect_entries_identical(
        te::DemandMatrix::from_forecast(r.storage, 288, method, options).entries(),
        te::DemandMatrix::from_forecast(r.sorted, 288, method, options).entries());
  }
}

TEST(PairGroupsIdentity, UtilizationMatchesTheRowByRowReference) {
  const World& w = world();
  const capacity::CapacityPlanner planner(w.wan, capacity::PlannerConfig{});
  const auto want = reference_compute_utilization(w.wan, w.reads.sorted);
  expect_utilization_identical(planner.compute_utilization(w.reads.sorted), want);
  expect_utilization_identical(planner.compute_utilization(w.reads.storage), want);
}

}  // namespace
}  // namespace smn
