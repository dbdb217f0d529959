// The concurrent snapshot read path (DESIGN.md §14): epoch-published
// storage (EpochTable / StableLog / interner generations), the store's
// ReadView snapshot semantics — a view taken mid-ingest must be
// byte-identical to the quiesced store restricted to its captured
// high-water marks — and the QueryBudget admission layer in front of the
// serving surface. The *Stress tests run under TSan in CI (ctest label
// `query_stress` via this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "smn/query_serving.h"
#include "telemetry/log_store.h"
#include "telemetry/stable_log.h"
#include "util/epoch_table.h"
#include "util/interner.h"
#include "util/rng.h"

namespace smn::telemetry {
namespace {

// ---------------------------------------------------------------------------
// EpochTable: the publication primitive everything above rests on.
// ---------------------------------------------------------------------------

TEST(EpochTable, PushBackReadsBackAcrossDirectoryGrowth) {
  // Chunk 4 with a 16-slot initial directory: 1000 elements forces several
  // directory republishes (RCU growth), not just chunk allocations.
  util::EpochTable<int> table(4);
  EXPECT_EQ(table.size(), 0u);
  for (int i = 0; i < 1000; ++i) table.push_back(i * 3);
  ASSERT_EQ(table.size(), 1000u);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(table[i], static_cast<int>(i) * 3);
}

TEST(EpochTable, ElementAddressesAreStableAcrossGrowth) {
  // The interner hands out `const std::string&` that must survive forever;
  // that only works if growth never moves elements.
  util::EpochTable<std::string> table(4);
  table.push_back("anchor");
  const std::string* anchor = &table[0];
  for (int i = 0; i < 500; ++i) table.push_back("filler" + std::to_string(i));
  EXPECT_EQ(anchor, &table[0]);
  EXPECT_EQ(*anchor, "anchor");
}

TEST(EpochTable, ForEachSpanCoversExactRange) {
  util::EpochTable<int> table(8);
  for (int i = 0; i < 100; ++i) table.push_back(i);
  std::vector<int> seen;
  table.for_each_span(5, 93, [&](std::size_t offset, std::span<const int> span) {
    ASSERT_EQ(offset, 5 + seen.size());
    seen.insert(seen.end(), span.begin(), span.end());
  });
  ASSERT_EQ(seen.size(), 88u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], static_cast<int>(i) + 5);
}

TEST(EpochTableStress, ReadersSeeOnlyPublishedValuesDuringGrowth) {
  // Single writer (the table's contract), many readers with no lock: every
  // index below an observed size() must read back fully constructed. TSan
  // verifies the release/acquire pairing; the value check verifies no
  // torn/default-constructed element is ever visible.
  util::EpochTable<std::uint64_t> table(16);
  constexpr std::uint64_t kRows = 20000;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t checked = 0;
      while (!done.load(std::memory_order_acquire) || checked < kRows) {
        const std::size_t n = table.size();
        for (std::uint64_t i = checked; i < n; ++i) {
          ASSERT_EQ(table[i], i * 7 + 1);
        }
        checked = n;
      }
    });
  }
  for (std::uint64_t i = 0; i < kRows; ++i) table.push_back(i * 7 + 1);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
}

// ---------------------------------------------------------------------------
// StableLog: the multi-column row publication on top of EpochTable.
// ---------------------------------------------------------------------------

TEST(StableLog, EmitTimeFilteredMatchesBandwidthLogSemantics) {
  StableLog log(8);
  for (int i = 0; i < 50; ++i) {
    log.append(i * util::kMinute, static_cast<util::PairId>(i % 3), 1.5 * i);
  }
  ASSERT_EQ(log.rows(), 50u);
  BandwidthLog out;
  log.emit_time_filtered(&out, log.rows(), 10 * util::kMinute, 20 * util::kMinute);
  ASSERT_EQ(out.record_count(), 10u);
  for (std::size_t i = 0; i < out.record_count(); ++i) {
    EXPECT_EQ(out.timestamps()[i], static_cast<util::SimTime>(i + 10) * util::kMinute);
    EXPECT_EQ(out.pair_ids()[i], static_cast<util::PairId>((i + 10) % 3));
    EXPECT_DOUBLE_EQ(out.bandwidths()[i], 1.5 * (i + 10));
  }
}

TEST(StableLog, EmitRespectsRowLimitBelowPublishedCount) {
  // The ReadView reads a captured prefix while ingest has already published
  // more rows — the limit, not rows(), bounds the scan.
  StableLog log(4);
  for (int i = 0; i < 20; ++i) log.append(i, 0, static_cast<double>(i));
  BandwidthLog out;
  log.emit_time_filtered(&out, 7, 0, 1000);
  ASSERT_EQ(out.record_count(), 7u);
  EXPECT_EQ(out.timestamps().back(), 6);
}

TEST(StableLogStress, ReaderSeesWholeRowsOnly) {
  // Rows publish as (stage 3 columns, then release rows_): a reader that
  // observes rows() == n must find all three columns coherent below n.
  StableLog log(64);
  constexpr std::size_t kRows = 15000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::size_t checked = 0;
    while (!done.load(std::memory_order_acquire) || checked < kRows) {
      const std::size_t n = log.rows();
      BandwidthLog out;
      log.emit_time_filtered(&out, n, 0, std::numeric_limits<util::SimTime>::max());
      ASSERT_EQ(out.record_count(), n);
      for (std::size_t i = checked; i < n; ++i) {
        ASSERT_EQ(out.timestamps()[i], static_cast<util::SimTime>(i));
        ASSERT_EQ(out.pair_ids()[i], static_cast<util::PairId>(i % 5));
        ASSERT_EQ(out.bandwidths()[i], static_cast<double>(i) * 0.5);
      }
      checked = n;
    }
  });
  for (std::size_t i = 0; i < kRows; ++i) {
    log.append(static_cast<util::SimTime>(i), static_cast<util::PairId>(i % 5),
               static_cast<double>(i) * 0.5);
  }
  done.store(true, std::memory_order_release);
  reader.join();
}

// ---------------------------------------------------------------------------
// Interner epochs: lock-free decode against a captured generation.
// ---------------------------------------------------------------------------

TEST(InternerEpoch, DecodeIsStableWhileWriterGrows) {
  util::Interner interner;
  const util::DcId first = interner.intern("alpha");
  // 5000 names at chunk 256 crosses the initial 16-slot directory (4096
  // elements) — decode of old ids must survive the directory republish.
  for (int i = 0; i < 5000; ++i) interner.intern("dc" + std::to_string(i));
  EXPECT_EQ(interner.name(first), "alpha");
  EXPECT_EQ(interner.size(), 5001u);
  EXPECT_THROW(interner.name(static_cast<util::DcId>(interner.size())), std::out_of_range);
}

TEST(InternerEpoch, SnapshotPairsAlwaysDecodeWithinSnapshot) {
  // The capture-order invariant: every PairId below snapshot.pair_count
  // decodes to DcIds below snapshot.dc_count.
  util::IdSpace ids;
  for (int i = 0; i < 200; ++i) {
    ids.pair_of_names("s" + std::to_string(i % 17), "d" + std::to_string(i % 13));
  }
  const util::IdSpaceSnapshot snap = ids.snapshot();
  EXPECT_EQ(snap.pair_count, ids.pair_count());
  for (util::PairId p = 0; p < snap.pair_count; ++p) {
    EXPECT_LT(ids.pair_src(p), snap.dc_count);
    EXPECT_LT(ids.pair_dst(p), snap.dc_count);
  }
}

TEST(InternerEpochStress, ConcurrentReadersResolveCapturedGenerations) {
  // One writer interning pairs (names first, then pairs — the publication
  // order the snapshot relies on); readers repeatedly snapshot and decode
  // every pair in their generation with no lock. Runs under TSan in CI.
  util::IdSpace ids;
  constexpr int kPairs = 4000;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::size_t seen = 0;
      while (!done.load(std::memory_order_acquire) || seen < kPairs) {
        const util::IdSpaceSnapshot snap = ids.snapshot();
        for (util::PairId p = 0; p < snap.pair_count; ++p) {
          ASSERT_LT(ids.pair_src(p), snap.dc_count);
          ASSERT_LT(ids.pair_dst(p), snap.dc_count);
          ASSERT_FALSE(ids.dc_name(ids.pair_src(p)).empty());
          ASSERT_FALSE(ids.dc_name(ids.pair_dst(p)).empty());
        }
        seen = snap.pair_count;
      }
    });
  }
  for (int i = 0; i < kPairs; ++i) {
    ids.pair_of_names("src" + std::to_string(i), "dst" + std::to_string(i / 2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(ids.pair_count(), static_cast<std::size_t>(kPairs));
}

// ---------------------------------------------------------------------------
// ReadView snapshot fidelity.
// ---------------------------------------------------------------------------

void expect_logs_identical(const BandwidthLog& got, const BandwidthLog& want) {
  ASSERT_EQ(got.record_count(), want.record_count());
  for (std::size_t i = 0; i < want.record_count(); ++i) {
    ASSERT_EQ(got.timestamps()[i], want.timestamps()[i]) << "row " << i;
    ASSERT_EQ(got.pair_ids()[i], want.pair_ids()[i]) << "row " << i;
    ASSERT_EQ(got.bandwidths()[i], want.bandwidths()[i]) << "row " << i;
  }
}

/// Deterministic multi-day stream over a small pair pool (out-of-order
/// arrivals inside each day, days ascending).
BandwidthLog serving_stream(std::uint64_t seed, std::size_t records_per_day, int days) {
  util::IdSpace& ids = util::IdSpace::global();
  std::vector<util::PairId> pool;
  for (int p = 0; p < 24; ++p) {
    pool.push_back(ids.pair_of_names("serve-src" + std::to_string(p % 6),
                                     "serve-dst" + std::to_string(p / 6)));
  }
  util::Rng rng(seed);
  BandwidthLog log;
  for (int d = 0; d < days; ++d) {
    util::SimTime t = d * util::kDay;
    for (std::size_t i = 0; i < records_per_day; ++i) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(pool.size()) - 1));
      log.append(t, pool[pick], static_cast<double>(rng.uniform_int(1, 500)) * 0.75);
      if (rng.bernoulli(0.1)) {
        t = std::max<util::SimTime>(d * util::kDay, t - rng.uniform_int(0, util::kHour));
      } else {
        t += rng.uniform_int(0, 40 * util::kMinute);
        t = std::min<util::SimTime>(t, (d + 1) * util::kDay - 1);
      }
    }
  }
  return log;
}

LogStoreConfig serving_config(std::size_t shards, const std::string& subdir) {
  LogStoreConfig config;
  config.streaming_window = util::kHour;
  config.shards = shards;
  config.ingest_threads = 1;
  config.spill_dir = ::testing::TempDir() + "smn_query_serving/" + subdir;
  return config;
}

constexpr util::SimTime kAllTime = std::numeric_limits<util::SimTime>::max();

TEST(ReadViewProperty, MidIngestViewEqualsQuiescedPrefixStore) {
  // The core §14 fidelity property: a view taken after ingesting prefix P
  // — with part of P already spilled to the cold tier — must read back
  // byte-identical to a fresh quiesced store holding exactly P, no matter
  // what lands in the store after the view (rest of the stream, second
  // spill generations, more retention).
  const BandwidthLog stream = serving_stream(2024, 1500, 5);
  const std::size_t split = stream.record_count() * 3 / 5;
  BandwidthLog prefix;
  BandwidthLog rest;
  for (std::size_t i = 0; i < stream.record_count(); ++i) {
    (i < split ? prefix : rest)
        .append(stream.timestamps()[i], stream.pair_ids()[i], stream.bandwidths()[i]);
  }

  for (const std::size_t shards : {8u, 1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    BandwidthLogStore store(
        serving_config(shards, "prefix" + std::to_string(shards)));
    store.ingest(prefix);
    // Spill straddle: seal days 0-1 of the prefix to the cold tier so the
    // view spans spilled generations AND resident slabs.
    store.coarsen_older_than(4 * util::kDay, 2 * util::kDay, util::kHour);

    const BandwidthLogStore::ReadView view = store.read_view();

    // Everything after this point must be invisible to the view: the rest
    // of the stream (including re-ingest into already-spilled days, which
    // opens second-generation slabs) and a deeper retention pass.
    store.ingest(rest);
    store.coarsen_older_than(6 * util::kDay, 2 * util::kDay, util::kHour);

    BandwidthLogStore reference(
        serving_config(shards, "prefix_ref" + std::to_string(shards)));
    reference.ingest(prefix);
    expect_logs_identical(view.fine_range(0, kAllTime), reference.fine_range(0, kAllTime));
    // Sub-range reads agree too (exercises the spilled-day key skip).
    expect_logs_identical(view.fine_range(util::kDay + 5 * util::kHour, 3 * util::kDay),
                          reference.fine_range(util::kDay + 5 * util::kHour, 3 * util::kDay));
    EXPECT_EQ(view.fine_rows(), prefix.record_count());
    EXPECT_GT(view.high_water(), 0);
  }
}

}  // namespace

/// Runs a seal's stages one at a time, so a test can read the store while
/// a day is detached and its spill file not yet swapped in.
struct LogStoreSealStages {
  using Detached = BandwidthLogStore::DetachedDay;
  static std::vector<Detached> detach_all(BandwidthLogStore& store, util::SimTime day) {
    std::vector<Detached> out;
    for (std::size_t s = 0; s < store.shard_count(); ++s) {
      out.push_back(store.detach_shard_day(s, day));
    }
    return out;
  }
  static void spill_all(BandwidthLogStore& store, const std::vector<Detached>& detached) {
    for (const Detached& d : detached) {
      if (d.pending) store.spill_detached(d);
    }
  }
};

namespace {

TEST(ReadViewProperty, MidSealViewsSeeEveryRowExactlyOnce) {
  // A seal detaches a day under the shard lock and writes its spill file
  // with no lock held. A view taken in between serves the day from the
  // pending slab; one taken after the swap reads the file. Both, and a
  // view pinned across the swap, must read byte-identical to a quiesced
  // single-shard store — while ingest adds new pairs and re-ingests into
  // the retiring day.
  const BandwidthLog stream = serving_stream(4242, 1200, 3);
  util::IdSpace& ids = util::IdSpace::global();
  BandwidthLog late;  // ingested mid-seal: the retiring day and a new pair
  const util::PairId fresh = ids.pair_of_names("midseal-new-src", "midseal-new-dst");
  for (int i = 0; i < 60; ++i) {
    late.append(static_cast<util::SimTime>(i) * 997, i % 3 == 0 ? fresh : stream.pair_ids()[i],
                static_cast<double>(i) + 0.5);
  }
  for (const std::size_t shards : {8u, 1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    LogStoreConfig config = serving_config(shards, "midseal" + std::to_string(shards));
    std::filesystem::remove_all(config.spill_dir);
    BandwidthLogStore store(config);
    store.ingest(stream);
    BandwidthLogStore reference(util::kHour);
    reference.ingest(stream);
    const std::size_t before = store.stats().fine_records;

    const auto detached = LogStoreSealStages::detach_all(store, 0);
    const BandwidthLogStore::ReadView pending = store.read_view();
    expect_logs_identical(pending.fine_range(0, kAllTime), reference.fine_range(0, kAllTime));
    EXPECT_EQ(pending.fine_rows(), stream.record_count());
    const LogStoreStats mid = store.stats();
    EXPECT_EQ(mid.fine_records, before);  // pending rows are still resident
    EXPECT_EQ(mid.spilled_records, 0u);

    store.ingest(late);
    reference.ingest(late);
    LogStoreSealStages::spill_all(store, detached);
    const LogStoreStats after = store.stats();
    EXPECT_EQ(after.fine_records + after.spilled_records,
              stream.record_count() + late.record_count());
    EXPECT_GT(after.spilled_records, 0u);

    // The view pinned before the swap still serves the slab, unchanged.
    BandwidthLogStore quiesced(util::kHour);
    quiesced.ingest(stream);
    expect_logs_identical(pending.fine_range(0, kAllTime), quiesced.fine_range(0, kAllTime));
    // A fresh view reads the file, the re-ingested slab and the rest.
    const BandwidthLogStore::ReadView swapped = store.read_view();
    expect_logs_identical(swapped.fine_range(0, kAllTime), reference.fine_range(0, kAllTime));
    expect_logs_identical(swapped.fine_range(util::kHour, util::kDay + util::kHour),
                          reference.fine_range(util::kHour, util::kDay + util::kHour));
    BandwidthLog resorted = swapped.storage_range(0, kAllTime);
    resorted.sort();
    expect_logs_identical(resorted, reference.fine_range(0, kAllTime));
  }
}

TEST(ReadViewProperty, ViewPinsSlabsAcrossRetirement) {
  // Without a cold tier, retention drops sealed days from the store — but a
  // live view pinned those slabs and must keep serving them unchanged.
  const BandwidthLog stream = serving_stream(7, 1000, 3);
  LogStoreConfig config;
  config.streaming_window = util::kHour;
  config.shards = 4;
  config.ingest_threads = 1;
  BandwidthLogStore store(config);
  store.ingest(stream);
  const BandwidthLog before = store.fine_range(0, kAllTime);

  const BandwidthLogStore::ReadView view = store.read_view();
  // Retire everything (no spill dir: fine rows are discarded).
  store.coarsen_older_than(30 * util::kDay, 0, util::kHour);
  EXPECT_EQ(store.fine_range(0, kAllTime).record_count(), 0u);

  expect_logs_identical(view.fine_range(0, kAllTime), before);

  // The view also froze the coarse horizon: summaries emitted by the
  // retention pass above are invisible to it.
  EXPECT_EQ(view.coarse_count(), 0u);
  const BandwidthLogStore::ReadView after = store.read_view();
  EXPECT_GT(after.coarse_count(), 0u);
  for (std::size_t i = 0; i < after.coarse_count(); ++i) {
    const WindowSummary& w = after.coarse_at(i);
    EXPECT_GT(w.sample_count, 0u);
    EXPECT_LT(w.pair, after.ids().pair_count);
  }
}

TEST(ReadViewProperty, StoreFineRangeIsViewFineRange) {
  // fine_range() is documented as literally read_view().fine_range() — the
  // quiesced and concurrent read paths must not be able to diverge.
  const BandwidthLog stream = serving_stream(99, 800, 2);
  BandwidthLogStore store(serving_config(3, "samepath"));
  store.ingest(stream);
  store.coarsen_older_than(3 * util::kDay, util::kDay, util::kHour);
  expect_logs_identical(store.read_view().fine_range(0, kAllTime),
                        store.fine_range(0, kAllTime));
}

TEST(ReadViewProperty, MoveTransfersLiveness) {
  BandwidthLogStore store(util::kHour);
  store.ingest(1, 0, 1.0);
  {
    BandwidthLogStore::ReadView a = store.read_view();
    EXPECT_EQ(store.stats().views_live, 1u);
    const BandwidthLogStore::ReadView b = std::move(a);
    EXPECT_EQ(store.stats().views_live, 1u);  // moved, not duplicated
    EXPECT_EQ(b.fine_rows(), 1u);
  }
  EXPECT_EQ(store.stats().views_live, 0u);
  EXPECT_EQ(store.stats().views_acquired, 1u);
}

TEST(ReadViewStress, ViewsStayCoherentUnderIngestAndRetention) {
  // The mixed reader/writer/retention race, sized for TSan: a writer
  // streams records in, a retention thread seals due days into the cold
  // tier, and readers continuously acquire views and read them. Each view
  // must be internally coherent (sorted merge output, ids decodable within
  // the captured generation, monotone row counts); afterwards the quiesced
  // store must hold every record (the cold tier never drops rows).
  const BandwidthLog stream = serving_stream(512, 2000, 4);
  BandwidthLogStore store(serving_config(8, "stress"));

  std::atomic<bool> done{false};
  std::atomic<std::size_t> ingested{0};
  std::thread writer([&] {
    for (std::size_t i = 0; i < stream.record_count(); ++i) {
      store.ingest(stream.timestamps()[i], stream.pair_ids()[i], stream.bandwidths()[i]);
      ingested.store(i + 1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });
  std::thread retainer([&] {
    while (!done.load(std::memory_order_acquire)) {
      store.coarsen_older_than(5 * util::kDay, 2 * util::kDay, util::kHour);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::size_t last_rows = 0;
      while (!done.load(std::memory_order_acquire)) {
        const BandwidthLogStore::ReadView view = store.read_view();
        // Views never go backwards for a single-writer store.
        ASSERT_GE(view.fine_rows(), last_rows);
        last_rows = view.fine_rows();
        const BandwidthLog out = view.fine_range(0, kAllTime);
        ASSERT_EQ(out.record_count(), view.fine_rows());
        const util::IdSpaceSnapshot snap = view.ids();
        for (std::size_t i = 0; i < out.record_count(); ++i) {
          if (i > 0) {
            ASSERT_LE(out.timestamps()[i - 1], out.timestamps()[i]);
          }
          ASSERT_LT(out.pair_ids()[i], snap.pair_count);
        }
        for (std::size_t i = 0; i < view.coarse_count(); ++i) {
          ASSERT_LT(view.coarse_at(i).pair, snap.pair_count);
        }
      }
    });
  }

  // Gauge publisher: stats() reads the running counts under the same race.
  // A seal moves rows resident -> spilled inside one shard lock and coarse
  // rows are append-only, so none of these totals may ever fall.
  std::thread gauges([&] {
    LogStoreStats last;
    while (!done.load(std::memory_order_acquire)) {
      const LogStoreStats s = store.stats();
      ASSERT_GE(s.fine_records + s.spilled_records, last.fine_records + last.spilled_records);
      ASSERT_GE(s.coarse_summaries, last.coarse_summaries);
      ASSERT_GE(s.coarse_bytes, last.coarse_bytes);
      last = s;
    }
  });

  writer.join();
  retainer.join();
  gauges.join();
  for (std::thread& t : readers) t.join();

  // Quiesced end state: the cold tier preserved every sealed row, so the
  // final merge returns the full stream's record population.
  EXPECT_EQ(store.fine_range(0, kAllTime).record_count(), stream.record_count());
  const LogStoreStats end = store.stats();
  EXPECT_GT(end.views_acquired, 0u);
  EXPECT_EQ(end.views_live, 0u);
  EXPECT_EQ(end.fine_records + end.spilled_records, stream.record_count());
  EXPECT_EQ(end.coarse_bytes, store.coarse().approximate_bytes());
}

}  // namespace
}  // namespace smn::telemetry

namespace smn::smn {
namespace {

constexpr util::SimTime kAllTime = std::numeric_limits<util::SimTime>::max();

// ---------------------------------------------------------------------------
// QueryBudget admission.
// ---------------------------------------------------------------------------

TEST(QueryBudget, ShedsAtCapAndRecoversWhenSlotsFree) {
  QueryBudget budget({.max_in_flight = 2, .deadline = std::chrono::seconds(10)});
  std::vector<QueryBudget::Admission> held;
  held.push_back(budget.admit());
  held.push_back(budget.admit());
  EXPECT_TRUE(held[0].admitted());
  EXPECT_TRUE(held[1].admitted());
  EXPECT_EQ(budget.in_flight(), 2u);

  const QueryBudget::Admission shed = budget.admit();
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(budget.shed_total(), 1u);
  EXPECT_EQ(budget.in_flight(), 2u);  // a shed ticket holds nothing

  held.pop_back();  // release one slot
  EXPECT_EQ(budget.in_flight(), 1u);
  EXPECT_TRUE(budget.admit().admitted());
  EXPECT_EQ(budget.admitted_total(), 3u);
  EXPECT_DOUBLE_EQ(budget.shed_rate(), 0.25);  // 1 shed of 4 attempts
}

TEST(QueryBudget, DeadlineClassifiesLateQueries) {
  QueryBudget budget({.max_in_flight = 4, .deadline = std::chrono::microseconds(1)});
  {
    const QueryBudget::Admission a = budget.admit();
    ASSERT_TRUE(a.admitted());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(a.over_deadline());
  }
  EXPECT_EQ(budget.deadline_exceeded_total(), 1u);
  EXPECT_EQ(budget.completed_total(), 1u);

  QueryBudget generous({.max_in_flight = 4, .deadline = std::chrono::seconds(30)});
  { const QueryBudget::Admission a = generous.admit(); }
  EXPECT_EQ(generous.deadline_exceeded_total(), 0u);
  EXPECT_EQ(generous.completed_total(), 1u);
}

TEST(QueryBudget, MovedAdmissionReleasesExactlyOnce) {
  QueryBudget budget({.max_in_flight = 1, .deadline = std::chrono::seconds(10)});
  {
    QueryBudget::Admission a = budget.admit();
    ASSERT_TRUE(a.admitted());
    const QueryBudget::Admission b = std::move(a);
    EXPECT_FALSE(a.admitted());  // moved-from holds nothing
    EXPECT_TRUE(b.admitted());
    EXPECT_EQ(budget.in_flight(), 1u);
  }
  EXPECT_EQ(budget.in_flight(), 0u);
  EXPECT_EQ(budget.completed_total(), 1u);
}

TEST(QueryBudget, PublishesGauges) {
  QueryBudget budget({.max_in_flight = 1, .deadline = std::chrono::seconds(10)});
  { const QueryBudget::Admission a = budget.admit(); }
  { const QueryBudget::Admission held = budget.admit();
    const QueryBudget::Admission shed = budget.admit();
    EXPECT_FALSE(shed.admitted()); }
  Mib mib;
  budget.publish_gauges(mib, "smn");
  EXPECT_DOUBLE_EQ(*mib.get("smn", "query_admitted"), 2.0);
  EXPECT_DOUBLE_EQ(*mib.get("smn", "query_shed"), 1.0);
  EXPECT_DOUBLE_EQ(*mib.get("smn", "query_completed"), 2.0);
  EXPECT_DOUBLE_EQ(*mib.get("smn", "query_in_flight"), 0.0);
  EXPECT_NEAR(*mib.get("smn", "query_shed_rate"), 1.0 / 3.0, 1e-12);
}

TEST(QueryBudgetStress, ConcurrentAdmitNeverExceedsCap) {
  QueryBudget budget({.max_in_flight = 4, .deadline = std::chrono::seconds(10)});
  std::atomic<std::size_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        const QueryBudget::Admission a = budget.admit();
        if (a.admitted()) {
          const std::size_t cur = budget.in_flight();
          std::size_t p = peak.load(std::memory_order_relaxed);
          while (cur > p && !peak.compare_exchange_weak(p, cur)) {
          }
          ASSERT_LE(cur, 4u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.in_flight(), 0u);
  EXPECT_EQ(budget.admitted_total() + budget.shed_total(), 16000u);
  EXPECT_EQ(budget.completed_total(), budget.admitted_total());
}

// ---------------------------------------------------------------------------
// The serving entry points.
// ---------------------------------------------------------------------------

DataLake serving_lake() {
  DataCatalog catalog;
  catalog.register_dataset({.name = "alerts.app",
                            .owner_team = "application",
                            .type = DataType::kAlert,
                            .schema = {{"severity", "fraction", true}},
                            .description = "app alerts"});
  DataLake lake(catalog);
  for (int i = 0; i < 12; ++i) {
    Record r;
    r.timestamp = i * util::kMinute;
    r.numeric["severity"] = 0.1 * i;
    lake.ingest("alerts.app", r);
  }
  return lake;
}

TEST(ServeQuery, AdmittedMatchesUnbudgetedRunQuery) {
  const DataLake lake = serving_lake();
  Query q;
  q.dataset = "alerts.app";
  QueryBudget budget;
  const ServedQuery served = serve_query(lake, "smn", q, budget);
  ASSERT_TRUE(served.admitted);
  const std::vector<QueryRow> direct = run_query(lake, "smn", q);
  ASSERT_EQ(served.rows.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(served.rows[i].matched, direct[i].matched);
    EXPECT_DOUBLE_EQ(served.rows[i].value, direct[i].value);
  }
}

TEST(ServeQuery, ShedsWhenBudgetExhausted) {
  const DataLake lake = serving_lake();
  Query q;
  q.dataset = "alerts.app";
  QueryBudget budget({.max_in_flight = 1, .deadline = std::chrono::seconds(10)});
  const QueryBudget::Admission hog = budget.admit();
  const ServedQuery served = serve_query(lake, "smn", q, budget);
  EXPECT_FALSE(served.admitted);
  EXPECT_TRUE(served.rows.empty());
  EXPECT_EQ(budget.shed_total(), 1u);
}

TEST(ServeFineRange, StoreAndViewOverloadsAgree) {
  telemetry::BandwidthLogStore store(util::kHour);
  util::IdSpace& ids = util::IdSpace::global();
  const util::PairId p = ids.pair_of_names("serve-a", "serve-b");
  for (int i = 0; i < 100; ++i) store.ingest(i * util::kMinute, p, 2.0 + i);

  QueryBudget budget;
  const ServedFineRange via_store =
      serve_fine_range(store, 10 * util::kMinute, 60 * util::kMinute, budget);
  ASSERT_TRUE(via_store.admitted);
  const telemetry::BandwidthLogStore::ReadView view = store.read_view();
  const ServedFineRange via_view =
      serve_fine_range(view, 10 * util::kMinute, 60 * util::kMinute, budget);
  ASSERT_TRUE(via_view.admitted);
  ASSERT_EQ(via_store.log.record_count(), 50u);
  ASSERT_EQ(via_view.log.record_count(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(via_store.log.timestamps()[i], via_view.log.timestamps()[i]);
    EXPECT_EQ(via_store.log.bandwidths()[i], via_view.log.bandwidths()[i]);
  }

  QueryBudget empty({.max_in_flight = 1, .deadline = std::chrono::seconds(10)});
  const QueryBudget::Admission hog = empty.admit();
  const ServedFineRange shed = serve_fine_range(store, 0, util::kDay, empty);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.log.record_count(), 0u);
}

TEST(ServeStress, BudgetedReadersAgainstLiveIngestAndLake) {
  // The full serving stack under concurrency (runs under TSan in CI):
  // budgeted fine-range reads against a store mid-ingest plus budgeted lake
  // queries against concurrent lake ingest. Admitted reads must always
  // return coherent data; the budget's books must balance at the end.
  telemetry::BandwidthLogStore store(telemetry::LogStoreConfig{
      .streaming_window = util::kHour, .shards = 4, .ingest_threads = 1});
  DataLake lake = serving_lake();
  util::IdSpace& ids = util::IdSpace::global();
  const util::PairId pair = ids.pair_of_names("stress-a", "stress-b");
  QueryBudget budget({.max_in_flight = 8, .deadline = std::chrono::seconds(10)});

  std::atomic<bool> done{false};
  std::thread store_writer([&] {
    for (int i = 0; i < 20000; ++i) {
      store.ingest(i * util::kSecond, pair, 1.0 + (i % 7));
    }
    done.store(true, std::memory_order_release);
  });
  std::thread lake_writer([&] {
    int i = 0;
    while (!done.load(std::memory_order_acquire)) {
      Record r;
      r.timestamp = i++ * util::kSecond;
      r.numeric["severity"] = 0.5;
      lake.ingest("alerts.app", r);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Query q;
      q.dataset = "alerts.app";
      std::size_t last = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ServedFineRange fine = serve_fine_range(store, 0, kAllTime, budget);
        if (fine.admitted) {
          ASSERT_GE(fine.log.record_count(), last);
          last = fine.log.record_count();
          for (std::size_t i = 1; i < fine.log.record_count(); ++i) {
            ASSERT_LE(fine.log.timestamps()[i - 1], fine.log.timestamps()[i]);
          }
        }
        const ServedQuery rows = serve_query(lake, "smn", q, budget);
        if (rows.admitted) {
          ASSERT_FALSE(rows.rows.empty());
        }
      }
    });
  }

  store_writer.join();
  lake_writer.join();
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(budget.in_flight(), 0u);
  EXPECT_EQ(budget.completed_total(), budget.admitted_total());
  EXPECT_EQ(store.fine_range(0, kAllTime).record_count(), 20000u);
}

}  // namespace
}  // namespace smn::smn
