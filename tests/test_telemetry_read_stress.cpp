// Windowed reads of the open day slab while ingest appends to it — the
// concurrency claim behind chunk-bounded scans (telemetry/stable_log.h):
// the writer widens a chunk's time bounds before it publishes the rows
// they cover, so a reader that skips chunks by their bounds never misses a
// published row in its window, out-of-order rows included. Sized for TSan
// (ctest label query_stress), which also checks that the bounds are read
// and written race-free. The last test reads views while retention seals
// and spills off the shard locks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "telemetry/log_store.h"
#include "telemetry/stable_log.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace smn::telemetry {
namespace {

constexpr util::SimTime kAllTime = std::numeric_limits<util::SimTime>::max();

/// One day of rows: mostly ascending timestamps, with late rows that jump
/// back up to half an hour (they widen an already-published chunk's range
/// or open a chunk whose range overlaps earlier ones).
BandwidthLog open_day_stream(std::uint64_t seed, std::size_t rows) {
  util::IdSpace& ids = util::IdSpace::global();
  std::vector<util::PairId> pool;
  for (int p = 0; p < 24; ++p) {
    pool.push_back(ids.pair_of_names("stress-src" + std::to_string(p % 6),
                                     "stress-dst" + std::to_string(p / 6)));
  }
  util::Rng rng(seed);
  BandwidthLog log;
  util::SimTime t = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    t = std::min<util::SimTime>(t + rng.uniform_int(0, 6), util::kDay - 1);
    const util::SimTime ts =
        rng.bernoulli(0.05) ? std::max<util::SimTime>(0, t - rng.uniform_int(0, 1800)) : t;
    log.append(ts, pool[static_cast<std::size_t>(rng.uniform_int(0, 23))],
               static_cast<double>(i) * 0.25);
  }
  return log;
}

/// Rows [0, limit) of `log` inside [begin, end), in row order.
BandwidthLog filtered_prefix(const BandwidthLog& log, std::size_t limit, util::SimTime begin,
                             util::SimTime end) {
  BandwidthLog out;
  out.append_time_filtered(log.timestamps().first(limit), log.pair_ids().first(limit),
                           log.bandwidths().first(limit), begin, end);
  return out;
}

void expect_same_rows(const BandwidthLog& a, const BandwidthLog& b) {
  ASSERT_EQ(a.record_count(), b.record_count());
  for (std::size_t i = 0; i < a.record_count(); ++i) {
    ASSERT_EQ(a.timestamps()[i], b.timestamps()[i]) << "row " << i;
    ASSERT_EQ(a.pair_ids()[i], b.pair_ids()[i]) << "row " << i;
    ASSERT_EQ(a.bandwidths()[i], b.bandwidths()[i]) << "row " << i;
  }
}

TEST(StableLogReadStress, WindowedReadsOfAGrowingSlabMissNoRow) {
  const BandwidthLog stream = open_day_stream(31, 20000);
  StableLog slab(16);  // small chunks: many bounds, many skips
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(100 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const std::size_t n = slab.rows();
        if (n == 0) continue;
        // A window over the newest rows (the open chunk) or anywhere.
        const util::SimTime newest = stream.timestamps()[n - 1];
        const util::SimTime begin = rng.bernoulli(0.5)
                                        ? newest - rng.uniform_int(0, 900)
                                        : rng.uniform_int(0, newest + 1);
        const util::SimTime end = begin + rng.uniform_int(1, 1200);
        BandwidthLog got;
        slab.emit_time_filtered(&got, n, begin, end);
        expect_same_rows(got, filtered_prefix(stream, n, begin, end));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Row-at-a-time and bulk appends, alternating in runs.
  const auto ts = stream.timestamps();
  const auto pairs = stream.pair_ids();
  const auto bw = stream.bandwidths();
  std::size_t i = 0;
  while (i < stream.record_count()) {
    const std::size_t run = std::min<std::size_t>(37, stream.record_count() - i);
    if ((i / 37) % 2 == 0) {
      for (std::size_t k = i; k < i + run; ++k) slab.append(ts[k], pairs[k], bw[k]);
    } else {
      slab.append_columns(ts.subspan(i, run), pairs.subspan(i, run), bw.subspan(i, run));
    }
    i += run;
    // Pace the writer so reads interleave with every stretch of appends.
    while (reads.load(std::memory_order_relaxed) < i / 74) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(reads.load(), stream.record_count() / 100);
}

TEST(StoreReadStress, WindowedViewReadsDuringIngestMatchTheViewsFullRead) {
  // Store level: readers capture a view of the open day and read a window
  // of it while the writer keeps appending. Chunk skipping must return
  // exactly the window's rows of the view's own full read.
  const BandwidthLog stream = open_day_stream(47, 20000);
  BandwidthLogStore store(LogStoreConfig{.streaming_window = util::kHour, .shards = 3});
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(200 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const BandwidthLogStore::ReadView view = store.read_view();
        const util::SimTime newest = view.high_water();
        const util::SimTime begin = newest - rng.uniform_int(0, 900);
        const util::SimTime end = begin + rng.uniform_int(1, 1200);
        const BandwidthLog all = view.fine_range(0, kAllTime);
        EXPECT_EQ(all.record_count(), view.fine_rows());
        expect_same_rows(view.fine_range(begin, end),
                         filtered_prefix(all, all.record_count(), begin, end));
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; i < stream.record_count(); ++i) {
    store.ingest(stream.timestamps()[i], stream.pair_ids()[i], stream.bandwidths()[i]);
    while (reads.load(std::memory_order_relaxed) < i / 100) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(store.fine_range(0, kAllTime).record_count(), stream.record_count());
}

TEST(StoreReadStress, ReadsDuringSealAndSpillSeeEveryRowOnce) {
  // Retention seals and spills (off the shard locks) while windowed
  // readers and a whole-horizon storage-order reader run, and ingest adds
  // new pairs and re-ingests into the day being retired. Every view must
  // hold each of its rows exactly once: its storage-order read has the
  // view's row count and, sorted, is its fine_range().
  const std::string dir = ::testing::TempDir() + "smn_read_stress_seal";
  std::filesystem::remove_all(dir);
  LogStoreConfig config;
  config.shards = 4;
  config.ingest_threads = 1;
  config.spill_dir = dir;
  BandwidthLogStore store(config);
  const BandwidthLog day = open_day_stream(53, 6000);
  for (int d = 0; d < 3; ++d) {
    BandwidthLog shifted;
    for (std::size_t i = 0; i < day.record_count(); ++i) {
      shifted.append(day.timestamps()[i] + d * util::kDay, day.pair_ids()[i],
                     day.bandwidths()[i]);
    }
    store.ingest(shifted);
  }
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(300 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const BandwidthLogStore::ReadView view = store.read_view();
        const BandwidthLog all = view.fine_range(0, kAllTime);
        ASSERT_EQ(all.record_count(), view.fine_rows());
        if (r == 0) {
          BandwidthLog storage = view.storage_range(0, util::kMonth);
          ASSERT_EQ(storage.record_count(), view.fine_rows());
          storage.sort();
          expect_same_rows(storage, all);
        } else {
          const util::SimTime begin = rng.uniform_int(0, 3 * util::kDay);
          const util::SimTime end = begin + 15 * util::kMinute;
          expect_same_rows(view.fine_range(begin, end),
                           filtered_prefix(all, all.record_count(), begin, end));
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread writer([&] {
    util::IdSpace& ids = util::IdSpace::global();
    for (int i = 0; i < 400; ++i) {
      // Re-ingest into day 0 (being retired) and new pairs in day 2.
      store.ingest(static_cast<util::SimTime>(i) * 131, day.pair_ids()[i], 1.0 + i);
      store.ingest(2 * util::kDay + i, ids.pair_of_names("seal-stress-src" + std::to_string(i),
                                                         "seal-stress-dst"),
                   2.0 + i);
      if (i % 40 == 0) std::this_thread::yield();
    }
  });
  for (int pass = 0; pass < 6; ++pass) {
    store.coarsen_older_than(2 * util::kDay, 0, util::kHour);
    while (reads.load(std::memory_order_relaxed) < static_cast<std::size_t>(2 * (pass + 1))) {
      std::this_thread::yield();
    }
  }
  writer.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  const LogStoreStats end = store.stats();
  EXPECT_EQ(end.fine_records + end.spilled_records, 3 * day.record_count() + 800);
  EXPECT_EQ(store.fine_range(0, kAllTime).record_count(), 3 * day.record_count() + 800);
  EXPECT_GT(end.spilled_records, 0u);
}

}  // namespace
}  // namespace smn::telemetry
