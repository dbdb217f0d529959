#include "util/interner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace smn::util {
namespace {

TEST(Interner, IdsAreStableAndDense) {
  Interner interner;
  const DcId a = interner.intern("us-e1");
  const DcId b = interner.intern("eu-w1");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.intern("us-e1"), a);  // idempotent
  EXPECT_EQ(interner.intern("eu-w1"), b);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.name(a), "us-e1");
  EXPECT_EQ(interner.name(b), "eu-w1");
}

TEST(Interner, FindDoesNotIntern) {
  Interner interner;
  EXPECT_FALSE(interner.find("never-seen").has_value());
  EXPECT_EQ(interner.size(), 0u);
  const DcId id = interner.intern("ap-se1");
  ASSERT_TRUE(interner.find("ap-se1").has_value());
  EXPECT_EQ(*interner.find("ap-se1"), id);
}

TEST(Interner, NameReferencesSurviveGrowth) {
  Interner interner;
  const std::string& first = interner.name(interner.intern("dc0"));
  for (int i = 1; i < 2000; ++i) interner.intern("dc" + std::to_string(i));
  EXPECT_EQ(first, "dc0");  // deque storage: no reallocation of names
}

TEST(Interner, UnknownIdThrows) {
  const Interner interner;
  EXPECT_THROW(interner.name(0), std::out_of_range);
}

TEST(PairInterner, RoundTripsSrcDst) {
  PairInterner pairs;
  const PairId p = pairs.intern(3, 7);
  EXPECT_EQ(pairs.intern(3, 7), p);
  EXPECT_NE(pairs.intern(7, 3), p);  // ordered pairs are directional
  EXPECT_EQ(pairs.src(p), 3u);
  EXPECT_EQ(pairs.dst(p), 7u);
  EXPECT_EQ(pairs.size(), 2u);
  EXPECT_FALSE(pairs.find(9, 9).has_value());
}

TEST(IdSpace, PairOfNamesDecodesToNames) {
  IdSpace& ids = IdSpace::global();
  const PairId p = ids.pair_of_names("interner-test-src", "interner-test-dst");
  EXPECT_EQ(ids.src_name(p), "interner-test-src");
  EXPECT_EQ(ids.dst_name(p), "interner-test-dst");
  ASSERT_TRUE(ids.find_pair_of_names("interner-test-src", "interner-test-dst").has_value());
  EXPECT_EQ(*ids.find_pair_of_names("interner-test-src", "interner-test-dst"), p);
  EXPECT_FALSE(ids.find_pair_of_names("interner-test-src", "interner-test-missing").has_value());
}

TEST(IdSpace, PairNameLessIsNameOrderNotIdOrder) {
  IdSpace& ids = IdSpace::global();
  // Intern in reverse name order so id order and name order disagree.
  const PairId zz = ids.pair_of_names("zz-dc", "zz-dc2");
  const PairId aa = ids.pair_of_names("aa-dc", "aa-dc2");
  EXPECT_TRUE(ids.pair_name_less(aa, zz));
  EXPECT_FALSE(ids.pair_name_less(zz, aa));
  EXPECT_FALSE(ids.pair_name_less(aa, aa));
}

TEST(IdSpace, PairRanksFollowNameOrderAcrossGrowth) {
  IdSpace& ids = IdSpace::global();
  const auto expect_name_order = [&] {
    const auto ranks = ids.pair_ranks();
    ASSERT_GE(ranks->size(), ids.pair_count());
    std::vector<PairId> by_rank(ranks->size());
    for (PairId p = 0; p < ranks->size(); ++p) by_rank[(*ranks)[p]] = p;
    for (std::size_t i = 1; i < by_rank.size(); ++i) {
      ASSERT_TRUE(ids.pair_name_less(by_rank[i - 1], by_rank[i])) << "rank " << i;
    }
  };
  for (int i = 0; i < 6; ++i) {
    ids.pair_of_names("rank-m" + std::to_string(i), "rank-m" + std::to_string(5 - i));
  }
  expect_name_order();
  // New pairs over known DCs: merged into the previous order.
  const auto before = ids.pair_ranks();
  const PairId added = ids.pair_of_names("rank-m1", "rank-m2");
  EXPECT_THROW((*before)[added], std::out_of_range);
  const std::uint64_t comparisons = ids.name_comparisons();
  ids.pair_ranks();
  EXPECT_EQ(ids.name_comparisons(), comparisons);  // no DC was added: no name compared
  expect_name_order();
  // A new DC sorting before every other one re-ranks every pair.
  ids.pair_of_names("rank-a", "rank-m3");
  ids.pair_of_names("rank-m3", "rank-a");
  expect_name_order();
}

TEST(Interner, ConcurrentInterningIsConsistent) {
  Interner interner;
  constexpr int kThreads = 8;
  constexpr int kNames = 200;
  std::vector<std::vector<DcId>> seen(kThreads, std::vector<DcId>(kNames));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&interner, &seen, t] {
      for (int i = 0; i < kNames; ++i) {
        seen[t][i] = interner.intern("shared-" + std::to_string(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kNames));
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);  // same ids everywhere
}

TEST(Interner, ConcurrentMixedInternFindNameStress) {
  // Writers intern overlapping name sets while readers hammer find() and
  // name() on ids already handed out. Under TSan this exercises the
  // shared/exclusive lock split and the stable-address guarantee of the
  // name deque; without TSan it still checks read-your-writes coherence.
  Interner interner;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kNames = 300;
  std::atomic<bool> stop{false};
  std::atomic<int> writers_done{0};

  std::vector<std::thread> threads;
  threads.reserve(kWriters + kReaders);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&interner, &writers_done, t] {
      for (int i = 0; i < kNames; ++i) {
        // Each writer starts at a different offset so exclusive-lock
        // acquisitions interleave instead of serializing on name 0.
        const int n = (i + t * (kNames / kWriters)) % kNames;
        const std::string name = "stress-" + std::to_string(n);
        const DcId id = interner.intern(name);
        // Read-your-writes: the id must resolve immediately, and the
        // reference must carry the interned spelling.
        EXPECT_EQ(interner.name(id), name);
        const auto found = interner.find(name);
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(*found, id);
      }
      writers_done.fetch_add(1);
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&interner, &stop, t] {
      std::size_t hits = 0;
      // One full sweep is guaranteed after stop is observed: on a busy
      // single-core machine a reader may not run at all until the writers
      // have finished, and by then every name resolves, so the final pass
      // keeps the hits assertion deterministic instead of
      // scheduling-dependent.
      bool last_pass = false;
      while (!last_pass) {
        last_pass = stop.load(std::memory_order_acquire);
        for (int i = 0; i < kNames; ++i) {
          const std::string name = "stress-" + std::to_string((i + t) % kNames);
          if (const auto id = interner.find(name)) {
            // name() references stay valid and consistent even while other
            // threads grow the table.
            if (interner.name(*id) == name) ++hits;
          }
        }
      }
      EXPECT_GT(hits, 0u);  // readers observed real entries, not just misses
    });
  }
  while (writers_done.load() < kWriters) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(interner.size(), static_cast<std::size_t>(kNames));
  // Every name maps to a distinct id and decodes back to itself.
  std::vector<bool> used(kNames, false);
  for (int i = 0; i < kNames; ++i) {
    const auto id = interner.find("stress-" + std::to_string(i));
    ASSERT_TRUE(id.has_value());
    ASSERT_LT(*id, static_cast<DcId>(kNames));
    EXPECT_FALSE(used[*id]);
    used[*id] = true;
  }
}

TEST(PairInterner, ConcurrentInternAndDecodeStress) {
  // Pair interning while other threads decode src()/dst() on ids already
  // minted — the PairId analogue of the mixed interner stress above.
  PairInterner pairs;
  constexpr int kThreads = 8;
  constexpr DcId kGrid = 24;  // 24x24 = 576 distinct pairs
  std::vector<std::vector<PairId>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pairs, &seen, t] {
      seen[t].reserve(static_cast<std::size_t>(kGrid) * kGrid);
      for (DcId s = 0; s < kGrid; ++s) {
        for (DcId d = 0; d < kGrid; ++d) {
          // Odd threads walk the grid transposed so writers collide.
          const DcId src = (t % 2) ? d : s;
          const DcId dst = (t % 2) ? s : d;
          const PairId p = pairs.intern(src, dst);
          EXPECT_EQ(pairs.src(p), src);
          EXPECT_EQ(pairs.dst(p), dst);
          const auto found = pairs.find(src, dst);
          ASSERT_TRUE(found.has_value());
          EXPECT_EQ(*found, p);
          seen[t].push_back(pairs.intern(s, d));  // canonical orientation
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(kGrid) * kGrid);
  // All threads agree on the id of every canonical (s, d) pair.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
}

}  // namespace
}  // namespace smn::util
