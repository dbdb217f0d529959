// Deterministic mutation fuzzer for the spill-file parser: the one parser
// of the cold tier that takes bytes from disk. Seeded bit-flips,
// truncations and splices (within one file and across two) are applied to
// valid v2 files; every mutated file goes through SpilledSegment::open, a
// windowed read and a whole-file verify. Each step either returns exactly
// the rows of the unmutated file or throws std::runtime_error — never a
// crash (the sanitizer builds run this test too) and never different
// rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "telemetry/spill_file.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace smn::telemetry {
namespace {

using Bytes = std::vector<char>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "smn_spill_fuzz_" + name;
}

Bytes read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A valid v2 file of `rows` rows over day `day`: mostly ascending
/// timestamps with a few late rows, so block ranges overlap a little.
Bytes valid_file(const std::string& name, std::size_t rows, util::SimTime day,
                 std::uint64_t seed) {
  util::IdSpace& ids = util::IdSpace::global();
  util::Rng rng(seed);
  std::vector<util::SimTime> timestamps;
  std::vector<double> bandwidths;
  std::vector<util::PairId> pairs;
  util::SimTime t = day;
  for (std::size_t i = 0; i < rows; ++i) {
    t += rng.uniform_int(0, 40);
    timestamps.push_back(rng.bernoulli(0.05) ? t - rng.uniform_int(0, 3000) : t);
    bandwidths.push_back(rng.uniform(0.0, 1000.0));
    pairs.push_back(ids.pair_of_names("fuzz-src" + std::to_string(i % 9),
                                      "fuzz-dst" + std::to_string(i % 4)));
  }
  const std::string path = temp_path(name);
  write_spill_file(path, day, timestamps, bandwidths, pairs);
  return read_file(path);
}

bool same_rows(const BandwidthLog& a, const BandwidthLog& b) {
  if (a.record_count() != b.record_count()) return false;
  for (std::size_t i = 0; i < a.record_count(); ++i) {
    if (a.timestamps()[i] != b.timestamps()[i] || a.pair_ids()[i] != b.pair_ids()[i] ||
        a.bandwidths()[i] != b.bandwidths()[i]) {
      return false;
    }
  }
  return true;
}

BandwidthLog read_window(const SpilledSegment& seg, util::SimTime begin, util::SimTime end) {
  BandwidthLog out;
  seg.emit_time_filtered(&out, begin, end, /*verify=*/true);
  return out;
}

/// Applies one seeded mutation to `bytes`: bit flips, a truncation, or a
/// splice of a byte range from `donor` (the file itself or another valid
/// file) over or into it.
Bytes mutate(const Bytes& bytes, const Bytes& donor, util::Rng& rng) {
  Bytes out = bytes;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  // Half of the positions land in the header and block table, where the
  // parser's structural checks live.
  const auto position = [&](std::size_t n) {
    return rng.bernoulli(0.5) ? pick(std::min<std::size_t>(n, 200)) : pick(n);
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // bit flips
      const int flips = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < flips; ++i) {
        out[position(out.size())] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
    case 1:  // truncation
      out.resize(pick(out.size()));
      break;
    case 2: {  // overwriting splice
      const std::size_t from = position(donor.size());
      const std::size_t len = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 256)), donor.size() - from);
      const std::size_t to = position(out.size());
      for (std::size_t i = 0; i < len && to + i < out.size(); ++i) out[to + i] = donor[from + i];
      break;
    }
    default: {  // inserting splice
      const std::size_t from = position(donor.size());
      const std::size_t len = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 64)), donor.size() - from);
      const std::size_t to = position(out.size());
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(to),
                 donor.begin() + static_cast<std::ptrdiff_t>(from),
                 donor.begin() + static_cast<std::ptrdiff_t>(from + len));
      break;
    }
  }
  return out;
}

TEST(SpillFileFuzz, MutatedFilesReturnOriginalRowsOrThrow) {
  constexpr util::SimTime kDayStart = 4 * util::kDay;
  const Bytes base = valid_file("base.col", 3 * kSpillBlockRows + 37, kDayStart, 17);
  const Bytes other = valid_file("other.col", kSpillBlockRows / 2, kDayStart + util::kDay, 18);
  const std::string base_path = temp_path("base.col");
  const SpilledSegment original = SpilledSegment::open(base_path);
  const util::SimTime span =
      read_window(original, kDayStart - 1, kDayStart + util::kDay).timestamps().back() -
      kDayStart + 1;

  util::Rng rng(0x5EED'F022);
  constexpr int kCases = 2000;
  int open_rejected = 0;
  int window_rejected = 0;
  int verify_rejected = 0;
  int window_served_then_verify_rejected = 0;
  int accepted = 0;
  const std::string path = temp_path("mutated.col");
  for (int c = 0; c < kCases; ++c) {
    const Bytes mutated = mutate(base, rng.bernoulli(0.5) ? base : other, rng);
    write_file(path, mutated);
    const util::SimTime begin = kDayStart + rng.uniform_int(-600, span);
    const util::SimTime end = begin + rng.uniform_int(1, span / 4);
    const BandwidthLog expected = read_window(original, begin, end);

    std::optional<SpilledSegment> seg;
    try {
      seg.emplace(SpilledSegment::open(path, /*verify_checksum=*/false));
    } catch (const std::runtime_error&) {
      ++open_rejected;
      continue;
    }
    bool window_ok = true;
    try {
      const BandwidthLog got = read_window(*seg, begin, end);
      ASSERT_TRUE(same_rows(got, expected)) << "case " << c << ": a mutated file served "
                                            << "different rows for [" << begin << ", " << end
                                            << ")";
    } catch (const std::runtime_error&) {
      window_ok = false;
      ++window_rejected;
    }
    try {
      seg->verify();
    } catch (const std::runtime_error&) {
      ++verify_rejected;
      if (window_ok) ++window_served_then_verify_rejected;
      continue;
    }
    // Accepted whole: the file must read back as the original, row for row.
    ++accepted;
    ASSERT_TRUE(window_ok) << "case " << c;
    ASSERT_EQ(seg->record_count(), original.record_count()) << "case " << c;
    ASSERT_TRUE(same_rows(read_window(*seg, kDayStart - 1, kDayStart + util::kDay),
                          read_window(original, kDayStart - 1, kDayStart + util::kDay)))
        << "case " << c;
  }
  // Every mutation class was exercised, and the block granularity shows:
  // some windows were served from intact blocks of a file that fails a
  // whole-file verify.
  EXPECT_GT(open_rejected, 0);
  EXPECT_GT(window_rejected, 0);
  EXPECT_GT(verify_rejected, 0);
  EXPECT_GT(window_served_then_verify_rejected, 0);
  EXPECT_EQ(open_rejected + verify_rejected + accepted, kCases);
  RecordProperty("open_rejected", open_rejected);
  RecordProperty("verify_rejected", verify_rejected);
  RecordProperty("accepted", accepted);
}

}  // namespace
}  // namespace smn::telemetry
