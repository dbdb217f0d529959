// Spill file format unit tests: write/open/read roundtrip, zero-record
// files, atomic-write hygiene (no
// .tmp left behind), and every corruption class the reader must reject —
// truncation, bad magic, wrong version (v1 files included), inconsistent
// offsets, a flipped header or block-table byte, and flipped column bytes
// under checksum verification. The per-block guarantee is pinned too: a
// flipped byte in one block fails every read whose window touches that
// block, whole-file verification and recovery, while reads whose windows
// avoid it return the uncorrupted rows.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/log_store.h"
#include "telemetry/spill_file.h"
#include "util/interner.h"
#include "util/sim_time.h"

namespace smn::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "smn_spill_file_" + name;
}

struct Columns {
  std::vector<util::SimTime> timestamps;
  std::vector<double> bandwidths;
  std::vector<util::PairId> pairs;
};

Columns sample_columns(std::size_t records) {
  util::IdSpace& ids = util::IdSpace::global();
  Columns c;
  for (std::size_t i = 0; i < records; ++i) {
    c.timestamps.push_back(static_cast<util::SimTime>(i * 300));
    c.bandwidths.push_back(static_cast<double>(i) * 1.5 + 0.25);
    c.pairs.push_back(ids.pair_of_names("spill-src" + std::to_string(i % 7),
                                        "spill-dst" + std::to_string(i % 5)));
  }
  return c;
}

std::string write_sample(const std::string& name, const Columns& c,
                         util::SimTime day = util::kDay) {
  const std::string path = temp_path(name);
  write_spill_file(path, day, c.timestamps, c.bandwidths, c.pairs);
  return path;
}

/// Flips one byte at `offset` in the file at `path`.
void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  ASSERT_TRUE(f.good()) << path;
}

/// Every row of `seg`, in file order.
BandwidthLog all_rows(const SpilledSegment& seg) {
  BandwidthLog out;
  seg.emit_time_filtered(&out, std::numeric_limits<util::SimTime>::min(),
                         std::numeric_limits<util::SimTime>::max(), /*verify=*/true);
  return out;
}

TEST(SpillFile, RoundtripPreservesColumns) {
  // Three blocks and a short tail: the read spans block boundaries.
  const Columns c = sample_columns(3 * kSpillBlockRows + 17);
  const std::string path = write_sample("roundtrip.col", c, 3 * util::kDay);

  const SpilledSegment seg = SpilledSegment::open(path, /*verify_checksum=*/true);
  ASSERT_EQ(seg.record_count(), c.timestamps.size());
  EXPECT_EQ(seg.day(), 3 * util::kDay);
  EXPECT_EQ(seg.file_bytes(), std::filesystem::file_size(path));
  const BandwidthLog rows = all_rows(seg);
  ASSERT_EQ(rows.record_count(), c.timestamps.size());
  for (std::size_t i = 0; i < rows.record_count(); ++i) {
    ASSERT_EQ(rows.timestamps()[i], c.timestamps[i]) << "row " << i;
    ASSERT_EQ(rows.bandwidths()[i], c.bandwidths[i]) << "row " << i;
    ASSERT_EQ(rows.pair_ids()[i], c.pairs[i]) << "row " << i;
  }
}

TEST(SpillFile, WriteReportsFileSizeAndLeavesNoTmpSibling) {
  const Columns c = sample_columns(100);
  const std::string path = temp_path("atomic.col");
  const std::size_t bytes = write_spill_file(path, 0, c.timestamps, c.bandwidths, c.pairs);
  // 80-byte header + one 24-byte block entry + 20 bytes of columns per
  // record.
  EXPECT_EQ(bytes, 80u + 24u + 100u * 20u);
  EXPECT_EQ(std::filesystem::file_size(path), bytes);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SpillFile, ZeroRecordFileRoundtrips) {
  const std::string path = write_sample("empty.col", Columns{}, 2 * util::kDay);
  const SpilledSegment seg = SpilledSegment::open(path);
  EXPECT_EQ(seg.record_count(), 0u);
  EXPECT_EQ(seg.day(), 2 * util::kDay);
  EXPECT_TRUE(all_rows(seg).empty());
}

TEST(SpillFile, MismatchedColumnLengthsThrowOnWrite) {
  Columns c = sample_columns(10);
  c.pairs.pop_back();
  EXPECT_THROW(
      write_spill_file(temp_path("uneven.col"), 0, c.timestamps, c.bandwidths, c.pairs),
      std::runtime_error);
}

TEST(SpillFile, TruncatedFileIsRejected) {
  const std::string path = write_sample("truncated.col", sample_columns(64));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  EXPECT_THROW(SpilledSegment::open(path), std::runtime_error);
  EXPECT_THROW(SpilledSegment::open(path, /*verify_checksum=*/false), std::runtime_error);
  // Even shorter than the header.
  std::filesystem::resize_file(path, 16);
  EXPECT_THROW(SpilledSegment::open(path), std::runtime_error);
}

TEST(SpillFile, BadMagicAndVersionAreRejected) {
  const Columns c = sample_columns(32);
  const std::string magic_path = write_sample("bad_magic.col", c);
  flip_byte(magic_path, 0);  // first magic byte
  EXPECT_THROW(SpilledSegment::open(magic_path), std::runtime_error);

  const std::string version_path = write_sample("bad_version.col", c);
  flip_byte(version_path, 8);  // version field
  EXPECT_THROW(SpilledSegment::open(version_path), std::runtime_error);
}

TEST(SpillFile, InconsistentOffsetsAreRejected) {
  const std::string path = write_sample("bad_offsets.col", sample_columns(32));
  flip_byte(path, 48);  // off_timestamps field
  EXPECT_THROW(SpilledSegment::open(path), std::runtime_error);
}

TEST(SpillFile, FlippedColumnByteFailsChecksumButPassesWhenDisabled) {
  const std::string path = write_sample("bit_rot.col", sample_columns(64));
  flip_byte(path, 80 + 24 + 24);  // inside the timestamp column
  EXPECT_THROW(SpilledSegment::open(path, /*verify_checksum=*/true), std::runtime_error);
  // With verification off the structural checks still pass: open() reads
  // only the header and the block table.
  const SpilledSegment seg = SpilledSegment::open(path, /*verify_checksum=*/false);
  EXPECT_EQ(seg.record_count(), 64u);
}

TEST(SpillFile, V1FileIsRejectedAsUnsupportedVersion) {
  // A v1 ("SMNSPIL1") file: 64-byte header, one row, no block table.
  struct V1Header {
    std::uint64_t magic = 0x314C495053'4E4D53ull;
    std::uint32_t version = 1;
    std::uint32_t reserved = 0;
    std::uint64_t record_count = 1;
    std::int64_t day = 0;
    std::uint64_t off_timestamps = 64;
    std::uint64_t off_bandwidths = 72;
    std::uint64_t off_pairs = 80;
    std::uint64_t checksum = 0;
  };
  static_assert(sizeof(V1Header) == 64);
  const std::string path = temp_path("v1.col");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const V1Header header;
    f.write(reinterpret_cast<const char*>(&header), sizeof(header));
    const std::string row(20, '\0');
    f.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
  try {
    SpilledSegment::open(path);
    FAIL() << "a v1 spill file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos) << e.what();
  }
}

TEST(SpillFile, FlippedHeaderOrBlockTableByteFailsOpen) {
  const Columns c = sample_columns(64);
  // The day field and a block-table bound: both are covered by the header
  // checksum, which open() checks even with block verification off.
  for (const std::size_t offset : {std::size_t{24}, std::size_t{80 + 8}}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    const std::string path = write_sample("bad_header.col", c);
    flip_byte(path, offset);
    EXPECT_THROW(SpilledSegment::open(path, /*verify_checksum=*/false), std::runtime_error);
  }
}

/// Byte offset of row `row` in column `col` (0 timestamps, 1 bandwidths,
/// 2 pairs) of a v2 file holding `n` rows.
std::size_t column_offset(std::size_t n, int col, std::size_t row) {
  const std::size_t blocks = (n + kSpillBlockRows - 1) / kSpillBlockRows;
  const std::size_t timestamps = 80 + 24 * blocks;
  if (col == 0) return timestamps + 8 * row;
  if (col == 1) return timestamps + 8 * n + 8 * row;
  return timestamps + 16 * n + 4 * row;
}

BandwidthLog window_of(const SpilledSegment& seg, util::SimTime begin, util::SimTime end,
                       SpillReadStats* stats = nullptr) {
  BandwidthLog out;
  const SpillReadStats read = seg.emit_time_filtered(&out, begin, end, /*verify=*/true);
  if (stats != nullptr) *stats = read;
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

TEST(SpillBlockCorruption, OnlyReadsTouchingTheFlippedBlockThrow) {
  // Ten seconds per row, so block b covers [b * B * 10, (b + 1) * B * 10).
  const std::size_t n = 5 * kSpillBlockRows + 100;
  const Columns c = [&] {
    Columns out = sample_columns(n);
    for (std::size_t i = 0; i < n; ++i) out.timestamps[i] = static_cast<util::SimTime>(i * 10);
    return out;
  }();
  const auto ts = [](std::size_t row) { return static_cast<util::SimTime>(row * 10); };
  const std::size_t bad = 2;  // the corrupted block
  const std::string clean_path = write_sample("block_clean.col", c, 0);
  const std::string path = write_sample("block_flip.col", c, 0);
  for (const int col : {0, 1, 2}) {
    SCOPED_TRACE("column " + std::to_string(col));
    write_spill_file(path, 0, c.timestamps, c.bandwidths, c.pairs);
    flip_byte(path, column_offset(n, col, bad * kSpillBlockRows + 7));
    {
      const SpilledSegment clean = SpilledSegment::open(clean_path, true);
      // Structure and header still check out; the block does not.
      const SpilledSegment seg = SpilledSegment::open(path, /*verify_checksum=*/false);
      const util::SimTime bad_begin = ts(bad * kSpillBlockRows);
      const util::SimTime bad_end = ts((bad + 1) * kSpillBlockRows);
      // Any window touching the block throws — inside it, or straddling
      // either of its edges.
      EXPECT_THROW(window_of(seg, bad_begin + 30, bad_begin + 40), std::runtime_error);
      EXPECT_THROW(window_of(seg, bad_begin - 10, bad_begin + 10), std::runtime_error);
      EXPECT_THROW(window_of(seg, bad_end - 10, bad_end + 10), std::runtime_error);
      // Windows that avoid it return exactly the uncorrupted rows, and
      // verify only the blocks they overlap.
      for (const auto& [begin, end] :
           {std::pair{util::SimTime{0}, bad_begin}, std::pair{bad_end, ts(n)},
            std::pair{ts(10), ts(20)}}) {
        SpillReadStats stats;
        const BandwidthLog got = window_of(seg, begin, end, &stats);
        expect_same_rows(got, window_of(clean, begin, end));
        EXPECT_GT(got.record_count(), 0u);
        EXPECT_LE(stats.bytes_verified, stats.rows_scanned * 20u);
      }
      // Whole-file verification rejects the file.
      EXPECT_THROW(seg.verify(), std::runtime_error);
      EXPECT_THROW(SpilledSegment::open(path, /*verify_checksum=*/true), std::runtime_error);
    }
  }
}

TEST(SpillBlockCorruption, StoreReadsAndRecoveryHonourTheBlockGuarantee) {
  const std::string dir = ::testing::TempDir() + "smn_spill_file_store";
  std::filesystem::remove_all(dir);
  LogStoreConfig config;
  config.spill_dir = dir;
  // One shard, one row every ten seconds across day 0: the day spills to a
  // single file whose blocks cover consecutive time ranges.
  const Columns c = [] {
    Columns out = sample_columns(static_cast<std::size_t>(util::kDay / 10));
    for (std::size_t i = 0; i < out.timestamps.size(); ++i) {
      out.timestamps[i] = static_cast<util::SimTime>(i * 10);
    }
    return out;
  }();
  const std::size_t n = c.timestamps.size();
  BandwidthLogStore reference(util::kHour);
  const std::size_t bad = 3;
  const util::SimTime bad_begin = static_cast<util::SimTime>(bad * kSpillBlockRows * 10);
  const util::SimTime bad_end = bad_begin + static_cast<util::SimTime>(kSpillBlockRows * 10);
  {
    BandwidthLogStore store(config);
    for (std::size_t i = 0; i < n; ++i) {
      store.ingest(c.timestamps[i], c.pairs[i], c.bandwidths[i]);
      reference.ingest(c.timestamps[i], c.pairs[i], c.bandwidths[i]);
    }
    store.coarsen_older_than(util::kDay, 0, util::kHour);
    ASSERT_EQ(store.stats().spilled_records, n);
    flip_byte(dir + "/shard0_day0_gen0.col", column_offset(n, 1, bad * kSpillBlockRows + 11));

    EXPECT_THROW(store.fine_range(bad_begin + 100, bad_begin + 200), std::runtime_error);
    EXPECT_THROW(store.fine_range(0, util::kDay), std::runtime_error);
    expect_same_rows(store.fine_range(0, bad_begin), reference.fine_range(0, bad_begin));
    expect_same_rows(store.fine_range(bad_end, util::kDay),
                     reference.fine_range(bad_end, util::kDay));
    // A read that threw closed its segment too.
    const LogStoreStats stats = store.stats();
    EXPECT_EQ(stats.spill_maps, 4u);
    EXPECT_EQ(stats.spill_unmaps, stats.spill_maps);
  }
  // Failover replay verifies every block, so the adoption fails loudly.
  config.spill_steal_lock = true;
  BandwidthLogStore adopter(config);
  EXPECT_THROW(adopter.recover_spill_files(), std::runtime_error);
}

}  // namespace
}  // namespace smn::telemetry
