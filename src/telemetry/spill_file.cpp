#include "telemetry/spill_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

namespace smn::telemetry {
namespace {

// The format is defined little-endian; columns are written and read back
// as raw memory, so the host must match. (Every supported target is LE; a
// big-endian port would add a byte-swapping read path here.)
static_assert(std::endian::native == std::endian::little,
              "spill files are little-endian; this host would need a swap path");

/// "SMNSPIL" in the low seven magic bytes; the eighth is the version digit.
constexpr std::uint64_t kMagicFamily = 0x004C495053'4E4D53ull;
constexpr std::uint64_t kMagicFamilyMask = 0x00FFFFFFFF'FFFFFFull;
constexpr std::uint64_t kMagic = 0x324C495053'4E4D53ull;  // "SMNSPIL2" LE
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kRowBytes = sizeof(util::SimTime) + sizeof(double) + sizeof(util::PairId);
/// Most blocks one read run spans (64 x 512 rows = 640 KiB of scratch).
constexpr std::size_t kRunBlocks = 64;

struct SpillHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t block_rows = 0;
  std::uint64_t record_count = 0;
  std::int64_t day = 0;
  std::uint64_t block_count = 0;
  std::uint64_t off_blocks = 0;
  std::uint64_t off_timestamps = 0;
  std::uint64_t off_bandwidths = 0;
  std::uint64_t off_pairs = 0;
  std::uint64_t checksum = 0;
};
static_assert(sizeof(SpillHeader) == kHeaderBytes, "header layout drifted");
constexpr std::size_t kChecksummedHeaderBytes = offsetof(SpillHeader, checksum);

static_assert(sizeof(SpillBlock) == 24, "block table entry drifted");

/// The layout every v2 file of `n` rows in blocks of `block_rows` has.
SpillHeader layout(std::size_t n, std::size_t block_rows, util::SimTime day) {
  SpillHeader h;
  h.block_rows = static_cast<std::uint32_t>(block_rows);
  h.record_count = n;
  h.day = day;
  h.block_count = (n + block_rows - 1) / block_rows;
  h.off_blocks = kHeaderBytes;
  h.off_timestamps = h.off_blocks + h.block_count * sizeof(SpillBlock);
  h.off_bandwidths = h.off_timestamps + n * sizeof(util::SimTime);
  // The PairId column is last so every column start stays 8-byte aligned
  // without padding (u32 tail needs none).
  h.off_pairs = h.off_bandwidths + n * sizeof(double);
  return h;
}

std::uint64_t header_checksum(const SpillHeader& h, const void* blocks) {
  const std::uint64_t hash = fnv1a(kFnvOffsetBasis, &h, kChecksummedHeaderBytes);
  return fnv1a(hash, blocks, h.block_count * sizeof(SpillBlock));
}

/// Checksum of rows [first, first + rows) across the three columns.
std::uint64_t block_checksum(const util::SimTime* timestamps, const double* bandwidths,
                             const util::PairId* pairs, std::size_t first, std::size_t rows) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a(h, timestamps + first, rows * sizeof(util::SimTime));
  h = fnv1a(h, bandwidths + first, rows * sizeof(double));
  h = fnv1a(h, pairs + first, rows * sizeof(util::PairId));
  return h;
}

[[noreturn]] void corrupt(const std::string& path, const char* what) {
  throw std::runtime_error("SpilledSegment: " + path + ": " + what);
}

/// Reads exactly `bytes` at `offset` of `fd` into `dst`; a short read (the
/// file shrank under the reader) or an I/O error throws.
void read_exact(int fd, const std::string& path, void* dst, std::size_t bytes,
                std::size_t offset) {
  auto* p = static_cast<char*>(dst);
  while (bytes > 0) {
    const ::ssize_t got = ::pread(fd, p, bytes, static_cast<::off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) corrupt(path, got == 0 ? "short read" : "read failed");
    p += got;
    bytes -= static_cast<std::size_t>(got);
    offset += static_cast<std::size_t>(got);
  }
}

}  // namespace

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::size_t write_spill_file(const std::string& path, util::SimTime day,
                             std::span<const util::SimTime> timestamps,
                             std::span<const double> bandwidths,
                             std::span<const util::PairId> pairs) {
  const std::size_t n = timestamps.size();
  if (bandwidths.size() != n || pairs.size() != n) {
    throw std::runtime_error("write_spill_file: column lengths differ for " + path);
  }
  SpillHeader header = layout(n, kSpillBlockRows, day);
  std::vector<SpillBlock> blocks(header.block_count);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t first = b * kSpillBlockRows;
    const std::size_t rows = std::min(kSpillBlockRows, n - first);
    const auto [lo, hi] = std::minmax_element(timestamps.begin() + first,
                                              timestamps.begin() + first + rows);
    blocks[b] = SpillBlock{*lo, *hi,
                           block_checksum(timestamps.data(), bandwidths.data(), pairs.data(),
                                          first, rows)};
  }
  header.checksum = header_checksum(header, blocks.data());
  const std::size_t total = header.off_pairs + n * sizeof(util::PairId);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("write_spill_file: cannot create " + tmp);
  const bool ok = std::fwrite(&header, sizeof(header), 1, f) == 1 &&
                  (n == 0 || (std::fwrite(blocks.data(), sizeof(SpillBlock), blocks.size(), f) ==
                                  blocks.size() &&
                              std::fwrite(timestamps.data(), sizeof(util::SimTime), n, f) == n &&
                              std::fwrite(bandwidths.data(), sizeof(double), n, f) == n &&
                              std::fwrite(pairs.data(), sizeof(util::PairId), n, f) == n));
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_spill_file: short write on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_spill_file: cannot rename " + tmp + " -> " + path);
  }
  return total;
}

SpilledSegment::SpilledSegment(SpilledSegment&& other) noexcept { *this = std::move(other); }

SpilledSegment& SpilledSegment::operator=(SpilledSegment&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    records_ = other.records_;
    block_rows_ = other.block_rows_;
    file_bytes_ = other.file_bytes_;
    header_bytes_ = other.header_bytes_;
    day_ = other.day_;
    off_timestamps_ = other.off_timestamps_;
    off_bandwidths_ = other.off_bandwidths_;
    off_pairs_ = other.off_pairs_;
    blocks_ = std::move(other.blocks_);
  }
  return *this;
}

SpilledSegment::~SpilledSegment() {
  if (fd_ >= 0) ::close(fd_);
}

SpilledSegment SpilledSegment::open(const std::string& path, bool verify_checksum) {
  SpilledSegment out;
  out.path_ = path;
  out.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (out.fd_ < 0) corrupt(path, "cannot open");
  struct stat st {};
  if (::fstat(out.fd_, &st) != 0) corrupt(path, "cannot stat");
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) corrupt(path, "file shorter than the header");
  SpillHeader header;
  read_exact(out.fd_, path, &header, sizeof(header), 0);
  if ((header.magic & kMagicFamilyMask) != kMagicFamily) {
    corrupt(path, "bad magic (not a spill file)");
  }
  if (header.magic != kMagic || header.version != kVersion) {
    corrupt(path, "unsupported version");
  }
  // Bound the record count by the file size before any offset arithmetic,
  // so a corrupt count cannot overflow the layout computation.
  const std::size_t n = header.record_count;
  if (header.block_rows == 0 || n > size / kRowBytes) {
    corrupt(path, "column offsets inconsistent with record count / file size");
  }
  const SpillHeader expect = layout(n, header.block_rows, header.day);
  if (header.block_count != expect.block_count || header.off_blocks != expect.off_blocks ||
      header.off_timestamps != expect.off_timestamps ||
      header.off_bandwidths != expect.off_bandwidths || header.off_pairs != expect.off_pairs ||
      size != expect.off_pairs + n * sizeof(util::PairId)) {
    corrupt(path, "column offsets inconsistent with record count / file size");
  }
  out.blocks_.resize(header.block_count);
  read_exact(out.fd_, path, out.blocks_.data(), out.blocks_.size() * sizeof(SpillBlock),
             header.off_blocks);
  if (header_checksum(header, out.blocks_.data()) != header.checksum) {
    corrupt(path, "header checksum mismatch (corrupt header or block table)");
  }
  out.records_ = n;
  out.block_rows_ = header.block_rows;
  out.file_bytes_ = size;
  out.header_bytes_ = header.off_timestamps;
  out.day_ = header.day;
  out.off_timestamps_ = header.off_timestamps;
  out.off_bandwidths_ = header.off_bandwidths;
  out.off_pairs_ = header.off_pairs;
  if (verify_checksum) out.verify();
  return out;
}

template <typename Wanted, typename Fn>
SpillReadStats SpilledSegment::read_blocks(const Wanted& wanted, bool verify,
                                           const Fn& fn) const {
  SpillReadStats stats;
  std::vector<util::SimTime> timestamps;
  std::vector<double> bandwidths;
  std::vector<util::PairId> pairs;
  std::size_t b = 0;
  while (b < blocks_.size()) {
    if (!wanted(blocks_[b])) {
      ++b;
      continue;
    }
    // One run of consecutive wanted blocks costs three reads, one per
    // column; runs are capped so the scratch columns stay small.
    std::size_t e = b + 1;
    while (e < blocks_.size() && e - b < kRunBlocks && wanted(blocks_[e])) ++e;
    const std::size_t first = b * block_rows_;
    const std::size_t rows = std::min(e * block_rows_, records_) - first;
    timestamps.resize(rows);
    bandwidths.resize(rows);
    pairs.resize(rows);
    read_exact(fd_, path_, timestamps.data(), rows * sizeof(util::SimTime),
               off_timestamps_ + first * sizeof(util::SimTime));
    read_exact(fd_, path_, bandwidths.data(), rows * sizeof(double),
               off_bandwidths_ + first * sizeof(double));
    read_exact(fd_, path_, pairs.data(), rows * sizeof(util::PairId),
               off_pairs_ + first * sizeof(util::PairId));
    if (verify) {
      for (std::size_t k = b; k < e; ++k) {
        const std::size_t at = k * block_rows_ - first;
        const std::size_t block = std::min(block_rows_, rows - at);
        if (block_checksum(timestamps.data(), bandwidths.data(), pairs.data(), at, block) !=
            blocks_[k].checksum) {
          corrupt(path_, "block checksum mismatch (corrupt columns)");
        }
      }
      stats.bytes_verified += rows * kRowBytes;
    }
    stats.rows_scanned += rows;
    fn(std::span<const util::SimTime>(timestamps), std::span<const double>(bandwidths),
       std::span<const util::PairId>(pairs));
    b = e;
  }
  return stats;
}

std::size_t SpilledSegment::verify() const {
  return read_blocks([](const SpillBlock&) { return true; }, /*verify=*/true,
                     [](auto, auto, auto) {})
      .bytes_verified;
}

SpillReadStats SpilledSegment::emit_time_filtered(BandwidthLog* out, util::SimTime begin,
                                                  util::SimTime end, bool verify) const {
  // The block table passed the header checksum, so its bounds are the ones
  // written: a block outside the window holds no row of it.
  return read_blocks(
      [&](const SpillBlock& block) {
        return block.max_timestamp >= begin && block.min_timestamp < end;
      },
      verify,
      [&](std::span<const util::SimTime> timestamps, std::span<const double> bandwidths,
          std::span<const util::PairId> pairs) {
        out->append_time_filtered(timestamps, pairs, bandwidths, begin, end);
      });
}

}  // namespace smn::telemetry
