#include "telemetry/stable_log.h"

#include <algorithm>

#include "util/contracts.h"

namespace smn::telemetry {

void StableLog::append_columns(std::span<const util::SimTime> timestamps,
                               std::span<const util::PairId> pairs,
                               std::span<const double> bw_gbps) {
  SMN_DCHECK(timestamps.size() == pairs.size() && pairs.size() == bw_gbps.size(),
             "StableLog columns must stay the same length");
  const std::size_t n = rows_.load(std::memory_order_relaxed);
  const std::size_t chunk = timestamps_.chunk_size();
  for (std::size_t i = 0; i < timestamps.size();) {
    const std::size_t len = std::min(timestamps.size() - i, chunk - (n + i) % chunk);
    const auto [lo, hi] = std::minmax_element(timestamps.begin() + i, timestamps.begin() + i + len);
    widen_bounds(n + i, *lo, *hi);
    i += len;
  }
  timestamps_.append(timestamps);
  pairs_.append(pairs);
  bw_.append(bw_gbps);
  rows_.store(n + timestamps.size(), std::memory_order_release);
}

void StableLog::open_chunk(std::size_t row) {
  const std::size_t chunk = timestamps_.chunk_size();
  const std::size_t c = row / chunk;
  open_bounds_ = &bounds_.writer_slot(c);
  bounds_.publish(1);
  open_chunk_end_ = (c + 1) * chunk;
}

std::size_t StableLog::emit_time_filtered(BandwidthLog* out, std::size_t limit,
                                          util::SimTime begin, util::SimTime end) const {
  // All three columns share one chunk size, so each chunk of the timestamp
  // column maps to an equally-shaped piece of the pair and bandwidth
  // columns. Bounds loaded after the caller's acquire of rows_ cover every
  // row below `limit` (they only ever widen).
  const std::size_t chunk = timestamps_.chunk_size();
  std::size_t scanned = 0;
  for (std::size_t first = 0; first < limit; first += chunk) {
    const ChunkBounds& bounds = bounds_[first / chunk];
    if (bounds.max.load(std::memory_order_relaxed) < begin ||
        bounds.min.load(std::memory_order_relaxed) >= end) {
      continue;
    }
    const std::size_t len = std::min(chunk, limit - first);
    out->append_time_filtered(timestamps_.chunk_span(first, len), pairs_.chunk_span(first, len),
                              bw_.chunk_span(first, len), begin, end);
    scanned += len;
  }
  return scanned;
}

BandwidthLog StableLog::materialize(std::size_t limit) const {
  BandwidthLog out;
  out.reserve(limit);
  timestamps_.for_each_span(0, limit, [&](std::size_t off, std::span<const util::SimTime> ts) {
    out.append_columns(ts, pairs_.chunk_span(off, ts.size()), bw_.chunk_span(off, ts.size()));
  });
  return out;
}

}  // namespace smn::telemetry
