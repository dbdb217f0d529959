#include "telemetry/stable_log.h"

#include "util/contracts.h"

namespace smn::telemetry {

void StableLog::append_columns(std::span<const util::SimTime> timestamps,
                               std::span<const util::PairId> pairs,
                               std::span<const double> bw_gbps) {
  SMN_DCHECK(timestamps.size() == pairs.size() && pairs.size() == bw_gbps.size(),
             "StableLog columns must stay the same length");
  const std::size_t n = rows_.load(std::memory_order_relaxed);
  timestamps_.append(timestamps);
  pairs_.append(pairs);
  bw_.append(bw_gbps);
  rows_.store(n + timestamps.size(), std::memory_order_release);
}

void StableLog::emit_time_filtered(BandwidthLog* out, std::size_t limit, util::SimTime begin,
                                   util::SimTime end) const {
  // All three columns share one chunk size, so each timestamp piece maps to
  // an equally-shaped piece of the pair and bandwidth columns.
  timestamps_.for_each_span(0, limit, [&](std::size_t off, std::span<const util::SimTime> ts) {
    out->append_time_filtered(ts, pairs_.chunk_span(off, ts.size()),
                              bw_.chunk_span(off, ts.size()), begin, end);
  });
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
