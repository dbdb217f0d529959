#include "telemetry/log_store.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "telemetry/spill_file.h"
#include "util/contracts.h"
#include "util/stats.h"

namespace smn::telemetry {
namespace {

/// Samples per (pair, day) at the standard five-minute telemetry epoch;
/// accumulators reserve this up front so a full day appends without
/// reallocation (sparser pairs waste at most one day-sized buffer).
constexpr std::size_t kSamplesPerDayReserve =
    static_cast<std::size_t>(util::kDay / util::kTelemetryEpoch);

/// Exclusivity guard of a spill directory: one LOCK file per live store.
constexpr const char* kSpillLockName = "LOCK";

/// Parses one unsigned decimal run of `name` starting at `*pos`, leaving
/// `*pos` just past it. Returns false when no digits are present.
bool parse_number(const std::string& name, std::size_t* pos, std::uint64_t* value) {
  const char* begin = name.data() + *pos;
  const char* end = name.data() + name.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *value);
  if (ec != std::errc{} || ptr == begin) return false;
  *pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

/// Parses a spill filename "shard<s>_day<d>_gen<g>.col". Anything else
/// (the LOCK file, a leftover .tmp) is not a spill segment.
bool parse_spill_name(const std::string& name, std::size_t* shard, util::SimTime* day,
                      std::size_t* gen) {
  std::size_t pos = 0;
  std::uint64_t s = 0;
  std::uint64_t d = 0;
  std::uint64_t g = 0;
  const auto expect = [&](std::string_view literal) {
    if (name.compare(pos, literal.size(), literal) != 0) return false;
    pos += literal.size();
    return true;
  };
  if (!expect("shard") || !parse_number(name, &pos, &s)) return false;
  if (!expect("_day") || !parse_number(name, &pos, &d)) return false;
  if (!expect("_gen") || !parse_number(name, &pos, &g)) return false;
  if (!expect(".col") || pos != name.size()) return false;
  *shard = static_cast<std::size_t>(s);
  *day = static_cast<util::SimTime>(d);
  *gen = static_cast<std::size_t>(g);
  return true;
}

}  // namespace

std::size_t BandwidthLogStore::generation_rows(const Generation& g) noexcept {
  return g.pending ? g.pending->seg.rows() : static_cast<std::size_t>(g.file.records);
}

BandwidthLogStore::BandwidthLogStore(const LogStoreConfig& config)
    : window_(config.streaming_window),
      drift_alpha_(config.drift_alpha),
      spill_dir_(config.spill_dir),
      shards_(std::max<std::size_t>(1, config.shards)),
      core_(std::make_shared<ViewCore>(config.spill_verify_checksum)) {
  if (window_ <= 0) {
    throw std::invalid_argument("BandwidthLogStore: streaming window must be positive");
  }
  if (!spill_dir_.empty()) {
    // Fail construction, not the first retention pass, when the cold tier
    // cannot exist.
    std::error_code ec;
    std::filesystem::create_directories(spill_dir_, ec);
    if (ec || !std::filesystem::is_directory(spill_dir_)) {
      throw std::invalid_argument("BandwidthLogStore: cannot create spill_dir " + spill_dir_);
    }
  }
  SMN_CHECK(drift_alpha_ > 0.0 && drift_alpha_ <= 1.0,
            "drift EWMA alpha must be in (0, 1]");
  SMN_CHECK(shards_.size() <= 0xFFFFu, "shard ids are staged as 16-bit");
  std::size_t threads = config.ingest_threads;
  if (threads == 0) {
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads = std::min(shards_.size(), hw);
  }
  threads = std::min(threads, shards_.size());
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
  // Last, so a failed contract above never leaves a stray lockfile behind.
  if (spill_enabled()) acquire_spill_lock(config.spill_steal_lock);
}

BandwidthLogStore::~BandwidthLogStore() {
  if (holds_spill_lock_) {
    std::error_code ec;
    std::filesystem::remove(std::filesystem::path(spill_dir_) / kSpillLockName, ec);
  }
}

void BandwidthLogStore::acquire_spill_lock(bool steal) {
  const std::string lock_path = (std::filesystem::path(spill_dir_) / kSpillLockName).string();
  std::error_code ec;
  const bool already_locked = std::filesystem::exists(lock_path, ec);
  SMN_CHECK(steal || !already_locked,
            "spill_dir already carries a LOCK file — each spill directory is private to "
            "one live store; a failover adopter must take it over explicitly via "
            "LogStoreConfig::spill_steal_lock");
  std::FILE* f = std::fopen(lock_path.c_str(), "wb");
  if (f == nullptr) {
    throw std::invalid_argument("BandwidthLogStore: cannot write lockfile " + lock_path);
  }
  const std::string pid = std::to_string(static_cast<long long>(::getpid())) + "\n";
  const bool ok = std::fwrite(pid.data(), 1, pid.size(), f) == pid.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::invalid_argument("BandwidthLogStore: short write on lockfile " + lock_path);
  }
  holds_spill_lock_ = true;
}

std::size_t BandwidthLogStore::recover_spill_files() {
  SMN_CHECK(spill_enabled(), "recover_spill_files needs a configured spill_dir");
  struct FoundFile {
    std::size_t shard = 0;
    util::SimTime day = 0;
    std::size_t gen = 0;
    std::string path;
  };
  std::vector<FoundFile> found;
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir_)) {
    if (!entry.is_regular_file()) continue;
    FoundFile f;
    const std::string name = entry.path().filename().string();
    if (!parse_spill_name(name, &f.shard, &f.day, &f.gen)) continue;
    SMN_CHECK(f.shard < shards_.size(),
              "spill file names a shard beyond this store's shard count — adopt with the "
              "dead store's shard configuration (PairId routing depends on it)");
    f.path = entry.path().string();
    found.push_back(std::move(f));
  }
  // Directory iteration order is filesystem-dependent; generation order is
  // ingest order and must be reconstructed deterministically.
  std::sort(found.begin(), found.end(), [](const FoundFile& a, const FoundFile& b) {
    if (a.shard != b.shard) return a.shard < b.shard;
    if (a.day != b.day) return a.day < b.day;
    return a.gen < b.gen;
  });
  std::size_t records = 0;
  for (const FoundFile& f : found) {
    // Validate up front: a truncated or corrupt file must fail the adoption,
    // not a later fine_range() merge.
    const SpilledSegment seg = SpilledSegment::open(f.path, /*verify_checksum=*/true);
    SMN_CHECK(seg.day() == f.day, "spill filename day disagrees with its header");
    Shard& shard = shards_[f.shard];
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::vector<Generation>& generations = shard.spilled[f.day];
    SMN_CHECK(generations.size() == f.gen,
              "spill generations are not dense — the cold tier is already populated or a "
              "generation file is missing");
    generations.push_back(
        Generation{nullptr, SpillEntry{f.path, seg.record_count(), seg.file_bytes()}});
    records += seg.record_count();
  }
  return records;
}

std::uint32_t BandwidthLogStore::slot_of(Shard& shard, util::PairId pair) {
  if (pair >= shard.local_of.size()) shard.local_of.resize(pair + 1, kNoSlot);
  std::uint32_t slot = shard.local_of[pair];
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(shard.pairs.size());
    shard.local_of[pair] = slot;
    shard.pairs.push_back(pair);
    shard.drift.emplace_back();
    shard.name_bytes.push_back(static_cast<std::uint32_t>(pair_name_bytes(pair)));
  }
  return slot;
}

BandwidthLogStore::DaySlab& BandwidthLogStore::open_slab_locked(Shard& shard,
                                                                util::SimTime day) {
  if (day != shard.open_day) {
    std::shared_ptr<DaySlab>& slot = shard.days[day];
    if (!slot) slot = std::make_shared<DaySlab>();
    shard.open = slot.get();
    shard.open_day = day;
  }
  return *shard.open;
}

void BandwidthLogStore::append_locked(Shard& shard, util::SimTime timestamp,
                                      util::PairId pair, double bw_gbps) {
  SMN_DCHECK(pair != util::kInvalidPairId, "ingest with an invalid PairId");
  SMN_DCHECK(timestamp >= 0, "negative timestamps break day-segment keying");
  const util::SimTime day = (timestamp / util::kDay) * util::kDay;
  DaySlab& slab = open_slab_locked(shard, day);
  slab.seg.append(timestamp, pair, bw_gbps);
  accumulate_locked(shard, slab, timestamp, pair, bw_gbps);
}

void BandwidthLogStore::accumulate_locked(Shard& shard, DaySlab& slab,
                                          util::SimTime timestamp, util::PairId pair,
                                          double bw_gbps) {
  const std::uint32_t slot = slot_of(shard, pair);
  if (slot >= slab.accums.size()) slab.accums.resize(shard.pairs.size());
  PairDayAccum& acc = slab.accums[slot];
  // A record belongs to the open run iff it falls inside the run's window
  // (run_window stores window starts, so the membership test is two
  // comparisons). Only window transitions and out-of-order arrivals pay
  // the divide by the runtime window — for in-order streams that is once
  // per (pair, window), not once per record.
  const bool in_open_run = !acc.run_window.empty() &&
                           timestamp >= acc.run_window.back() &&
                           timestamp - acc.run_window.back() < window_;
  if (!in_open_run) {
    if (acc.samples.empty()) {
      acc.samples.reserve(kSamplesPerDayReserve);
      acc.run_window.reserve(
          static_cast<std::size_t>(std::max<util::SimTime>(1, util::kDay / window_)));
      acc.run_begin.reserve(acc.run_window.capacity());
    }
    acc.run_window.push_back((timestamp / window_) * window_);
    acc.run_begin.push_back(static_cast<std::uint32_t>(acc.samples.size()));
  }
  acc.samples.push_back(bw_gbps);
  slab.listing_bytes += kListingRowBytes + shard.name_bytes[slot];

  if (shard.drift_enabled) {
    PairDrift& d = shard.drift[slot];
    if (!d.has_observed) {
      d.observed = bw_gbps;
      d.has_observed = true;
    } else {
      d.observed += drift_alpha_ * (bw_gbps - d.observed);
    }
  }
}

void BandwidthLogStore::ingest(util::SimTime timestamp, util::PairId pair, double bw_gbps) {
  Shard& shard = shards_[shard_of(pair)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  append_locked(shard, timestamp, pair, bw_gbps);
}

void BandwidthLogStore::append_batch(Shard& shard, const StagedColumns& records) {
  const auto timestamps = records.timestamps;
  const auto pairs = records.pairs;
  const auto bw = records.bw_gbps;
  const std::size_t n = timestamps.size();
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::size_t j = 0;
  while (j < n) {
    // Maximal same-day run: the whole run lands in one slab, so its columns
    // copy in bulk (chunk-sized range copies) instead of a capacity-checked
    // push per row; only the accumulator/drift state updates per record.
    const util::SimTime day = (timestamps[j] / util::kDay) * util::kDay;
    std::size_t k = j + 1;
    while (k < n && timestamps[k] - day >= 0 && timestamps[k] - day < util::kDay) ++k;
    DaySlab& slab = open_slab_locked(shard, day);
    slab.seg.append_columns(timestamps.subspan(j, k - j), pairs.subspan(j, k - j),
                            bw.subspan(j, k - j));
    for (std::size_t i = j; i < k; ++i) {
      accumulate_locked(shard, slab, timestamps[i], pairs[i], bw[i]);
    }
    j = k;
  }
}

void BandwidthLogStore::ingest(const BandwidthLog& log) {
  const std::size_t n = log.record_count();
  if (n == 0) return;
  const auto timestamps = log.timestamps();
  const auto pairs = log.pair_ids();
  const auto bw = log.bandwidths();
  if (shards_.size() == 1) {
    Shard& shard = shards_[0];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t i = 0; i < n; ++i) {
      append_locked(shard, timestamps[i], pairs[i], bw[i]);
    }
    return;
  }
  // Counting partition into per-shard contiguous staging runs: one pass
  // over the pair column to count, one pass to scatter record values
  // (recomputing the two-cycle hash beats memoizing it — a memo array is
  // more memory traffic than the multiply). The per-shard append loops then
  // read their inputs sequentially instead of gathering the source columns
  // through an index array — the batch touches each source cache line once.
  // The staging buffer is raw new[] (trivial type): records are written
  // exactly once, with no value-initialization pass over the whole buffer.
  // No locks are held here; each append task takes only its shard's lock.
  std::vector<std::uint32_t> offset(shards_.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++offset[shard_of(pairs[i]) + 1];
  for (std::size_t s = 1; s <= shards_.size(); ++s) offset[s] += offset[s - 1];
  const std::unique_ptr<util::SimTime[]> st_ts(new util::SimTime[n]);
  const std::unique_ptr<util::PairId[]> st_pair(new util::PairId[n]);
  const std::unique_ptr<double[]> st_bw(new double[n]);
  std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = fill[shard_of(pairs[i])]++;
    st_ts[d] = timestamps[i];
    st_pair[d] = pairs[i];
    st_bw[d] = bw[i];
  }
  for_each_shard([&](std::size_t s) {
    const std::size_t b = offset[s];
    const std::size_t len = offset[s + 1] - b;
    append_batch(shards_[s],
                 StagedColumns{{st_ts.get() + b, len},
                               {st_pair.get() + b, len},
                               {st_bw.get() + b, len}});
  });
}

BandwidthLogStore::DetachedDay BandwidthLogStore::detach_shard_day(std::size_t s,
                                                                   util::SimTime day) {
  Shard& shard = shards_[s];
  DetachedDay detached;
  detached.shard = s;
  detached.day = day;
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.days.find(day);
  if (it == shard.days.end()) return detached;
  if (shard.open == it->second.get()) {
    shard.open = nullptr;
    shard.open_day = kNoDay;
  }
  detached.slab = std::move(it->second);
  // Erasing drops the map's reference only; a ReadView holding the slab
  // keeps serving it unchanged (no writer ever touches it again).
  shard.days.erase(it);
  // The seal reads slot -> PairId off the lock; Shard::pairs may grow (and
  // reallocate) under ingest meanwhile, so the slab gets its own copy.
  const std::size_t slots = detached.slab->accums.size();
  detached.pairs.assign(shard.pairs.begin(),
                        shard.pairs.begin() + static_cast<std::ptrdiff_t>(slots));
  if (spill_enabled() && !detached.slab->seg.empty()) {
    std::vector<Generation>& generations = shard.spilled[day];
    detached.generation = generations.size();
    detached.pending = true;
    generations.push_back(Generation{detached.slab, {}});
  }
  return detached;
}

void BandwidthLogStore::seal_detached(const DetachedDay& detached,
                                      std::vector<WindowSummary>* out) const {
  const DaySlab& slab = *detached.slab;
  std::vector<std::uint32_t> run_order;
  std::vector<double> scratch;
  for (std::size_t slot = 0; slot < slab.accums.size(); ++slot) {
    const PairDayAccum& acc = slab.accums[slot];
    const std::size_t nruns = acc.run_window.size();
    if (nruns == 0) continue;
    // Group the runs of each window in run (= record) order, so the sample
    // sequence fed to summarize() matches a batch pass over the segment.
    run_order.resize(nruns);
    std::iota(run_order.begin(), run_order.end(), 0u);
    std::stable_sort(run_order.begin(), run_order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return acc.run_window[a] < acc.run_window[b];
                     });
    std::size_t k = 0;
    while (k < nruns) {
      const util::SimTime window_start = acc.run_window[run_order[k]];
      scratch.clear();
      util::Summary stats;
      std::size_t group = k;
      while (group < nruns && acc.run_window[run_order[group]] == window_start) ++group;
      if (group == k + 1) {
        // Single run (in-order stream): summarize straight off the buffer.
        const std::uint32_t b = acc.run_begin[run_order[k]];
        const std::uint32_t e = run_order[k] + 1 < nruns
                                    ? acc.run_begin[run_order[k] + 1]
                                    : static_cast<std::uint32_t>(acc.samples.size());
        stats = util::summarize(std::span<const double>(acc.samples).subspan(b, e - b));
      } else {
        for (std::size_t g = k; g < group; ++g) {
          const std::uint32_t r = run_order[g];
          const std::uint32_t b = acc.run_begin[r];
          const std::uint32_t e = r + 1 < nruns
                                      ? acc.run_begin[r + 1]
                                      : static_cast<std::uint32_t>(acc.samples.size());
          scratch.insert(scratch.end(), acc.samples.begin() + b, acc.samples.begin() + e);
        }
        stats = util::summarize(scratch);
      }
      k = group;
      WindowSummary summary;
      summary.pair = detached.pairs[slot];
      summary.window_start = window_start;
      summary.window_length = window_;
      summary.sample_count = stats.count;
      summary.mean = stats.mean;
      summary.p50 = stats.p50;
      summary.p95 = stats.p95;
      summary.min = stats.min;
      summary.max = stats.max;
      out->push_back(summary);
    }
  }
}

void BandwidthLogStore::spill_detached(const DetachedDay& detached) {
  const BandwidthLog seg = detached.slab->seg.materialize(detached.slab->seg.rows());
  // Re-ingest after an earlier seal produces a second generation; file
  // names carry the generation index so nothing is overwritten.
  SpillEntry entry;
  entry.path = (std::filesystem::path(spill_dir_) /
                ("shard" + std::to_string(detached.shard) + "_day" +
                 std::to_string(detached.day) + "_gen" +
                 std::to_string(detached.generation) + ".col"))
                   .string();
  entry.records = seg.record_count();
  entry.file_bytes = write_spill_file(entry.path, detached.day, seg.timestamps(),
                                      seg.bandwidths(), seg.pair_ids());
  Shard& shard = shards_[detached.shard];
  std::lock_guard<std::mutex> lock(shard.mutex);
  // Readers that captured the pending generation keep serving the slab;
  // readers from here on open the file. Both hold the same rows.
  shard.spilled[detached.day][detached.generation] = Generation{nullptr, std::move(entry)};
}

std::size_t BandwidthLogStore::retire_shard_day(std::size_t s, util::SimTime day,
                                                bool streaming,
                                                const TimeCoarsener& coarsener,
                                                std::vector<WindowSummary>* out) {
  const DetachedDay detached = detach_shard_day(s, day);
  if (!detached.slab) return 0;
  // From here on no lock is held: ingest and readers of this shard proceed
  // while the slab is summarized and written.
  if (streaming) {
    seal_detached(detached, out);
  } else {
    // Seal-time copy: the coarsener wants contiguous columns, and batch
    // coarsening runs once per retired (shard, day), off the ingest path.
    const CoarseBandwidthLog summarized =
        coarsener.coarsen(detached.slab->seg.materialize(detached.slab->seg.rows()));
    out->assign(summarized.summaries().begin(), summarized.summaries().end());
  }
  if (detached.pending) spill_detached(detached);
  return detached.slab->seg.rows();
}

std::size_t BandwidthLogStore::coarsen_older_than(util::SimTime now, util::SimTime max_fine_age,
                                                  util::SimTime window) {
  SMN_CHECK(window > 0, "coarsening window must be positive");
  // One retention pass at a time: the pass is the single writer of the
  // epoch-published coarse row table (and of coarse_).
  std::lock_guard<std::mutex> retention_lock(retention_mutex_);
  // Sealing from accumulators is only valid when they were built for this
  // window and windows never straddle the day-segment boundary.
  const bool streaming = (window == window_) && (util::kDay % window_ == 0);
  const TimeCoarsener coarsener(window);

  // Due days, union across shards, ascending — the single-shard store
  // retired segments in day order, so the merged output must too.
  std::vector<util::SimTime> due;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [day, slab] : shard.days) {
      if (now - (day + util::kDay) >= max_fine_age) due.push_back(day);
    }
  }
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());

  std::size_t retired = 0;
  std::vector<std::vector<WindowSummary>> parts(shards_.size());
  std::vector<std::size_t> shard_retired(shards_.size(), 0);
  for (const util::SimTime day : due) {
    for (auto& p : parts) p.clear();
    // Each shard detaches the day under its lock, so a record ingested
    // concurrently into a due day is either in the detached slab (and is
    // coarsened with the rest) or reopens the day as a new slab, never
    // dropped. Each task writes only its own parts/shard_retired slot.
    for_each_shard([&](std::size_t s) {
      shard_retired[s] = retire_shard_day(s, day, streaming, coarsener, &parts[s]);
    });
    for (const std::size_t r : shard_retired) retired += r;
    // Merge in the single-shard emission order: (src name, dst name,
    // window start). (pair, window) is unique across shards, so a plain
    // sort on (name rank, window start) fully determines the order.
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    std::vector<WindowSummary> merged;
    merged.reserve(total);
    for (const auto& p : parts) merged.insert(merged.end(), p.begin(), p.end());
    const auto ranks = util::IdSpace::global().pair_ranks();
    const auto emission_less = [&](const WindowSummary& a, const WindowSummary& b) {
      const std::uint32_t ra = (*ranks)[a.pair];
      const std::uint32_t rb = (*ranks)[b.pair];
      if (ra != rb) return ra < rb;
      return a.window_start < b.window_start;
    };
    if (!std::is_sorted(merged.begin(), merged.end(), emission_less)) {
      std::sort(merged.begin(), merged.end(), emission_less);
    }
    for (const WindowSummary& summary : merged) {
      coarse_.append(summary);
      // Lockstep publication into the snapshot-readable twin: a ReadView's
      // coarse_limit_ always names a prefix of the same emission order.
      core_->coarse_rows.push_back(summary);
      core_->coarse_bytes.fetch_add(kCoarseRowBytes + pair_name_bytes(summary.pair),
                                    std::memory_order_relaxed);
    }
  }
  return retired;
}

void BandwidthLogStore::capture_shard_locked(const Shard& shard, ReadView::ShardView* sv,
                                             ReadView* view) {
  sv->resident.reserve(shard.days.size());
  for (const auto& [day, slab] : shard.days) {
    ReadView::ResidentDay rd;
    rd.day = day;
    rd.slab = slab;
    rd.rows = slab->seg.rows();  // the per-slab high-water mark
    if (rd.rows > 0) {
      view->high_water_ = std::max(view->high_water_, slab->seg.timestamp_at(rd.rows - 1));
    }
    view->fine_rows_ += rd.rows;
    sv->resident.push_back(std::move(rd));
  }
  sv->spilled.reserve(shard.spilled.size());
  for (const auto& [day, generations] : shard.spilled) {
    for (const Generation& g : generations) view->fine_rows_ += generation_rows(g);
    view->high_water_ = std::max(view->high_water_, day + util::kDay - 1);
    sv->spilled.emplace_back(day, generations);
  }
}

BandwidthLogStore::ReadView BandwidthLogStore::read_view() const {
  ReadView view;
  view.core_ = core_;
  view.shards_.resize(shards_.size());
  // Shards locked at first sight (by an ingest batch, or a seal's detach
  // or swap) are captured last, so a view waits only for locks already
  // held, one at a time. Each shard is captured whole under its lock, so
  // the order changes no view.
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    if (!shard.mutex.try_lock()) {
      busy.push_back(s);
      continue;
    }
    std::lock_guard<std::mutex> lock(shard.mutex, std::adopt_lock);
    capture_shard_locked(shard, &view.shards_[s], &view);
  }
  for (const std::size_t s : busy) {
    const Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    capture_shard_locked(shard, &view.shards_[s], &view);
  }
  // Coarse mark AFTER the shard walk: a day retired mid-acquisition is
  // covered by its pinned slab or new spill generation when the shard was
  // walked first, and by the coarse prefix otherwise — data is never lost
  // to a view, though a concurrent retention can make it visible on both
  // the fine and coarse surface (see the ReadView class comment).
  view.coarse_limit_ = core_->coarse_rows.size();
  // Interner generation last: every pair id published to any captured row
  // or summary was interned before it, so it decodes within this snapshot.
  view.ids_ = util::IdSpace::global().snapshot();
  core_->views_acquired.fetch_add(1, std::memory_order_relaxed);
  core_->views_live.fetch_add(1, std::memory_order_relaxed);
  return view;
}

BandwidthLogStore::ReadView::~ReadView() {
  if (core_) core_->views_live.fetch_sub(1, std::memory_order_relaxed);
}

const WindowSummary& BandwidthLogStore::ReadView::coarse_at(std::size_t i) const {
  SMN_CHECK(i < coarse_limit_, "coarse_at beyond this view's snapshot");
  return core_->coarse_rows[i];
}

BandwidthLog BandwidthLogStore::ReadView::fine_range(util::SimTime begin,
                                                     util::SimTime end) const {
  // Stable sort by (timestamp, name rank): rows with equal keys share a
  // pair, hence a shard, hence their ingest order — so the merged output is
  // byte-identical to the single-shard store's.
  BandwidthLog out = storage_range(begin, end);
  out.sort();
  return out;
}

BandwidthLog BandwidthLogStore::ReadView::storage_range(util::SimTime begin,
                                                        util::SimTime end) const {
  BandwidthLog out;
  std::uint64_t bytes_verified = 0;
  std::uint64_t rows_scanned = 0;
  const auto day_in_range = [&](util::SimTime day) {
    return day < end && day + util::kDay > begin;
  };
  const auto emit_cold = [&](const std::vector<Generation>& generations) {
    for (const Generation& g : generations) {
      if (g.pending) {
        // A seal in progress: the detached slab is complete and final.
        rows_scanned += g.pending->seg.emit_time_filtered(&out, g.pending->seg.rows(), begin,
                                                          end);
        continue;
      }
      // open() reads and verifies the header and block table; the read
      // reads and verifies only the blocks its window overlaps.
      const SpilledSegment seg = SpilledSegment::open(g.file.path, /*verify_checksum=*/false);
      core_->spill_maps.fetch_add(1, std::memory_order_relaxed);
      SpillReadStats read;
      try {
        read = seg.emit_time_filtered(&out, begin, end, core_->verify_checksum);
      } catch (...) {
        // A corrupt block throws; the segment is closed all the same.
        core_->spill_unmaps.fetch_add(1, std::memory_order_relaxed);
        throw;
      }
      bytes_verified += seg.header_bytes() + read.bytes_verified;
      rows_scanned += read.rows_scanned;
      core_->spill_unmaps.fetch_add(1, std::memory_order_relaxed);
    }
  };
  const auto emit_warm = [&](const ResidentDay& rd) {
    rows_scanned += rd.slab->seg.emit_time_filtered(&out, rd.rows, begin, end);
  };
  for (const ShardView& shard : shards_) {
    // Two-iterator merge over the cold tier and the resident slabs, in
    // ascending day order. On a day present in both (re-ingest after a
    // seal), spilled generations precede the resident slab: that is their
    // ingest order, which the stable sort below must be able to recover
    // for equal (timestamp, pair) keys.
    std::size_t cold = 0;
    std::size_t warm = 0;
    while (cold < shard.spilled.size() || warm < shard.resident.size()) {
      if (warm == shard.resident.size() ||
          (cold < shard.spilled.size() &&
           shard.spilled[cold].first <= shard.resident[warm].day)) {
        // Out-of-range spilled days are skipped by key alone — no map, no
        // checksum pass, so point queries touch only the days they cover.
        if (day_in_range(shard.spilled[cold].first)) emit_cold(shard.spilled[cold].second);
        if (warm < shard.resident.size() &&
            shard.resident[warm].day == shard.spilled[cold].first) {
          if (day_in_range(shard.resident[warm].day)) emit_warm(shard.resident[warm]);
          ++warm;
        }
        ++cold;
      } else {
        if (day_in_range(shard.resident[warm].day)) emit_warm(shard.resident[warm]);
        ++warm;
      }
    }
  }
  core_->spill_bytes_verified.fetch_add(bytes_verified, std::memory_order_relaxed);
  core_->rows_scanned.fetch_add(rows_scanned, std::memory_order_relaxed);
  return out;
}

BandwidthLog BandwidthLogStore::fine_range(util::SimTime begin, util::SimTime end) const {
  return read_view().fine_range(begin, end);
}

LogStoreStats BandwidthLogStore::stats() const {
  LogStoreStats s;
  s.shard_records.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::size_t records = 0;
    for (const auto& [day, slab] : shard.days) {
      const std::size_t rows = slab->seg.rows();
      records += rows;
      s.fine_bytes += slab->listing_bytes;
      s.resident_bytes += slab->seg.memory_bytes();
      // Same high-water definition as read_view().
      if (rows > 0) s.high_water = std::max(s.high_water, slab->seg.timestamp_at(rows - 1));
    }
    for (const auto& [day, generations] : shard.spilled) {
      for (const Generation& g : generations) {
        if (g.pending) {
          // A seal in progress: the rows are still in memory.
          records += g.pending->seg.rows();
          s.fine_bytes += g.pending->listing_bytes;
          s.resident_bytes += g.pending->seg.memory_bytes();
          continue;
        }
        ++s.spilled_files;
        s.spilled_records += g.file.records;
        s.spilled_bytes += g.file.file_bytes;
      }
      // Same high-water definition as read_view().
      s.high_water = std::max(s.high_water, day + util::kDay - 1);
    }
    s.shard_records.push_back(records);
    s.fine_records += records;
  }
  // Every resident row was accumulated as exactly one open-window sample
  // (under the same lock as its append), and a slab's accumulators leave
  // with the slab — so the two counts are equal by construction.
  s.open_window_samples = s.fine_records;
  s.spill_maps = core_->spill_maps.load(std::memory_order_relaxed);
  s.spill_unmaps = core_->spill_unmaps.load(std::memory_order_relaxed);
  s.spill_bytes_verified = core_->spill_bytes_verified.load(std::memory_order_relaxed);
  s.rows_scanned = core_->rows_scanned.load(std::memory_order_relaxed);
  s.views_acquired = core_->views_acquired.load(std::memory_order_relaxed);
  s.views_live = core_->views_live.load(std::memory_order_relaxed);
  s.coarse_summaries = core_->coarse_rows.size();
  s.coarse_bytes = core_->coarse_bytes.load(std::memory_order_relaxed);
  return s;
}

void BandwidthLogStore::set_demand_baseline(const DemandBaseline& baseline) {
  const bool enable = !baseline.entries.empty();
  std::vector<std::vector<std::pair<util::PairId, double>>> per_shard(shards_.size());
  for (const auto& [pair, gbps] : baseline.entries) {
    SMN_CHECK(pair != util::kInvalidPairId, "baseline entry with an invalid PairId");
    per_shard[shard_of(pair)].emplace_back(pair, gbps);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (PairDrift& d : shard.drift) d = PairDrift{};
    shard.drift_enabled = enable;
    for (const auto& [pair, gbps] : per_shard[s]) {
      const std::uint32_t slot = slot_of(shard, pair);
      shard.drift[slot].expected = gbps;
      shard.drift[slot].has_expected = true;
    }
  }
  baseline_set_ = enable;
}

DriftReport BandwidthLogStore::drift() const {
  DriftReport report;
  report.has_baseline = baseline_set_;
  if (!baseline_set_) return report;
  struct Term {
    util::PairId pair;
    double observed;
    double expected;
    bool has_observed;
    bool has_expected;
  };
  std::vector<Term> terms;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t slot = 0; slot < shard.drift.size(); ++slot) {
      const PairDrift& d = shard.drift[slot];
      if (!d.has_observed && !d.has_expected) continue;
      terms.push_back({shard.pairs[slot], d.observed, d.expected, d.has_observed,
                       d.has_expected});
    }
  }
  // Fold in PairId order: the float sums come out bit-identical for any
  // shard count or thread count.
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.pair < b.pair; });
  for (const Term& t : terms) {
    if (t.has_expected) report.baseline_gbps += t.expected;
    if (!t.has_observed) continue;  // no post-baseline evidence yet
    ++report.pairs_tracked;
    report.deviation_gbps +=
        t.has_expected ? std::abs(t.observed - t.expected) : t.observed;
  }
  if (report.baseline_gbps > 0.0) {
    report.level = report.deviation_gbps / report.baseline_gbps;
  } else {
    report.level =
        report.deviation_gbps > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return report;
}

void BandwidthLogStore::for_each_shard(const std::function<void(std::size_t)>& fn) {
  if (pool_ && shards_.size() > 1) {
    pool_->parallel_for(0, shards_.size(), fn);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) fn(s);
  }
}

}  // namespace smn::telemetry
