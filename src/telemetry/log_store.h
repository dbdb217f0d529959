// Telemetry log store: the bandwidth-log shard of the CLDS. The store is
// partitioned by PairId hash into N independent shards (one per thread-pool
// worker), each owning its own day-keyed columnar segments, open
// per-(pair, window) accumulators, and retention seal. Bulk ingest
// partitions the batch once (a counting sort over shards) and then runs the
// per-shard append loops as a parallel_for with per-shard locks; the
// retention pass seals each shard's due days in parallel and merges the
// sealed summaries in (src name, dst name, window) order. Every record of a
// pair lands in exactly one shard with stream order preserved, so the
// merged fine_range() / coarse() views are byte-identical to what the
// single-shard store produces ("coarsenings in time", §6, still hold
// bit-exactly under partitioning).
//
// On top of the per-pair accumulators each shard tracks demand drift: an
// EWMA of observed bandwidth per pair, compared against the demand-matrix
// snapshot of the last TE solve (set_demand_baseline). drift() folds the
// per-shard deviations in PairId order — deterministic for any shard or
// thread count — into one aggregate level the controller can threshold to
// fire an early re-solve.
//
// Tiered storage (DESIGN.md §10): with `spill_dir` configured, sealing a
// day does not discard its fine columns — each (shard, day) segment is
// serialized to a flat little-endian column file (telemetry/spill_file.h)
// and the in-memory segment is freed, keeping only unsealed days resident.
// fine_range() reads spilled days back with pread and merges them with the
// resident segments, so reads are byte-identical to a store that never
// sealed anything. A read reads, verifies and scans only the spill blocks
// and resident chunks whose time bounds overlap its window, so it costs
// the rows it returns, not the days it touches. Re-ingest into an
// already-spilled day opens a fresh resident slab; the next seal writes a
// second generation file, and reads merge generations in ingest order.
//
// A seal holds its shard's lock only to detach and to swap (DESIGN.md
// §10): under the lock it moves the day's slab into the day's generation
// list as a pending generation, which readers keep serving from memory;
// with no lock held it summarizes the slab and writes the spill file;
// under a second brief lock it swaps the pending generation for the
// file. A reader therefore sees every row of the day exactly once — in
// the resident slab, the pending generation or the file — and never waits
// out a seal.
//
// Concurrent snapshot reads (DESIGN.md §14): read_view() captures an
// immutable ReadView — per-shard {day slab, published row count} pairs plus
// the spilled-generation lists and the coarse high-water mark — under brief
// per-shard metadata locks (O(days), no row copies). The view is then
// queried with NO store lock at all: resident rows live in epoch-published
// StableLog columns (readable lock-free up to the captured count while
// ingest keeps appending past it), spilled rows are read off their files,
// and retention cannot invalidate the view because slabs are
// shared_ptr-owned (a retired slab stays alive until the last view drops
// it) and spill files are never deleted. fine_range() itself is one
// read_view().fine_range() call, so the quiesced and concurrent read paths
// are literally the same code — byte-identical by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/bandwidth_log.h"
#include "telemetry/stable_log.h"
#include "telemetry/time_coarsening.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace smn::telemetry {

/// Footprint report of the store. `fine_*` covers resident segments only;
/// the `spilled_*` fields cover the cold tier on disk.
struct LogStoreStats {
  std::size_t fine_records = 0;
  std::size_t coarse_summaries = 0;
  std::size_t fine_bytes = 0;
  std::size_t coarse_bytes = 0;
  /// In-memory columnar bytes of resident fine segments (20 B/record).
  std::size_t resident_bytes = 0;
  /// Samples currently buffered in open window accumulators.
  std::size_t open_window_samples = 0;
  /// Fine records currently held by each shard (occupancy / skew gauge).
  std::vector<std::size_t> shard_records;
  /// Cold tier: sealed fine records serialized to spill files.
  std::size_t spilled_records = 0;
  std::size_t spilled_files = 0;
  std::size_t spilled_bytes = 0;  ///< on-disk bytes, headers included
  /// Lifetime spill-read traffic: spill segments opened / closed by reads.
  /// (The names predate pread reads, when each open was a file mapping;
  /// they are kept so gauges and reports stay comparable.)
  std::uint64_t spill_maps = 0;
  std::uint64_t spill_unmaps = 0;
  /// Lifetime read work: spill bytes checksummed by reads (headers, block
  /// tables and the blocks a window touched), and fine rows scanned by
  /// reads (the resident chunks and spilled blocks a window overlapped).
  std::uint64_t spill_bytes_verified = 0;
  std::uint64_t rows_scanned = 0;
  /// Snapshot read path: lifetime ReadViews acquired, and views alive now
  /// (each live view can pin retired day slabs in memory).
  std::uint64_t views_acquired = 0;
  std::uint64_t views_live = 0;
  /// What read_view().high_water() would return now: the last resident row
  /// or spilled day end; 0 for an empty store.
  util::SimTime high_water = 0;

  std::size_t total_bytes() const noexcept { return fine_bytes + coarse_bytes; }
};

/// Demand snapshot of the last TE solve, in store-native (PairId, gbps)
/// form. te::DemandMatrix::to_baseline() produces one.
struct DemandBaseline {
  std::vector<std::pair<util::PairId, double>> entries;
  util::SimTime solved_at = 0;
};

/// Aggregate drift of observed demand vs the last baseline.
struct DriftReport {
  /// Sum of per-pair |observed - expected| over the baseline total;
  /// +inf when demand appeared against an all-zero baseline.
  double level = 0.0;
  double deviation_gbps = 0.0;
  double baseline_gbps = 0.0;
  /// Pairs with at least one post-baseline observation contributing a
  /// deviation term.
  std::size_t pairs_tracked = 0;
  bool has_baseline = false;
};

struct LogStoreConfig {
  /// The coarsening window the ingest-time accumulators are built for;
  /// retention passes requesting that window seal summaries in
  /// O(open windows). Must divide a day (so windows never straddle segment
  /// boundaries); other values fall back to batch coarsening at retention.
  util::SimTime streaming_window = util::kHour;
  /// Number of independent shards (>= 1). Records are routed by PairId
  /// hash, so all records of a pair share a shard and keep stream order.
  std::size_t shards = 1;
  /// Worker threads for bulk ingest / retention. 0 resolves to
  /// min(shards, hardware_concurrency); a resolved value <= 1 runs serial.
  std::size_t ingest_threads = 0;
  /// EWMA smoothing factor of the per-pair observed-demand tracker.
  double drift_alpha = 0.2;
  /// Directory of the cold tier. Empty disables spilling (sealed fine
  /// segments are dropped after coarsening — the pre-spill behavior).
  /// Non-empty: created if missing; each store instance needs its own
  /// directory (file names are only unique per store).
  std::string spill_dir;
  /// Verify the checksum of every spill block a read touches (the header
  /// and block table are always verified). Costs one pass over the touched
  /// blocks per read; disable only in benches that isolate raw read cost.
  bool spill_verify_checksum = true;
  /// Take over a spill directory whose pid lockfile is still present.
  /// Every store with a spill_dir writes a `LOCK` file on construction and
  /// SMN_CHECK-fails when one already exists (two live stores writing the
  /// same directory silently interleave generations). Failover is the one
  /// legitimate exception: the adopter sets `steal` to claim a dead
  /// controller's directory and then replays it via recover_spill_files().
  bool spill_steal_lock = false;
};

class BandwidthLogStore {
 private:
  // The storage types come first so the public ReadView can name them.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr util::SimTime kNoDay = std::numeric_limits<util::SimTime>::min();

  /// Open accumulator of one (pair, day): samples in ingest order, split
  /// into runs of consecutive same-window records (one run per window for
  /// in-order streams; out-of-order streams reopen a window as a new run
  /// and the seal re-concatenates runs in record order).
  struct PairDayAccum {
    std::vector<double> samples;
    std::vector<util::SimTime> run_window;   ///< window start of each run
    std::vector<std::uint32_t> run_begin;    ///< first sample index of each run
  };

  /// One day segment of one shard plus its open accumulators (by slot).
  /// Rows live in a StableLog so snapshot readers can consume a published
  /// prefix lock-free while ingest appends; the accumulators are writer
  /// state behind the shard mutex (views never touch them) until a seal
  /// detaches the slab, after which nothing writes it and the seal reads
  /// them with no lock.
  struct DaySlab {
    StableLog seg;
    std::vector<PairDayAccum> accums;
    /// Listing-1 serialized size of the slab's rows (the fine_bytes gauge),
    /// summed as rows arrive. Like `accums`, views never read it. DaySlab
    /// has no mutex of its own for an annotation to name; the counter is
    /// reached only through the guarded Shard::days / Shard::open /
    /// Shard::spilled, so every access holds the shard mutex.
    std::size_t listing_bytes = 0;
  };

  /// One sealed-and-spilled generation of a (shard, day) segment. Spill
  /// files are never deleted or rewritten, so a copied SpillEntry stays
  /// servable for the process lifetime.
  struct SpillEntry {
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t file_bytes = 0;
  };

  /// One generation of a sealed (shard, day): pending while its seal
  /// summarizes the slab and writes the file off the shard lock (served
  /// from the detached slab, which no writer touches again), then the
  /// spill file. Exactly one of the two is set.
  struct Generation {
    std::shared_ptr<const DaySlab> pending;
    SpillEntry file;  ///< valid once `pending` is null
  };

  /// State shared between the store and every ReadView it hands out, so a
  /// view stays self-contained (it never dereferences the store). The
  /// atomics are internally synchronized; coarse_rows follows the
  /// EpochTable writer contract with retention_mutex_ as the writer lock.
  struct ViewCore {
    explicit ViewCore(bool verify) : verify_checksum(verify) {}
    const bool verify_checksum;
    /// Every coarse summary ever emitted, in emission order — the
    /// concurrently-readable twin of coarse() (whose CoarseBandwidthLog
    /// index rebuilds are not safe under concurrent readers). Appended in
    /// lockstep with coarse_ by the retention pass.
    util::EpochTable<WindowSummary> coarse_rows{1024};
    std::atomic<std::uint64_t> views_acquired{0};
    std::atomic<std::uint64_t> views_live{0};
    /// Lifetime spill-read traffic: segments opened and closed (reads are
    /// const; counters are not state, so they stay atomics rather than
    /// joining a shard lock).
    std::atomic<std::uint64_t> spill_maps{0};
    std::atomic<std::uint64_t> spill_unmaps{0};
    std::atomic<std::uint64_t> spill_bytes_verified{0};
    std::atomic<std::uint64_t> rows_scanned{0};
    /// Listing-style serialized size of coarse_rows, bumped in lockstep with
    /// each push by the retention pass (the coarse_bytes gauge).
    std::atomic<std::uint64_t> coarse_bytes{0};
  };

 public:
  /// Single-shard store (the pre-sharding behavior and default).
  explicit BandwidthLogStore(util::SimTime streaming_window = util::kHour)
      : BandwidthLogStore(LogStoreConfig{.streaming_window = streaming_window}) {}

  explicit BandwidthLogStore(const LogStoreConfig& config);

  /// Releases the spill-dir lockfile (when this store holds one).
  ~BandwidthLogStore();

  BandwidthLogStore(const BandwidthLogStore&) = delete;
  BandwidthLogStore& operator=(const BandwidthLogStore&) = delete;

  /// An immutable snapshot of the store's readable state, queried with no
  /// store lock (DESIGN.md §14). Holding a view pins its resident day
  /// slabs (shared_ptr) even across retention, so reads stay byte-identical
  /// to the store at acquisition time restricted to the captured per-slab
  /// row counts. Move-only; cheap to acquire (O(days) metadata) and cheap
  /// to hold (row storage is shared, not copied). A view acquired
  /// concurrently with a retention pass may cover a just-retired day both
  /// fine (pinned slab) and coarse (published summary) — consumers
  /// time-partition fine vs coarse at the retention boundary, as the
  /// controller does, when they need exclusivity.
  class ReadView {
   public:
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;
    ReadView(ReadView&&) noexcept = default;
    ReadView& operator=(ReadView&&) = delete;
    ~ReadView();

    /// Fine records in [begin, end), merged across shards and tiers,
    /// timestamp-sorted — same merge, same output bytes as the store's
    /// fine_range() (which is implemented as exactly this call on a fresh
    /// view). Lock-free against concurrent ingest and retention. It is
    /// storage_range() followed by BandwidthLog::sort().
    BandwidthLog fine_range(util::SimTime begin, util::SimTime end) const;

    /// The rows of fine_range(begin, end) in storage order, unsorted: shard
    /// by shard, days ascending, a day's sealed generations before its
    /// resident slab, each in ingest order. So every pair's rows come in
    /// the order the stable sort of fine_range() starts from, and a
    /// consumer that groups rows by pair (telemetry/pair_groups.h) gets
    /// fine_range()'s per-pair sequences without paying for the sort.
    BandwidthLog storage_range(util::SimTime begin, util::SimTime end) const;

    /// Fine records covered by this view (resident prefix + spilled).
    std::size_t fine_rows() const noexcept { return fine_rows_; }

    /// Coarse summaries published when the view was taken; coarse_at(i)
    /// for i below coarse_count() reads them lock-free in emission order.
    std::size_t coarse_count() const noexcept { return coarse_limit_; }
    const WindowSummary& coarse_at(std::size_t i) const;

    /// Interner generation captured with the view: every pair id in the
    /// view decodes within it.
    util::IdSpaceSnapshot ids() const noexcept { return ids_; }

    /// Upper bound of the covered time range (last resident row / spilled
    /// day end); 0 for an empty view. The snapshot-age gauge is
    /// now - high_water().
    util::SimTime high_water() const noexcept { return high_water_; }

   private:
    friend class BandwidthLogStore;

    struct ResidentDay {
      util::SimTime day = 0;
      std::shared_ptr<const DaySlab> slab;
      std::size_t rows = 0;  ///< published row count at acquisition
    };
    struct ShardView {
      std::vector<ResidentDay> resident;  ///< ascending day order
      /// Sealed generation lists, ascending day order (copied entries —
      /// generations appended or swapped later are invisible to this view).
      std::vector<std::pair<util::SimTime, std::vector<Generation>>> spilled;
    };

    ReadView() = default;

    std::vector<ShardView> shards_;
    std::size_t coarse_limit_ = 0;
    std::size_t fine_rows_ = 0;
    util::SimTime high_water_ = 0;
    util::IdSpaceSnapshot ids_;
    std::shared_ptr<ViewCore> core_;  ///< null only after move-from
  };

  /// Captures a ReadView under brief per-shard metadata locks. Never
  /// blocks on a query in flight; ingest is held out only for the O(days)
  /// metadata walk of one shard at a time. Shards locked at first sight
  /// are captured last, so a view waits out at most the critical sections
  /// already in progress; a seal holds a shard lock only to detach a day
  /// and to swap its spill file in.
  ReadView read_view() const;

  /// Appends one record into its shard's day segment and open window
  /// accumulator. Thread-safe against concurrent ingest.
  void ingest(util::SimTime timestamp, util::PairId pair, double bw_gbps);

  /// Appends all records of `log`: one counting partition over shards, then
  /// per-shard append loops across the ingest pool (serial when the store
  /// has one shard or one thread). State is identical to per-record ingest.
  void ingest(const BandwidthLog& log);

  /// Rewrites fine segments older than `max_fine_age` (relative to `now`)
  /// into summaries with `window`. Returns the number of records retired.
  /// When `window` equals the streaming window, summaries are sealed from
  /// the ingest-time accumulators; otherwise segments are batch-coarsened.
  /// Either way each due day is processed shard-parallel and merged in the
  /// single-shard emission order (src name, dst name, window start).
  /// Retention passes are serialized on retention_mutex_ (they also write
  /// the epoch-published coarse row table, which needs one writer).
  std::size_t coarsen_older_than(util::SimTime now, util::SimTime max_fine_age,
                                 util::SimTime window) SMN_EXCLUDES(retention_mutex_);

  /// Fine records in [begin, end), merged across shards, timestamp-sorted.
  /// Byte-identical to the single-shard store's output. Spilled days
  /// overlapping the range are read back transparently and merged with
  /// resident segments, so with spilling enabled the result matches a
  /// store that never sealed anything. Implemented as
  /// read_view().fine_range(begin, end): one merge implementation serves
  /// the quiesced and the concurrent path.
  BandwidthLog fine_range(util::SimTime begin, util::SimTime end) const;

  /// True when the cold tier is configured (config.spill_dir non-empty).
  bool spill_enabled() const noexcept { return !spill_dir_.empty(); }

  /// Failover replay: scans `spill_dir` for `shard<s>_day<d>_gen<g>.col`
  /// files written by a dead store instance and re-registers them in this
  /// store's cold tier, so fine_range() serves the adopted region's sealed
  /// state byte-identically. Requires spilling enabled, an empty cold tier
  /// (fresh store), and the same shard count as the writer — the filename
  /// carries the shard index, and PairId -> shard routing only matches
  /// under the same shard count. Every file is opened and validated
  /// (magic, version, header checksum and every block checksum) before
  /// registration. Returns the number of fine records recovered.
  std::size_t recover_spill_files();

  /// All coarse summaries produced by retention passes so far. Quiesced
  /// accessor: safe only when no retention pass is running (the summary
  /// index may rebuild during one). Concurrent readers snapshot through
  /// ReadView::coarse_at instead.
  const CoarseBandwidthLog& coarse() const noexcept { return coarse_; }

  util::SimTime streaming_window() const noexcept { return window_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Footprint gauges. O(shards x resident days + spilled generations):
  /// the byte estimates are running counts kept by ingest and retention,
  /// so no stored row is walked. Takes each shard lock in turn and
  /// acquires no ReadView. A pending generation (a seal in progress) still
  /// counts as resident.
  LogStoreStats stats() const;

  // --- Drift tracking (streaming TE re-solve triggers) ---

  /// Installs the demand snapshot of a TE solve as the drift baseline and
  /// resets the per-pair observation EWMAs, so drift measures movement
  /// since this solve. An empty baseline disables tracking.
  void set_demand_baseline(const DemandBaseline& baseline);

  /// Aggregate drift vs the current baseline; deterministic for any shard
  /// and thread count (per-pair terms are folded in PairId order).
  DriftReport drift() const;

 private:
  /// Per-pair drift state of one shard (by slot).
  struct PairDrift {
    double observed = 0.0;   ///< EWMA of ingested bandwidth since baseline
    double expected = 0.0;   ///< demand of the last TE solve
    bool has_observed = false;
    bool has_expected = false;
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Key: day start. shared_ptr so a ReadView can pin a slab across its
    /// retirement; the map entry itself is erased by retention as before.
    std::map<util::SimTime, std::shared_ptr<DaySlab>> days SMN_GUARDED_BY(mutex);
    /// Cached slab of open_day.
    DaySlab* open SMN_GUARDED_BY(mutex) = nullptr;
    util::SimTime open_day SMN_GUARDED_BY(mutex) = kNoDay;
    /// PairId -> slot (kNoSlot if unseen).
    std::vector<std::uint32_t> local_of SMN_GUARDED_BY(mutex);
    /// Slot -> PairId.
    std::vector<util::PairId> pairs SMN_GUARDED_BY(mutex);
    /// By slot.
    std::vector<PairDrift> drift SMN_GUARDED_BY(mutex);
    /// By slot: src + dst name length, the per-row term of the Listing-1
    /// byte estimate (cached at slot assignment).
    std::vector<std::uint32_t> name_bytes SMN_GUARDED_BY(mutex);
    bool drift_enabled SMN_GUARDED_BY(mutex) = false;
    /// Cold tier of this shard: day -> sealed generations in generation
    /// (ingest) order, each pending or spilled. A day can appear here and
    /// in `days` at once after re-ingest.
    std::map<util::SimTime, std::vector<Generation>> spilled SMN_GUARDED_BY(mutex);
  };

  std::size_t shard_of(util::PairId pair) const noexcept {
    // Knuth multiplicative hash, then a multiply-shift range reduction
    // (uniform over [0, shards) with no hardware divide — shard_of runs
    // once per record on the bulk-ingest hot path).
    const std::uint32_t h = pair * 2654435761u;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(h) * shards_.size()) >> 32);
  }

  /// Staged records of one shard, in stream order (columnar value copies,
  /// so the per-shard loops read their inputs contiguously instead of
  /// gathering through an index array, and segments fill by bulk column
  /// copies).
  struct StagedColumns {
    std::span<const util::SimTime> timestamps;
    std::span<const util::PairId> pairs;
    std::span<const double> bw_gbps;
  };

  /// Fine rows of one sealed generation, pending or spilled.
  static std::size_t generation_rows(const Generation& g) noexcept;

  /// Copies `shard`'s slab pointers, published row counts and spilled
  /// generation lists into `*sv`, and folds them into `view`'s row count
  /// and high-water mark.
  static void capture_shard_locked(const Shard& shard, ReadView::ShardView* sv, ReadView* view)
      SMN_REQUIRES(shard.mutex);

  /// Slot of `pair` in `shard`, assigning one on first sight.
  static std::uint32_t slot_of(Shard& shard, util::PairId pair)
      SMN_REQUIRES(shard.mutex);

  /// Slab of `day` in `shard`, opening it on first touch (refreshes the
  /// open-day cache).
  DaySlab& open_slab_locked(Shard& shard, util::SimTime day) SMN_REQUIRES(shard.mutex);

  /// Appends one record into `shard` (caller holds the shard's mutex).
  void append_locked(Shard& shard, util::SimTime timestamp, util::PairId pair,
                     double bw_gbps) SMN_REQUIRES(shard.mutex);

  /// Bulk-appends staged records into `shard`: day-runs are copied into the
  /// day segment as whole columns, then the accumulator/drift state is
  /// updated per record (takes the shard's mutex).
  void append_batch(Shard& shard, const StagedColumns& records);

  /// Accumulator/drift part of one append (caller holds the shard's mutex
  /// and has already placed the record into `slab`'s segment).
  void accumulate_locked(Shard& shard, DaySlab& slab, util::SimTime timestamp,
                         util::PairId pair, double bw_gbps)
      SMN_REQUIRES(shard.mutex);

  /// A (shard, day) slab taken out of its shard by a seal. Everything the
  /// off-lock part of the seal reads belongs to it: the slab itself (no
  /// writer touches a detached slab) and a copy of the shard's
  /// slot -> PairId map for the slab's accumulators.
  struct DetachedDay {
    std::size_t shard = 0;
    util::SimTime day = 0;
    std::shared_ptr<const DaySlab> slab;  ///< null: the shard had no such slab
    std::vector<util::PairId> pairs;      ///< by accumulator slot
    /// Index of the pending generation registered for the slab; only
    /// meaningful when `pending`.
    std::size_t generation = 0;
    bool pending = false;
  };

  /// Under shard `s`'s lock: erases its slab of `day` from the resident
  /// map and, when the cold tier is configured and the slab holds rows,
  /// appends it to the day's generation list as a pending generation. A
  /// record ingested into the day afterwards opens a fresh slab — the next
  /// generation — so nothing lands between the detach and the summary.
  DetachedDay detach_shard_day(std::size_t s, util::SimTime day);

  /// Seals a detached slab into `*out` from its streaming accumulators
  /// (summaries unordered). Takes no lock.
  void seal_detached(const DetachedDay& detached, std::vector<WindowSummary>* out) const;

  /// Writes a detached slab's pending generation to its spill file with no
  /// lock held, then swaps the file in for the pending generation under a
  /// brief lock of its shard.
  void spill_detached(const DetachedDay& detached);

  /// Retires shard `s`'s slab of `day`: detach (shard lock), summarize
  /// into `*out` (streaming seal or batch coarsen) and write the spill file
  /// (no lock), swap the file in (shard lock). Returns the fine records
  /// retired.
  std::size_t retire_shard_day(std::size_t s, util::SimTime day, bool streaming,
                               const TimeCoarsener& coarsener,
                               std::vector<WindowSummary>* out);

  /// Runs `fn(s)` for every shard, across the pool when it exists.
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  /// Writes the pid lockfile under `spill_dir_` (SMN_CHECK-fails on a
  /// pre-existing lock unless `steal`).
  void acquire_spill_lock(bool steal);

  /// Tests drive the seal stages one at a time to read a store mid-seal.
  friend struct LogStoreSealStages;

  util::SimTime window_;
  double drift_alpha_;
  std::string spill_dir_;                  ///< empty = cold tier disabled
  bool holds_spill_lock_ = false;          ///< this store wrote the LOCK file
  std::vector<Shard> shards_;              ///< sized at construction, never resized
  std::unique_ptr<util::ThreadPool> pool_; ///< null when resolved threads <= 1
  /// Serializes retention passes: each pass is the single writer of the
  /// epoch-published coarse row table (core_->coarse_rows) and of coarse_.
  std::mutex retention_mutex_;
  /// Written only by retention passes (under retention_mutex_); the
  /// coarse() accessor reads it quiesced-only by documented contract, so
  /// it is deliberately not GUARDED_BY — concurrent readers go through
  /// ReadView::coarse_at over core_->coarse_rows instead.
  CoarseBandwidthLog coarse_;
  /// Shared with every ReadView (see ViewCore).
  std::shared_ptr<ViewCore> core_;
  bool baseline_set_ = false;              ///< mutated by set_demand_baseline only
};

}  // namespace smn::telemetry
