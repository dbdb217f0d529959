// Interned identifiers for the telemetry spine. Datacenter names and
// (src, dst) pairs appear in hundreds of millions of log rows; carrying
// them as std::string keys makes every consumer re-hash and re-allocate.
// The interner assigns each distinct name a stable u32 DcId (and each
// distinct ordered pair a stable u32 PairId) once, so logs, coarseners,
// demand extraction, and TE all speak the same compact id space — the
// "one consistent identifier space across aggregation levels" idea from
// Recursive SDN, applied to the fine and supernode-coarse layers alike.
//
// Ids are append-only and never recycled: a DcId handed out stays valid
// for the process lifetime, and `name()` returns a reference that is never
// invalidated (names live in epoch-published chunked storage). Decode-side
// operations (`name`, `src`, `dst`, `size`) are LOCK-FREE: storage is an
// EpochTable whose published size is the reader's generation, so a reader
// that observed id `i` as in-range can read it with no lock at all
// (DESIGN.md §14). Encode-side operations (`intern`, `find`) go through the
// hash index and take a shared lock, first-time interning an exclusive one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/epoch_table.h"
#include "util/thread_annotations.h"

namespace smn::util {

/// Handle of an interned datacenter (or supernode-group) name.
using DcId = std::uint32_t;
/// Handle of an interned ordered (src, dst) datacenter pair.
using PairId = std::uint32_t;

inline constexpr DcId kInvalidDcId = 0xFFFFFFFFu;
inline constexpr PairId kInvalidPairId = 0xFFFFFFFFu;

/// Append-only, thread-safe string -> DcId table. Decodes are lock-free.
class Interner {
 public:
  /// Id of `name`, interning it on first sight.
  DcId intern(std::string_view name) SMN_EXCLUDES(mutex_);

  /// Id of `name` if already interned.
  std::optional<DcId> find(std::string_view name) const SMN_EXCLUDES(mutex_);

  /// Name of `id`. Lock-free; the reference stays valid for the interner's
  /// lifetime. Throws std::out_of_range on an id this interner never
  /// produced (i.e. at or above the published generation).
  const std::string& name(DcId id) const;

  /// Published id count — the reader's generation. Lock-free.
  std::size_t size() const noexcept { return names_.size(); }

 private:
  /// Guards the hash index and serializes writers into names_.
  mutable std::shared_mutex mutex_;
  /// Epoch-published stable storage: writers append under mutex_ (the
  /// EpochTable writer contract), readers decode lock-free against the
  /// published size. Not SMN_GUARDED_BY by design — reads are sanctioned
  /// without the lock by the release/acquire protocol in epoch_table.h.
  EpochTable<std::string> names_{256};
  /// Views into names_ storage (addresses are chunk-stable).
  std::unordered_map<std::string_view, DcId> index_ SMN_GUARDED_BY(mutex_);
};

/// Append-only, thread-safe (DcId, DcId) -> PairId table. Decodes (`src`,
/// `dst`, `size`) are lock-free.
class PairInterner {
 public:
  PairId intern(DcId src, DcId dst) SMN_EXCLUDES(mutex_);
  std::optional<PairId> find(DcId src, DcId dst) const SMN_EXCLUDES(mutex_);

  /// Decode; lock-free; throws std::out_of_range on an unknown pair id.
  DcId src(PairId id) const;
  DcId dst(PairId id) const;

  /// Published pair count — the reader's generation. Lock-free.
  std::size_t size() const noexcept { return packed_.size(); }

 private:
  static std::uint64_t pack(DcId src, DcId dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  /// Guards the hash index and serializes writers into packed_.
  mutable std::shared_mutex mutex_;
  /// [PairId] -> packed key; epoch-published, lock-free reads (see names_
  /// in Interner for the protocol).
  EpochTable<std::uint64_t> packed_{1024};
  std::unordered_map<std::uint64_t, PairId> index_ SMN_GUARDED_BY(mutex_);
};

class IdSpace;

/// A consistent read generation of an IdSpace, captured atomically enough
/// for snapshot queries: every PairId below `pair_count` decodes to DcIds
/// below `dc_count`, so a reader resolving names for a snapshot never
/// observes a half-published pair. The capture order makes this true
/// without any lock: DcIds are published BEFORE any pair referencing them
/// (pair_of_names interns names first; callers of pair() hold valid ids),
/// so reading pair_count first and dc_count second can only over-approximate
/// dc_count — never miss a referenced dc.
struct IdSpaceSnapshot {
  std::size_t pair_count = 0;
  std::size_t dc_count = 0;
};

/// Name order on pairs as a dense rank per PairId: `rank(a) < rank(b)`
/// exactly when IdSpace::pair_name_less(a, b). A published table is
/// immutable, so readers share it without a lock; IdSpace::pair_ranks()
/// hands out one that covers every pair interned so far. Pair name order
/// is (src name, dst name), so the table is built from the name order of
/// the datacenters alone: pairs are ordered by their two DC ranks.
class PairRankTable {
 public:
  /// Pairs covered: ids [0, size()).
  std::size_t size() const noexcept { return rank_.size(); }

  /// Dense name rank of `pair`. Throws std::out_of_range on an id the
  /// table does not cover (an id not interned when it was built).
  std::uint32_t operator[](PairId pair) const {
    if (pair >= rank_.size()) throw std::out_of_range("PairRankTable: pair not covered");
    return rank_[pair];
  }

 private:
  friend class IdSpace;
  std::vector<std::uint32_t> dc_rank_;  ///< [DcId] -> position in DC name order
  std::vector<PairId> order_;           ///< covered pair ids in name order
  std::vector<std::uint32_t> rank_;     ///< [PairId] -> position in order_
};

/// The shared id space: one Interner for datacenter/group names plus one
/// PairInterner over those ids. Topology, telemetry, and TE all resolve
/// through the process-wide `global()` instance so a PairId minted at
/// ingest is directly meaningful to every downstream consumer.
class IdSpace {
 public:
  static IdSpace& global() noexcept;

  DcId dc(std::string_view name) { return dcs_.intern(name); }
  std::optional<DcId> find_dc(std::string_view name) const { return dcs_.find(name); }
  const std::string& dc_name(DcId id) const { return dcs_.name(id); }
  std::size_t dc_count() const { return dcs_.size(); }

  PairId pair(DcId src, DcId dst) { return pairs_.intern(src, dst); }
  std::optional<PairId> find_pair(DcId src, DcId dst) const { return pairs_.find(src, dst); }
  PairId pair_of_names(std::string_view src, std::string_view dst) {
    return pair(dc(src), dc(dst));
  }
  std::optional<PairId> find_pair_of_names(std::string_view src, std::string_view dst) const;
  DcId pair_src(PairId id) const { return pairs_.src(id); }
  DcId pair_dst(PairId id) const { return pairs_.dst(id); }
  const std::string& src_name(PairId id) const { return dcs_.name(pairs_.src(id)); }
  const std::string& dst_name(PairId id) const { return dcs_.name(pairs_.dst(id)); }
  std::size_t pair_count() const { return pairs_.size(); }

  /// Captures the current read generation: pair count first, dc count
  /// second (see IdSpaceSnapshot for why that order is the safe one).
  IdSpaceSnapshot snapshot() const noexcept {
    IdSpaceSnapshot snap;
    snap.pair_count = pairs_.size();
    snap.dc_count = dcs_.size();
    return snap;
  }

  /// Name order on pairs: (src name, dst name) lexicographic. This is the
  /// ordering every string-keyed consumer used to get from std::map, so
  /// id-based paths sort with it to keep output byte-identical. Lock-free.
  bool pair_name_less(PairId a, PairId b) const;

  /// The same order as a dense rank table covering at least every pair
  /// interned before the call. The table is rebuilt only when
  /// pair_count() has grown since the last one. A rebuild compares names
  /// only when dc_count() has grown too (it then re-sorts the DC names);
  /// otherwise the new pairs are ordered by their DC ranks and merged into
  /// the previous order. Sorts that rank through it make no string
  /// comparison once it covers their pairs. Thread-safe.
  std::shared_ptr<const PairRankTable> pair_ranks() const SMN_EXCLUDES(rank_mutex_);

  /// Lifetime DC-name string comparisons made by pair_name_less() and by
  /// rank-table rebuilds: the name-ordering work count.
  std::uint64_t name_comparisons() const noexcept {
    return name_comparisons_.load(std::memory_order_relaxed);
  }

 private:
  Interner dcs_;
  PairInterner pairs_;
  /// Serializes rank-table rebuilds and guards the published table.
  mutable std::mutex rank_mutex_;
  mutable std::shared_ptr<const PairRankTable> ranks_ SMN_GUARDED_BY(rank_mutex_);
  mutable std::atomic<std::uint64_t> name_comparisons_{0};
};

}  // namespace smn::util
