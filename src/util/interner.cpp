#include "util/interner.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/contracts.h"

namespace smn::util {

DcId Interner::intern(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = index_.find(name);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = index_.find(name);  // re-check: lost the race to another writer
  if (it != index_.end()) return it->second;
  SMN_CHECK(names_.size() < kInvalidDcId, "DcId space exhausted");
  // push_back publishes the name (release on the table size) BEFORE the
  // index insertion, so a concurrent lock-free name(id) that learned `id`
  // from any source always finds the string bytes visible.
  const auto id = static_cast<DcId>(names_.push_back(std::string(name)));
  index_.emplace(std::string_view(names_[id]), id);
  SMN_DCHECK(index_.size() == names_.size(), "index and name table diverged");
  return id;
}

std::optional<DcId> Interner::find(std::string_view name) const {
  std::shared_lock lock(mutex_);
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& Interner::name(DcId id) const {
  // Lock-free decode: the acquire load inside names_.size() orders the
  // bounds check before the element read (epoch_table.h protocol).
  if (id >= names_.size()) throw std::out_of_range("Interner::name: unknown id");
  return names_[id];
}

PairId PairInterner::intern(DcId src, DcId dst) {
  const std::uint64_t key = pack(src, dst);
  {
    std::shared_lock lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  SMN_CHECK(packed_.size() < kInvalidPairId, "PairId space exhausted");
  SMN_DCHECK(src != kInvalidDcId && dst != kInvalidDcId,
             "interning a pair of invalid DcIds");
  const auto id = static_cast<PairId>(packed_.push_back(key));
  index_.emplace(key, id);
  SMN_DCHECK(index_.size() == packed_.size(), "index and pair table diverged");
  return id;
}

std::optional<PairId> PairInterner::find(DcId src, DcId dst) const {
  std::shared_lock lock(mutex_);
  const auto it = index_.find(pack(src, dst));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

DcId PairInterner::src(PairId id) const {
  if (id >= packed_.size()) throw std::out_of_range("PairInterner::src: unknown id");
  return static_cast<DcId>(packed_[id] >> 32);
}

DcId PairInterner::dst(PairId id) const {
  if (id >= packed_.size()) throw std::out_of_range("PairInterner::dst: unknown id");
  return static_cast<DcId>(packed_[id] & 0xFFFFFFFFu);
}

IdSpace& IdSpace::global() noexcept {
  static IdSpace instance;
  return instance;
}

std::optional<PairId> IdSpace::find_pair_of_names(std::string_view src,
                                                 std::string_view dst) const {
  const auto s = dcs_.find(src);
  if (!s) return std::nullopt;
  const auto d = dcs_.find(dst);
  if (!d) return std::nullopt;
  return pairs_.find(*s, *d);
}

bool IdSpace::pair_name_less(PairId a, PairId b) const {
  if (a == b) return false;
  name_comparisons_.fetch_add(1, std::memory_order_relaxed);
  const std::string& sa = src_name(a);
  const std::string& sb = src_name(b);
  if (sa != sb) return sa < sb;
  return dst_name(a) < dst_name(b);
}

std::shared_ptr<const PairRankTable> IdSpace::pair_ranks() const {
  // Pair count first: every pair below it references DCs below dc_count.
  const IdSpaceSnapshot snap = snapshot();
  std::lock_guard<std::mutex> lock(rank_mutex_);
  if (ranks_ && ranks_->size() >= snap.pair_count) return ranks_;
  auto next = std::make_shared<PairRankTable>();
  // New DCs can sort between old ones and shift every pair's key, so they
  // re-rank all pairs; new pairs alone are merged into the old order.
  const bool dcs_grew = !ranks_ || ranks_->dc_rank_.size() < snap.dc_count;
  if (dcs_grew) {
    std::vector<DcId> dcs(snap.dc_count);
    std::iota(dcs.begin(), dcs.end(), DcId{0});
    std::sort(dcs.begin(), dcs.end(), [this](DcId a, DcId b) {
      name_comparisons_.fetch_add(1, std::memory_order_relaxed);
      return dcs_.name(a) < dcs_.name(b);
    });
    next->dc_rank_.resize(dcs.size());
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      next->dc_rank_[dcs[i]] = static_cast<std::uint32_t>(i);
    }
  } else {
    next->dc_rank_ = ranks_->dc_rank_;
  }
  const auto key = [&](PairId p) {
    return (static_cast<std::uint64_t>(next->dc_rank_[pairs_.src(p)]) << 32) |
           next->dc_rank_[pairs_.dst(p)];
  };
  const std::size_t covered = dcs_grew ? 0 : ranks_->size();
  std::vector<std::pair<std::uint64_t, PairId>> fresh;
  fresh.reserve(snap.pair_count - covered);
  for (std::size_t p = covered; p < snap.pair_count; ++p) {
    fresh.emplace_back(key(static_cast<PairId>(p)), static_cast<PairId>(p));
  }
  std::sort(fresh.begin(), fresh.end());
  const std::vector<PairId> none;
  const std::vector<PairId>& prior = covered > 0 ? ranks_->order_ : none;
  next->order_.reserve(snap.pair_count);
  std::size_t o = 0;
  for (const auto& [fresh_key, pair] : fresh) {
    while (o < prior.size() && key(prior[o]) < fresh_key) next->order_.push_back(prior[o++]);
    next->order_.push_back(pair);
  }
  next->order_.insert(next->order_.end(), prior.begin() + static_cast<std::ptrdiff_t>(o),
                      prior.end());
  next->rank_.resize(snap.pair_count);
  for (std::size_t i = 0; i < next->order_.size(); ++i) {
    next->rank_[next->order_[i]] = static_cast<std::uint32_t>(i);
  }
  ranks_ = std::move(next);
  return ranks_;
}

}  // namespace smn::util
