#include "model/context_cache.h"

#include <algorithm>

#include "common/macros.h"

namespace fasea {

ContextCache::ContextCache(const ContextSource* source,
                           std::size_t hot_budget)
    : source_(source),
      num_events_(source->num_events()),
      dim_(source->dim()),
      hot_budget_(std::clamp<std::size_t>(hot_budget, 1, num_events_)),
      hot_(hot_budget_, dim_),
      hot_slot_(num_events_, -1),
      hot_event_(hot_budget_, 0),
      stash_slot_(num_events_, -1),
      freq_(num_events_, 0) {
  FASEA_CHECK(num_events_ > 0);
  FASEA_CHECK(dim_ > 0);
}

void ContextCache::BeginRound() {
  ApplyPromotions();
  for (EventId v : stash_events_) stash_slot_[v] = -1;
  stash_events_.clear();
  stash_size_ = 0;
  promotion_candidates_.clear();
}

void ContextCache::ApplyPromotions() {
  if (dense_built_) {
    promotion_candidates_.clear();
    return;
  }
  std::size_t promoted = 0;
  for (EventId v : promotion_candidates_) {
    if (promoted >= kMaxPromotionsPerRound) break;
    if (hot_slot_[v] >= 0) continue;  // Promoted earlier this pass.
    if (hot_size_ < hot_budget_) continue;  // Filled on first touch instead.
    // Only a candidate beating the bound can beat the coldest slot.
    if (freq_[v] <= coldest_bound_) continue;
    // Evict the coldest hot slot when the candidate is strictly hotter.
    std::size_t coldest = 0;
    for (std::size_t s = 1; s < hot_size_; ++s) {
      if (freq_[hot_event_[s]] < freq_[hot_event_[coldest]]) coldest = s;
    }
    // Stays a lower bound: hot counts only grow, and the eviction below
    // replaces this minimum with a larger count.
    coldest_bound_ = freq_[hot_event_[coldest]];
    if (freq_[v] <= coldest_bound_) continue;
    hot_slot_[hot_event_[coldest]] = -1;
    hot_event_[coldest] = v;
    hot_slot_[v] = static_cast<std::int32_t>(coldest);
    source_->Materialize(v, hot_.Row(coldest));
    ++evictions_;
    ++promoted;
  }
  promotion_candidates_.clear();
}

std::span<const double> ContextCache::Row(EventId v) {
  FASEA_DCHECK(v < num_events_);
  ++freq_[v];
  if (dense_built_) {
    ++hits_;
    return dense_.Row(v);
  }
  const std::int32_t hot = hot_slot_[v];
  if (hot >= 0) {
    ++hits_;
    return hot_.Row(static_cast<std::size_t>(hot));
  }
  const std::int32_t stashed = stash_slot_[v];
  if (stashed >= 0) {
    ++hits_;
    return stash_.Row(static_cast<std::size_t>(stashed));
  }
  ++misses_;
  // First-touch fill: until the hot partition is full, cold events go
  // straight into it (no round can be colder than "never seen").
  if (hot_size_ < hot_budget_) {
    const std::size_t slot = hot_size_++;
    hot_event_[slot] = v;
    hot_slot_[v] = static_cast<std::int32_t>(slot);
    source_->Materialize(v, hot_.Row(slot));
    return hot_.Row(slot);
  }
  if (stash_size_ == stash_.rows()) {
    // Grow the stash geometrically, carrying stashed rows over so their
    // slots stay servable for the rest of the round (earlier returned
    // spans dangle — the Row() contract is consume-before-next-call).
    Matrix grown(std::max<std::size_t>(stash_.rows() * 2, 16), dim_);
    for (std::size_t r = 0; r < stash_size_; ++r) {
      std::span<const double> src = stash_.Row(r);
      std::copy(src.begin(), src.end(), grown.Row(r).begin());
    }
    stash_ = std::move(grown);
  }
  const std::size_t slot = stash_size_++;
  stash_slot_[v] = static_cast<std::int32_t>(slot);
  stash_events_.push_back(v);
  promotion_candidates_.push_back(v);
  source_->Materialize(v, stash_.Row(slot));
  return stash_.Row(slot);
}

const ContextMatrix& ContextCache::Dense() {
  if (!dense_built_) {
    dense_ = ContextMatrix(num_events_, dim_);
    for (EventId v = 0; v < num_events_; ++v) {
      source_->Materialize(v, dense_.Row(v));
    }
    misses_ += static_cast<std::int64_t>(num_events_);
    dense_built_ = true;
  }
  return dense_;
}

}  // namespace fasea
