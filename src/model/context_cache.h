// Frequency-partitioned cache over a static |V| × d context matrix.
//
// Table 5's sweep walls out because every policy materializes and scores
// all |V| rows every round — Θ(|V|·d) before a single arrangement
// decision. When contexts are static per event (the scalability setting;
// the paper's per-round redraws are kept for the fidelity figures), the
// matrix becomes cacheable: a HOT partition of the most frequently
// scored events stays resident in one aligned Matrix the PR 4 kernels
// can stream, and COLD events are materialized one row at a time only
// when the lazy top-k heap actually pops them.
//
// Partition maintenance is deliberately boring and deterministic:
//  * Every access bumps the event's frequency counter.
//  * Cold rows materialized during a round live in a stash that stays
//    valid until the next BeginRound() — Learn() reads the arranged
//    rows after Propose() without re-materializing.
//  * BeginRound() promotes at most kMaxPromotionsPerRound cold events
//    whose counters beat the coldest hot slot (each promotion is one
//    eviction), so the partition adapts between rounds, never inside
//    one — scoring within a round sees a frozen partition regardless of
//    thread count. A lower bound on the coldest count (hot counts only
//    grow) turns most candidates away in O(1); the hot partition is
//    rescanned only for a candidate that beats the bound.
//
// Dense() is the fallback for consumers that genuinely need every row
// (TS/Boltzmann score all |V| against a sampled θ̃): it materializes the
// full matrix ONCE and serves it forever after — correct because the
// source is static — so even the dense consumers pay Θ(|V|·d)
// materialization only on first use, not per round.
#ifndef FASEA_MODEL_CONTEXT_CACHE_H_
#define FASEA_MODEL_CONTEXT_CACHE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "model/context.h"
#include "model/types.h"

namespace fasea {

/// A static per-event context generator: row v is the same every time it
/// is materialized. Implemented by datagen's StaticEventContextSource;
/// real datasets would back it with a feature store.
class ContextSource {
 public:
  virtual ~ContextSource() = default;
  virtual std::size_t num_events() const = 0;
  virtual std::size_t dim() const = 0;
  /// Writes event v's context row (size dim()). Must be deterministic
  /// in v — the cache serves stale copies indefinitely.
  virtual void Materialize(EventId v, std::span<double> row) const = 0;
};

class ContextCache {
 public:
  /// At most kMaxPromotionsPerRound hot-partition swaps per BeginRound:
  /// keeps adaptation O(budget) per round and the partition stable.
  static constexpr std::size_t kMaxPromotionsPerRound = 8;

  /// `hot_budget` rows stay resident (clamped to [1, num_events]).
  ContextCache(const ContextSource* source, std::size_t hot_budget);

  std::size_t num_events() const { return num_events_; }
  std::size_t dim() const { return dim_; }
  std::size_t hot_budget() const { return hot_budget_; }
  std::size_t hot_size() const { return hot_size_; }
  /// True when event v's row is resident in the hot partition.
  bool IsHot(EventId v) const { return hot_slot_[v] >= 0; }

  /// Starts a round: applies pending promotions, then clears the cold
  /// stash. Call exactly once per round, before any Row() access.
  void BeginRound();

  /// Event v's context row. Hot rows and already-stashed cold rows are
  /// hits; a first cold touch materializes into the stash (a miss).
  /// Stashed rows stay addressable by later Row(v) calls until the next
  /// BeginRound(), but the returned span itself is only guaranteed until
  /// the next Row() call (a stash growth relocates storage) — consume it
  /// before touching another row.
  std::span<const double> Row(EventId v);

  /// The full |V| × d matrix, materialized once on first use and served
  /// forever (static source). After this, Row() is always a hit.
  const ContextMatrix& Dense();
  bool dense_built() const { return dense_built_; }

  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }

  std::size_t MemoryBytes() const {
    return hot_.MemoryBytes() + stash_.MemoryBytes() +
           dense_.MemoryBytes() + freq_.capacity() * sizeof(freq_[0]) +
           hot_slot_.capacity() * sizeof(hot_slot_[0]) +
           stash_slot_.capacity() * sizeof(stash_slot_[0]) +
           hot_event_.capacity() * sizeof(hot_event_[0]) +
           stash_events_.capacity() * sizeof(stash_events_[0]) +
           promotion_candidates_.capacity() *
               sizeof(promotion_candidates_[0]);
  }

 private:
  void ApplyPromotions();

  const ContextSource* source_;
  std::size_t num_events_;
  std::size_t dim_;
  std::size_t hot_budget_;

  Matrix hot_;                        // hot_budget × d, aligned.
  std::vector<std::int32_t> hot_slot_;   // event → hot slot or -1.
  std::vector<EventId> hot_event_;       // hot slot → event.
  std::size_t hot_size_ = 0;

  Matrix stash_;                      // Cold rows touched this round.
  std::vector<std::int32_t> stash_slot_;  // event → stash slot or -1.
  std::vector<EventId> stash_events_;     // For the per-round reset.
  std::size_t stash_size_ = 0;

  std::vector<EventId> promotion_candidates_;  // Cold events seen this round.
  // Lower bound on the coldest hot slot's count, so a promotion pass
  // rescans the hot partition only for a candidate that beats it.
  std::uint32_t coldest_bound_ = 0;

  ContextMatrix dense_;
  bool dense_built_ = false;

  std::vector<std::uint32_t> freq_;  // Per-event access count.
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace fasea

#endif  // FASEA_MODEL_CONTEXT_CACHE_H_
