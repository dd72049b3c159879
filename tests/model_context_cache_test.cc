// ContextCache: the frequency-partitioned hot/cold cache over a static
// context source.
//  * Rows served from hot, stash, or dense are bit-identical to what the
//    source materializes.
//  * The hot partition never exceeds its budget; promotions of hotter
//    cold events evict the coldest resident and are counted.
//  * Cold rows stashed during a round stay addressable until the next
//    BeginRound; Dense() materializes once and turns every later access
//    into a hit.
//  * A seeded access replay matches a plain model that rescans every hot
//    slot for each promotion candidate: same hits, misses, evictions and
//    hot set after every round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "model/context_cache.h"
#include "rng/distributions.h"
#include "rng/pcg64.h"

namespace fasea {
namespace {

/// Deterministic source: row v is [v+1, v+2, ..., v+d] / norm.
class TestSource final : public ContextSource {
 public:
  TestSource(std::size_t num_events, std::size_t dim)
      : num_events_(num_events), dim_(dim) {}

  std::size_t num_events() const override { return num_events_; }
  std::size_t dim() const override { return dim_; }
  void Materialize(EventId v, std::span<double> row) const override {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) {
      row[j] = static_cast<double>(v + j + 1);
      norm_sq += row[j] * row[j];
    }
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (std::size_t j = 0; j < dim_; ++j) row[j] *= inv;
  }

 private:
  std::size_t num_events_;
  std::size_t dim_;
};

std::vector<double> MaterializedRow(const ContextSource& source, EventId v) {
  std::vector<double> row(source.dim());
  source.Materialize(v, row);
  return row;
}

void ExpectRowEquals(std::span<const double> got,
                     const std::vector<double>& want, EventId v) {
  ASSERT_EQ(got.size(), want.size()) << v;
  for (std::size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(got[j], want[j]) << "event " << v << " dim " << j;
  }
}

TEST(ContextCacheTest, ServesBitIdenticalRowsHotAndCold) {
  TestSource source(20, 4);
  ContextCache cache(&source, /*hot_budget=*/5);
  cache.BeginRound();
  // First touches fill the hot partition, then spill to the stash; every
  // row must match the source exactly either way.
  for (EventId v = 0; v < 20; ++v) {
    ExpectRowEquals(cache.Row(v), MaterializedRow(source, v), v);
  }
  EXPECT_EQ(cache.hot_size(), 5u);
  EXPECT_EQ(cache.misses(), 20);
  EXPECT_EQ(cache.hits(), 0);

  // Second pass within the round: hot rows and stashed rows both hit.
  for (EventId v = 0; v < 20; ++v) {
    ExpectRowEquals(cache.Row(v), MaterializedRow(source, v), v);
  }
  EXPECT_EQ(cache.hits(), 20);
  EXPECT_EQ(cache.misses(), 20);
}

TEST(ContextCacheTest, StashResetsEachRoundHotPersists) {
  TestSource source(10, 3);
  ContextCache cache(&source, /*hot_budget=*/2);
  cache.BeginRound();
  cache.Row(0);  // Hot.
  cache.Row(1);  // Hot.
  cache.Row(7);  // Stash.
  EXPECT_EQ(cache.misses(), 3);

  cache.BeginRound();
  cache.Row(0);
  cache.Row(1);
  EXPECT_EQ(cache.hits(), 2);  // Hot survives the round boundary.
  cache.Row(7);
  // 7's single access does not beat a resident's count; it re-misses.
  EXPECT_EQ(cache.misses(), 4);
}

TEST(ContextCacheTest, HotterColdEventsArePromotedWithEviction) {
  TestSource source(8, 3);
  ContextCache cache(&source, /*hot_budget=*/2);
  // Round 1: events 0 and 1 claim the hot slots with one access each.
  cache.BeginRound();
  cache.Row(0);
  cache.Row(1);
  // Event 5 becomes much hotter than either resident.
  for (int round = 0; round < 3; ++round) {
    cache.BeginRound();
    cache.Row(5);
    cache.Row(5);
  }
  EXPECT_GT(cache.evictions(), 0);
  // After promotion, 5 serves from hot: a fresh round's access hits.
  cache.BeginRound();
  const std::int64_t misses_before = cache.misses();
  ExpectRowEquals(cache.Row(5), MaterializedRow(source, 5), 5);
  EXPECT_EQ(cache.misses(), misses_before);
  EXPECT_EQ(cache.hot_size(), 2u);  // Budget never exceeded.
}

TEST(ContextCacheTest, DenseMaterializesOnceAndServesForever) {
  TestSource source(12, 5);
  ContextCache cache(&source, /*hot_budget=*/4);
  cache.BeginRound();
  const ContextMatrix& dense = cache.Dense();
  ASSERT_EQ(dense.rows(), 12u);
  ASSERT_EQ(dense.cols(), 5u);
  for (EventId v = 0; v < 12; ++v) {
    ExpectRowEquals(dense.Row(v), MaterializedRow(source, v), v);
  }
  EXPECT_TRUE(cache.dense_built());
  const std::int64_t misses_after_dense = cache.misses();

  // Every later Row() in any round is a hit against the dense copy.
  cache.BeginRound();
  for (EventId v = 0; v < 12; ++v) {
    ExpectRowEquals(cache.Row(v), MaterializedRow(source, v), v);
  }
  EXPECT_EQ(cache.misses(), misses_after_dense);
  // And Dense() itself is served from the copy, not re-materialized.
  EXPECT_EQ(&cache.Dense(), &dense);
}

TEST(ContextCacheTest, BudgetClampsToEventCount) {
  TestSource source(3, 2);
  ContextCache cache(&source, /*hot_budget=*/100);
  EXPECT_EQ(cache.hot_budget(), 3u);
  cache.BeginRound();
  for (EventId v = 0; v < 3; ++v) cache.Row(v);
  cache.BeginRound();
  for (EventId v = 0; v < 3; ++v) cache.Row(v);
  // Everything fits: no evictions ever.
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.hits(), 3);
}

/// The partition policy without the cache's shortcuts: every promotion
/// candidate rescans all hot slots for the coldest (first on ties).
class PlainCacheModel {
 public:
  PlainCacheModel(std::size_t num_events, std::size_t budget)
      : budget_(budget),
        freq_(num_events, 0),
        hot_slot_(num_events, -1),
        stashed_(num_events, false) {}

  void BeginRound() {
    std::size_t promoted = 0;
    for (EventId v : candidates_) {
      if (promoted >= ContextCache::kMaxPromotionsPerRound) break;
      if (hot_slot_[v] >= 0 || hot_event_.size() < budget_) continue;
      std::size_t coldest = 0;
      for (std::size_t s = 1; s < hot_event_.size(); ++s) {
        if (freq_[hot_event_[s]] < freq_[hot_event_[coldest]]) coldest = s;
      }
      if (freq_[v] <= freq_[hot_event_[coldest]]) continue;
      hot_slot_[hot_event_[coldest]] = -1;
      hot_event_[coldest] = v;
      hot_slot_[v] = static_cast<int>(coldest);
      ++evictions_;
      ++promoted;
    }
    candidates_.clear();
    std::fill(stashed_.begin(), stashed_.end(), false);
  }

  void Access(EventId v) {
    ++freq_[v];
    if (hot_slot_[v] >= 0 || stashed_[v]) {
      ++hits_;
      return;
    }
    ++misses_;
    if (hot_event_.size() < budget_) {
      hot_slot_[v] = static_cast<int>(hot_event_.size());
      hot_event_.push_back(v);
      return;
    }
    stashed_[v] = true;
    candidates_.push_back(v);
  }

  bool IsHot(EventId v) const { return hot_slot_[v] >= 0; }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }

 private:
  std::size_t budget_;
  std::vector<std::uint32_t> freq_;
  std::vector<int> hot_slot_;
  std::vector<EventId> hot_event_;
  std::vector<bool> stashed_;
  std::vector<EventId> candidates_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

TEST(ContextCacheTest, SeededReplayMatchesPlainColdestScan) {
  constexpr std::size_t kEvents = 300;
  TestSource source(kEvents, 3);
  ContextCache cache(&source, /*hot_budget=*/24);
  PlainCacheModel model(kEvents, 24);
  Pcg64 rng(2024);
  for (int round = 0; round < 400; ++round) {
    cache.BeginRound();
    model.BeginRound();
    // Skewed towards a popular band that drifts every 50 rounds, so
    // promotions and evictions keep happening.
    const std::size_t band = static_cast<std::size_t>(round / 50) * 37;
    const std::int64_t accesses = UniformInt(rng, 1, 40);
    for (std::int64_t i = 0; i < accesses; ++i) {
      const double u = UniformReal(rng, 0.0, 1.0);
      const auto v = static_cast<EventId>(
          (band + static_cast<std::size_t>(kEvents * u * u * u)) % kEvents);
      cache.Row(v);
      model.Access(v);
    }
    ASSERT_EQ(cache.hits(), model.hits()) << "round " << round;
    ASSERT_EQ(cache.misses(), model.misses()) << "round " << round;
    ASSERT_EQ(cache.evictions(), model.evictions()) << "round " << round;
    for (EventId v = 0; v < kEvents; ++v) {
      ASSERT_EQ(cache.IsHot(v), model.IsHot(v))
          << "round " << round << " event " << v;
    }
  }
  EXPECT_GT(cache.evictions(), 20);
}

}  // namespace
}  // namespace fasea
