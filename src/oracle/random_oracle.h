// RandomOracle: visits events in a uniformly random order and applies the
// same feasibility filter as Oracle-Greedy (lines 3-5 of Algorithm 2).
// This is both the paper's Random baseline and the exploration move of
// eGreedy (Algorithm 4 line 7).
//
// SelectRandom is the selection itself, over a caller's engine and
// caller-owned scratch, so a policy that draws one arrangement per round
// from a fresh keyed engine reuses its buffers instead of building an
// oracle (and allocating |V|-sized state) every round. RandomOracle wraps
// it with its own engine and scratch for the ArrangementOracle interface.
#ifndef FASEA_ORACLE_RANDOM_ORACLE_H_
#define FASEA_ORACLE_RANDOM_ORACLE_H_

#include <vector>

#include "oracle/oracle.h"
#include "rng/pcg64.h"

namespace fasea {

/// Buffers SelectRandom reuses across calls; sized on first use.
struct RandomSelectScratch {
  std::vector<EventId> order;
  EventBitset arranged;
};

/// One random arrangement: shuffles the visit order with `rng` (advancing
/// it), then keeps each event that is not excluded (−∞ score), has
/// capacity and conflicts with nothing kept, up to `user_capacity`.
/// Scores are ignored except for their count and exclusions.
Arrangement SelectRandom(Pcg64& rng, std::span<const double> scores,
                         const ConflictGraph& conflicts,
                         const PlatformState& state,
                         std::int64_t user_capacity,
                         RandomSelectScratch* scratch);

class RandomOracle final : public ArrangementOracle {
 public:
  explicit RandomOracle(Pcg64 rng) : rng_(rng) {}

  /// SelectRandom on the oracle's engine: successive calls draw
  /// successive orders.
  Arrangement Select(std::span<const double> scores,
                     const ConflictGraph& conflicts,
                     const PlatformState& state,
                     std::int64_t user_capacity) override {
    return SelectRandom(rng_, scores, conflicts, state, user_capacity,
                        &scratch_);
  }

  std::string_view name() const override { return "Random"; }

 private:
  Pcg64 rng_;
  RandomSelectScratch scratch_;
};

}  // namespace fasea

#endif  // FASEA_ORACLE_RANDOM_ORACLE_H_
