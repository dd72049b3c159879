#include "core/policy.h"

#include "oracle/random_oracle.h"

namespace fasea {

double Policy::PropensityOf(std::int64_t t, const RoundContext& round,
                            const PlatformState& state,
                            const Arrangement& arrangement) {
  // Point mass: valid only for the deterministic policies, whose Propose
  // draws nothing.
  return Propose(t, round, state) == arrangement ? 1.0 : 0.0;
}

double Policy::ServedPropensity(std::int64_t t, const RoundContext& round,
                                const PlatformState& state,
                                const Arrangement& served) {
  return PropensityOf(t, round, state, served);
}

double McRandomArrangementMass(Pcg64 rng, std::span<const double> scores,
                               const ConflictGraph& conflicts,
                               const PlatformState& state,
                               std::int64_t user_capacity,
                               const Arrangement& arrangement) {
  RandomOracle oracle(rng);
  int hits = 0;
  for (int k = 0; k < kPropensityMcDraws; ++k) {
    if (oracle.Select(scores, conflicts, state, user_capacity) ==
        arrangement) {
      ++hits;
    }
  }
  return (hits + 1.0) / (kPropensityMcDraws + 1.0);
}

void ApplyAvailabilityMask(const RoundContext& round,
                           std::span<double> scores) {
  if (round.available.empty()) return;
  FASEA_CHECK(round.available.size() == scores.size());
  for (std::size_t v = 0; v < scores.size(); ++v) {
    if (!round.available[v]) scores[v] = kExcludedScore;
  }
}

}  // namespace fasea
