#include "core/random_policy.h"

#include <algorithm>

#include "rng/seed.h"

namespace fasea {

RandomPolicy::RandomPolicy(const ProblemInstance* instance,
                           std::uint64_t salt)
    : instance_(instance), salt_(salt) {
  FASEA_CHECK(instance != nullptr);
}

void RandomPolicy::MaskRow(const RoundContext& round) {
  // Context-free: only the availability mask matters, so lazy rounds
  // (empty contexts) still score the full event set.
  scores_.resize(round.IsLazy() ? instance_->num_events()
                                : round.contexts.rows());
  std::fill(scores_.begin(), scores_.end(), 0.0);
  ApplyAvailabilityMask(round, scores_);
}

Arrangement RandomPolicy::Propose(std::int64_t t, const RoundContext& round,
                                  const PlatformState& state) {
  MaskRow(round);
  Pcg64 rng = KeyedEngine(salt_, "order", t);
  return SelectRandom(rng, scores_, instance_->conflicts(), state,
                      round.user_capacity, &scratch_);
}

double RandomPolicy::PropensityOf(std::int64_t t, const RoundContext& round,
                                  const PlatformState& state,
                                  const Arrangement& arrangement) {
  MaskRow(round);
  return McRandomArrangementMass(KeyedEngine(salt_, "propensity", t),
                                 scores_, instance_->conflicts(), state,
                                 round.user_capacity, arrangement);
}

void RandomPolicy::EstimateRewards(const ContextMatrix& contexts,
                                   std::span<double> out) const {
  FASEA_CHECK(out.size() == contexts.rows());
  std::fill(out.begin(), out.end(), 0.0);
}

}  // namespace fasea
