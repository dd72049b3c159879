// Boltzmann (softmax) exploration for FASEA.
//
// Not one of the paper's five algorithms: a genuinely stochastic behavior
// policy whose action probabilities are known in CLOSED FORM, added so the
// decision log has a propensity worth recording and the offline IPS/DR
// replay has an exactly-computable behavior policy to divide by (the
// RlMarket-style policy-zoo explorer named in ROADMAP).
//
// Propose builds the arrangement by sequential sampling without
// replacement: at each position it draws one event from the softmax
// distribution exp(xᵀθ̂ / τ) restricted to the currently feasible set
// (available, non-full, non-conflicting with the prefix, not yet chosen),
// until the user capacity is reached or nothing remains feasible. τ → 0
// approaches Exploit's greedy; large τ approaches the Random baseline.
// Round t's draws come from KeyedEngine(salt, "softmax", t).
//
// PropensityOf is exact — the product of the per-position conditional
// softmax probabilities — no Monte-Carlo estimate involved.
#ifndef FASEA_CORE_BOLTZMANN_POLICY_H_
#define FASEA_CORE_BOLTZMANN_POLICY_H_

#include <vector>

#include "core/linear_policy_base.h"

namespace fasea {

struct BoltzmannParams {
  double lambda = 1.0;       // Ridge regularizer λ.
  double temperature = 0.2;  // Softmax temperature τ > 0.
  LearnerConfig learner;  // Exact / epoch / sketch maintenance.
};

class BoltzmannPolicy final : public LinearPolicyBase {
 public:
  /// `salt` keys the per-position softmax draws; `instance` must outlive
  /// the policy.
  BoltzmannPolicy(const ProblemInstance* instance,
                  const BoltzmannParams& params, std::uint64_t salt);

  std::string_view name() const override { return "Boltzmann"; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  /// Exact sequential-softmax mass of `arrangement`: Π_i P(v_i | v_<i).
  /// Zero if the arrangement is inconsistent with Propose's fill-until-
  /// blocked semantics (an infeasible pick, or stopping early while a
  /// feasible event remained).
  double PropensityOf(std::int64_t t, const RoundContext& round,
                      const PlatformState& state,
                      const Arrangement& arrangement) override;

 private:
  /// Scores the round with the mean row x ᵀ θ̂ (the softmax logits
  /// before the temperature) and returns the score span.
  std::span<double> ScoreRound(const RoundContext& round);

  /// Collects the events feasible at the current position into feasible_
  /// and their softmax weights (max-subtracted for stability) into
  /// weights_; returns the total weight.
  double FeasibleSoftmax(std::span<const double> scores,
                         const PlatformState& state);

  BoltzmannParams params_;
  // Per-position scratch: membership + conflict state of the prefix.
  std::vector<std::uint8_t> picked_;
  EventBitset chosen_;
  std::vector<EventId> feasible_;
  std::vector<double> weights_;
};

}  // namespace fasea

#endif  // FASEA_CORE_BOLTZMANN_POLICY_H_
