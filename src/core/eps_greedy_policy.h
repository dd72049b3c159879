// eGreedy and Exploit (Algorithm 4 and §4.1).
//
// eGreedy: with probability ε arrange a random feasible set of events
// (exploration); otherwise arrange greedily by the estimated expected
// rewards x ᵀ θ̂ (exploitation). Either way the feedbacks update Y and b.
//
// Exploit is the ε = 0 special case: pure exploitation. The paper shows
// it is strong on synthetic data but can lock into an all-rejected
// arrangement forever on the real dataset (u8 / u10 / u16), because with
// only 0-feedbacks and fixed contexts θ̂ never changes.
#ifndef FASEA_CORE_EPS_GREEDY_POLICY_H_
#define FASEA_CORE_EPS_GREEDY_POLICY_H_

#include <memory>

#include "core/linear_policy_base.h"
#include "oracle/random_oracle.h"

namespace fasea {

struct EpsGreedyParams {
  double lambda = 1.0;   // Ridge regularizer λ.
  double epsilon = 0.1;  // Exploration probability ε ∈ [0, 1].
  LearnerConfig learner;  // Exact / epoch / sketch maintenance.
};

class EpsGreedyPolicy : public LinearPolicyBase {
 public:
  /// `salt` keys the ε coin of round t, KeyedEngine(salt, "coin", t), and
  /// its random arrangement, drawn on ExplorationEngine(t).
  EpsGreedyPolicy(const ProblemInstance* instance,
                  const EpsGreedyParams& params, std::uint64_t salt);

  std::string_view name() const override {
    return params_.epsilon == 0.0 ? "Exploit" : "eGreedy";
  }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  /// ε-mixture: (1−ε)·𝟙[A = greedy(θ̂)] + ε·P_random(A), the random mass
  /// Monte-Carlo estimated on round t's "propensity" stream.
  double PropensityOf(std::int64_t t, const RoundContext& round,
                      const PlatformState& state,
                      const Arrangement& arrangement) override;

  /// Exploit (ε = 0) is a point mass on the greedy arrangement Propose
  /// served: 1.0 without re-scoring. eGreedy calls PropensityOf.
  double ServedPropensity(std::int64_t t, const RoundContext& round,
                          const PlatformState& state,
                          const Arrangement& served) override;

 protected:
  /// The ε coin Propose flips at t = ticket. Exploitation rows carry the
  /// mean row; exploration rows are marked kRandom with availability-only
  /// scores — the serving layer resolves them by a random selection on
  /// ExplorationEngine(ticket), as Propose does.
  RowResolve ScoreArrival(const LearnerView& view,
                          const SnapshotRound& arrival,
                          std::span<double> out) const override;

 private:
  /// Round `round`'s ε coin: true when it explores.
  bool Explores(std::int64_t round) const;

  EpsGreedyParams params_;
  RandomSelectScratch explore_scratch_;  // Propose's exploration buffers.
};

/// The pure-exploitation special case (ε = 0); needs no randomness.
std::unique_ptr<EpsGreedyPolicy> MakeExploitPolicy(
    const ProblemInstance* instance, double lambda,
    const LearnerConfig& learner = {});

}  // namespace fasea

#endif  // FASEA_CORE_EPS_GREEDY_POLICY_H_
