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
#include "rng/pcg64.h"

namespace fasea {

struct EpsGreedyParams {
  double lambda = 1.0;   // Ridge regularizer λ.
  double epsilon = 0.1;  // Exploration probability ε ∈ [0, 1].
  LearnerConfig learner;  // Exact / epoch / sketch maintenance.
};

class EpsGreedyPolicy : public LinearPolicyBase {
 public:
  /// `rng` drives both the ε coin flips and the random arrangements.
  EpsGreedyPolicy(const ProblemInstance* instance,
                  const EpsGreedyParams& params, Pcg64 rng);

  std::string_view name() const override {
    return params_.epsilon == 0.0 ? "Exploit" : "eGreedy";
  }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  /// ε-mixture: (1−ε)·𝟙[A = greedy(θ̂)] + ε·P_random(A), the random mass
  /// Monte-Carlo estimated on a derived per-round stream (never the coin
  /// or oracle streams, so serving draws are untouched).
  double PropensityOf(std::int64_t t, const RoundContext& round,
                      const PlatformState& state,
                      const Arrangement& arrangement) override;

  /// Exploit (ε = 0) is a point mass on the greedy arrangement Propose
  /// served: 1.0 without re-scoring. eGreedy calls PropensityOf.
  double ServedPropensity(std::int64_t t, const RoundContext& round,
                          const PlatformState& state,
                          const Arrangement& served) override;

 protected:
  /// Each arrival's ε coin comes from a private stream derived from its
  /// ticket (the sequential coin stream is untouched). Exploitation rows
  /// carry the mean row; exploration rows are marked kRandom with
  /// availability-only scores — the serving layer resolves them through
  /// a ticket-seeded RandomOracle.
  RowResolve ScoreArrival(const LearnerView& view,
                          const SnapshotRound& arrival,
                          std::span<double> out) const override;

 private:
  EpsGreedyParams params_;
  Pcg64 coin_rng_;
  RandomOracle random_oracle_;
  std::uint64_t propensity_salt_;
  // Declared (and thus initialized) after propensity_salt_: its extra
  // draw from the constructor's rng parameter happens after every
  // pre-existing stream was derived, so adding it changed no sequential
  // behavior.
  std::uint64_t batch_salt_;
};

/// The pure-exploitation special case (ε = 0); needs no randomness.
std::unique_ptr<EpsGreedyPolicy> MakeExploitPolicy(
    const ProblemInstance* instance, double lambda,
    const LearnerConfig& learner = {});

}  // namespace fasea

#endif  // FASEA_CORE_EPS_GREEDY_POLICY_H_
