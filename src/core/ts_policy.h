// TS: Thompson Sampling for FASEA (Algorithm 1 of the paper).
//
// Extends the Agrawal–Goyal linear-payoff Thompson sampler [1][2] to the
// contextual combinatorial setting. Each round:
//   1. θ̂_t = Y⁻¹ b                       (ridge estimate)
//   2. q   = R √(9 d ln(t/δ))             (posterior scale)
//   3. θ̃_t ~ N(θ̂_t, q² Y⁻¹)              (posterior sample)
//   4. r̂_{t,v} = x_{t,v}ᵀ θ̃_t             per event
//   5. A_t = Oracle-Greedy(r̂, CF, c_v, c_u)
// R = 1 under FASEA (rewards are 0/1, so r − xᵀθ ∈ [−1, 1] is 1-sub-
// Gaussian).
//
// The paper's headline empirical finding is that this sampler — strong
// under basic MAB — performs poorly under FASEA because the sampled θ̃
// perturbs the estimates of ALL events at once.
//
// Step 3 draws through a maintained Cholesky factor of Y, and TS is the
// only policy whose learner keeps one (LearnerReads::kPosterior): its
// rank-1 updates, re-derivations and snapshot copies are TS's cost alone.
#ifndef FASEA_CORE_TS_POLICY_H_
#define FASEA_CORE_TS_POLICY_H_

#include "core/linear_policy_base.h"
#include "linalg/vector.h"

namespace fasea {

struct TsParams {
  double lambda = 1.0;  // Ridge regularizer λ.
  double delta = 0.1;   // Confidence parameter δ.
  double r_scale = 1.0; // Sub-Gaussian scale R (1 under FASEA).
  LearnerConfig learner;  // Exact / epoch / sketch maintenance.
};

class TsPolicy final : public LinearPolicyBase {
 public:
  /// `instance` must outlive the policy; `salt` keys its posterior draws:
  /// round t samples θ̃ from KeyedEngine(salt, "theta", t).
  TsPolicy(const ProblemInstance* instance, const TsParams& params,
           std::uint64_t salt);

  std::string_view name() const override { return "TS"; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  /// Sample-count Monte-Carlo estimate: the fraction of fresh posterior
  /// draws θ̃ ~ N(θ̂, q² Y⁻¹) whose greedy arrangement equals the action
  /// (Laplace-smoothed), on round t's "propensity" stream; the cached
  /// `sampled_theta_` is never touched. Degrades to the θ̃ = θ̂ point mass
  /// exactly when Propose would.
  double PropensityOf(std::int64_t t, const RoundContext& round,
                      const PlatformState& state,
                      const Arrangement& arrangement) override;

  /// TS's per-round reward estimate is x ᵀ θ̃ with the *sampled* θ̃ — the
  /// source of the ranking noise Figure 2 visualizes.
  void EstimateRewards(const ContextMatrix& contexts,
                       std::span<double> out) const override;

  /// Most recent posterior sample θ̃_t (zeros before the first round).
  const Vector& SampledTheta() const { return sampled_theta_; }

  /// Rounds that could not sample (no usable Cholesky factor of Y) and
  /// fell back to the degraded θ̃ = θ̂ proposal.
  std::int64_t num_degraded_samples() const { return num_degraded_samples_; }

 protected:
  /// The posterior draw Propose makes at t = ticket, against `view`: the
  /// ticket keys θ̃ and is the round index of the posterior scale.
  RowResolve ScoreArrival(const LearnerView& view,
                          const SnapshotRound& arrival,
                          std::span<double> out) const override;

 private:
  /// TS's scoring routine: draws θ̃ ~ N(θ̂, q²·Y⁻¹) from `view` on `rng`,
  /// with q the posterior scale at round `t`, into `theta`, then scores
  /// every row of `contexts` with x ᵀ θ̃, masked. A view without a usable
  /// factor (Y corrupt / not SPD) yields θ̃ = θ̂ — the round degrades to
  /// Exploit instead of aborting — and returns false. `trace` records the
  /// policy.sample_theta and policy.score spans of a served round.
  bool ScorePosteriorDraw(const LearnerView& view, Pcg64& rng,
                          std::int64_t t, const RoundContext& round,
                          const ContextMatrix& contexts, Vector* theta,
                          std::span<double> out, bool trace) const;

  TsParams params_;
  Vector sampled_theta_;
  std::int64_t num_degraded_samples_ = 0;
  Counter* sample_factor_failures_metric_ =
      Metrics()->GetCounter("fasea.policy.sample_factor_failures");
};

}  // namespace fasea

#endif  // FASEA_CORE_TS_POLICY_H_
