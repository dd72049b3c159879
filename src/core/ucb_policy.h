// UCB: the C²UCB-style upper-confidence-bound policy (Algorithm 3),
// adapting [36] (contextual combinatorial bandit) built on LinUCB [26][13].
//
// Each round:
//   θ̂_t = Y⁻¹ b
//   r̃_{t,v} = x_{t,v}ᵀ θ̂_t
//   r̂_{t,v} = r̃_{t,v} + α √(x_{t,v}ᵀ Y⁻¹ x_{t,v})
//   A_t = Oracle-Greedy(r̂, CF, c_v, c_u)
//
// The α√(xᵀY⁻¹x) bonus is the concentration-inequality width [48][26]:
// under-explored directions keep large widths, so UCB can escape the
// all-zero-feedback lock-in that traps Exploit on the real dataset.
#ifndef FASEA_CORE_UCB_POLICY_H_
#define FASEA_CORE_UCB_POLICY_H_

#include "core/linear_policy_base.h"

namespace fasea {

struct UcbParams {
  double lambda = 1.0;  // Ridge regularizer λ.
  double alpha = 2.0;   // Exploration weight α.
  LearnerConfig learner;  // Exact / epoch / sketch maintenance.
};

class UcbPolicy final : public LinearPolicyBase {
 public:
  UcbPolicy(const ProblemInstance* instance, const UcbParams& params);

  std::string_view name() const override { return "UCB"; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  /// Propose consumes no randomness: what it served is a point mass.
  double ServedPropensity(std::int64_t, const RoundContext&,
                          const PlatformState&,
                          const Arrangement&) override {
    return 1.0;
  }

  /// The upper confidence bound r̂ of one context under the current state
  /// — the per-event reference the scoring tests compare rows against.
  double UpperConfidenceBound(std::span<const double> x) const;

 protected:
  RowResolve ScoreArrival(const LearnerView& view,
                          const SnapshotRound& arrival,
                          std::span<double> out) const override;

 private:
  /// UCB's scoring routine: r̂ = x ᵀ θ̂ + α·√(xᵀY⁻¹x) under `view` for
  /// every event of the round (one GEMV, one width-kernel call, then the
  /// per-event combine of UpperConfidenceBound), masked. `width` is
  /// scratch.
  void ScoreUpperBounds(const LearnerView& view, const RoundContext& round,
                        std::vector<double>* width,
                        std::span<double> out) const;

  UcbParams params_;
  std::vector<double> width_;  // Per-round scratch, reused.
};

}  // namespace fasea

#endif  // FASEA_CORE_UCB_POLICY_H_
