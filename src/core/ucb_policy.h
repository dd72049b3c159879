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

  /// Batched UCB over a snapshot: per user, a GEMV for the predictions
  /// and the width kernel against the snapshot's precomputed (Y⁻¹)ᵀ,
  /// written straight into that user's score row, then the same
  /// per-event combine as Propose — bit-identical to scoring each user
  /// alone against that learner state.
  void ScoreBatchSnapshot(const LearnerSnapshot& snapshot,
                          std::span<const SnapshotRound> rows,
                          Matrix* scores,
                          std::span<RowResolve> resolve) const override;

  /// The upper confidence bound r̂ of one context under the current state
  /// (exposed for tests of the bound's shrinking behaviour).
  double UpperConfidenceBound(std::span<const double> x) const;

 private:
  UcbParams params_;
  // Per-round scratch for the batched kernels (sized lazily, reused).
  std::vector<double> pred_;
  std::vector<double> width_;
};

}  // namespace fasea

#endif  // FASEA_CORE_UCB_POLICY_H_
