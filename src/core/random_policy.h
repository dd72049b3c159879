// Random: the paper's weakest baseline (§5.1). Visits events in a random
// order and applies the same feasibility filter as Oracle-Greedy; never
// learns from feedback. Round t's order is keyed by (salt, "order", t).
#ifndef FASEA_CORE_RANDOM_POLICY_H_
#define FASEA_CORE_RANDOM_POLICY_H_

#include <vector>

#include "core/policy.h"
#include "model/instance.h"
#include "oracle/random_oracle.h"

namespace fasea {

class RandomPolicy final : public Policy {
 public:
  RandomPolicy(const ProblemInstance* instance, std::uint64_t salt);

  std::string_view name() const override { return "Random"; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  void Learn(std::int64_t, const RoundContext&, const Arrangement&,
             const Feedback&) override {}

  /// Random has no model: every event is estimated at zero.
  void EstimateRewards(const ContextMatrix& contexts,
                       std::span<double> out) const override;

  std::size_t MemoryBytes() const override {
    return scores_.capacity() * sizeof(double);
  }

  /// Monte-Carlo arrangement mass under the uniform feasibility-filtered
  /// oracle, on round t's "propensity" stream.
  double PropensityOf(std::int64_t t, const RoundContext& round,
                      const PlatformState& state,
                      const Arrangement& arrangement) override;

 private:
  /// Fills scores_ with the round's availability-only row.
  void MaskRow(const RoundContext& round);

  const ProblemInstance* instance_;
  const std::uint64_t salt_;
  std::vector<double> scores_;
  RandomSelectScratch scratch_;  // Propose's order and arranged set.
};

}  // namespace fasea

#endif  // FASEA_CORE_RANDOM_POLICY_H_
