// Reference strategies that know the ground truth.
//
// OptPolicy — the paper's "OPT" for synthetic data: reads the true
// expected reward of every event from the FeedbackModel and runs
// Oracle-Greedy on them.
//
// FullKnowledgePolicy — the paper's "Full Knowledge" for the real
// dataset: the frozen feedbacks and fixed contexts make the optimal
// arrangement a constant, so it is computed once with the exact
// branch-and-bound oracle (max non-conflicting set of "Yes" events,
// capped at c_u) and replayed. Following §5.1, the arrangement is padded
// up to c_u with feasible "No" events so that its accept ratio is
// (max non-conflicting Yes-set)/c_u rather than a meaningless 1.
#ifndef FASEA_CORE_OPT_POLICY_H_
#define FASEA_CORE_OPT_POLICY_H_

#include <vector>

#include "core/policy.h"
#include "model/instance.h"
#include "model/round_provider.h"
#include "oracle/exact.h"
#include "oracle/greedy.h"

namespace fasea {

class OptPolicy final : public Policy {
 public:
  /// `instance` and `truth` must outlive the policy.
  OptPolicy(const ProblemInstance* instance, const FeedbackModel* truth)
      : instance_(instance), truth_(truth) {
    FASEA_CHECK(instance != nullptr && truth != nullptr);
  }

  std::string_view name() const override { return "OPT"; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  /// Greedy on the true rewards: what Propose served is a point mass.
  double ServedPropensity(std::int64_t, const RoundContext&,
                          const PlatformState&,
                          const Arrangement&) override {
    return 1.0;
  }

  void Learn(std::int64_t, const RoundContext&, const Arrangement&,
             const Feedback&) override {}

  /// OPT's estimates are the true expected rewards.
  void EstimateRewards(const ContextMatrix& contexts,
                       std::span<double> out) const override;

  std::size_t MemoryBytes() const override {
    return scores_.capacity() * sizeof(double);
  }

 private:
  const ProblemInstance* instance_;
  const FeedbackModel* truth_;
  GreedyOracle greedy_;
  std::vector<double> scores_;
  std::int64_t last_t_ = 0;
};

class FullKnowledgePolicy final : public Policy {
 public:
  /// `feedback_row[v]` is the user's frozen Yes/No answer to event v.
  FullKnowledgePolicy(const ProblemInstance* instance,
                      std::vector<std::uint8_t> feedback_row)
      : instance_(instance), row_(std::move(feedback_row)) {
    FASEA_CHECK(instance != nullptr);
    FASEA_CHECK(row_.size() == instance->num_events());
  }

  std::string_view name() const override { return "Full Knowledge"; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override;

  void Learn(std::int64_t, const RoundContext&, const Arrangement&,
             const Feedback&) override {}

  void EstimateRewards(const ContextMatrix& contexts,
                       std::span<double> out) const override;

  std::size_t MemoryBytes() const override {
    return row_.capacity() + cached_.capacity() * sizeof(EventId);
  }

 private:
  const ProblemInstance* instance_;
  std::vector<std::uint8_t> row_;
  Arrangement cached_;
  std::int64_t cached_capacity_ = -1;
};

}  // namespace fasea

#endif  // FASEA_CORE_OPT_POLICY_H_
