// PerUserPolicyBank: the Remark 1 extension of the paper.
//
// Instead of one shared θ, an individual θ is learned per user id, while
// the platform information (capacities, conflicts) stays shared: an
// accepted event consumes a seat for everyone. The bank lazily creates a
// per-user inner policy via a user-supplied factory and routes each round
// by round.user_id. The bank draws nothing itself; each inner policy keys
// its draws by its own salt and t.
#ifndef FASEA_CORE_PER_USER_POLICY_H_
#define FASEA_CORE_PER_USER_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/policy.h"

namespace fasea {

class PerUserPolicyBank final : public Policy {
 public:
  using Factory = std::function<std::unique_ptr<Policy>(std::int64_t user_id)>;

  explicit PerUserPolicyBank(Factory factory, std::string name = "PerUser")
      : factory_(std::move(factory)), name_(std::move(name)) {
    FASEA_CHECK(factory_ != nullptr);
  }

  std::string_view name() const override { return name_; }

  Arrangement Propose(std::int64_t t, const RoundContext& round,
                      const PlatformState& state) override {
    return PolicyFor(round.user_id).Propose(t, round, state);
  }

  void Learn(std::int64_t t, const RoundContext& round,
             const Arrangement& arrangement,
             const Feedback& feedback) override {
    PolicyFor(round.user_id).Learn(t, round, arrangement, feedback);
  }

  /// The propensity is the routed user's policy's own: the base point
  /// mass would be wrong for a stochastic inner policy.
  double PropensityOf(std::int64_t t, const RoundContext& round,
                      const PlatformState& state,
                      const Arrangement& arrangement) override {
    return PolicyFor(round.user_id).PropensityOf(t, round, state,
                                                 arrangement);
  }

  double ServedPropensity(std::int64_t t, const RoundContext& round,
                          const PlatformState& state,
                          const Arrangement& served) override {
    return PolicyFor(round.user_id).ServedPropensity(t, round, state, served);
  }

  /// Reports the estimates of the most recently routed user's policy
  /// (zeros before any round was routed).
  void EstimateRewards(const ContextMatrix& contexts,
                       std::span<double> out) const override;

  std::size_t MemoryBytes() const override;

  std::size_t num_users() const { return policies_.size(); }

  /// The inner policy of `user_id`, or nullptr if never routed.
  const Policy* UserPolicy(std::int64_t user_id) const;

 private:
  Policy& PolicyFor(std::int64_t user_id);

  Factory factory_;
  std::string name_;
  std::unordered_map<std::int64_t, std::unique_ptr<Policy>> policies_;
  std::int64_t last_user_id_ = -1;
};

}  // namespace fasea

#endif  // FASEA_CORE_PER_USER_POLICY_H_
