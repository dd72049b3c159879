#include "core/per_user_policy.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/eps_greedy_policy.h"
#include "core/policy_factory.h"
#include "oracle/oracle.h"
#include "rng/pcg64.h"

namespace fasea {
namespace {

ProblemInstance MakeInstance(std::size_t n, std::size_t d) {
  auto inst = ProblemInstance::Create(std::vector<std::int64_t>(n, 100),
                                      ConflictGraph(n), d);
  FASEA_CHECK(inst.ok());
  return std::move(inst).value();
}

RoundContext MakeRound(std::size_t n, std::size_t d, std::int64_t cu,
                       std::int64_t user_id) {
  RoundContext round;
  round.contexts = ContextMatrix(n, d);
  for (std::size_t v = 0; v < n; ++v) {
    round.contexts(v, v % d) = 0.5 + 0.01 * static_cast<double>(v);
  }
  round.user_capacity = cu;
  round.user_id = user_id;
  return round;
}

TEST(PerUserPolicyBankTest, CreatesOnePolicyPerUser) {
  const ProblemInstance inst = MakeInstance(6, 3);
  PolicyParams params;
  PerUserPolicyBank bank([&](std::int64_t user_id) {
    return MakePolicy(PolicyKind::kUcb, &inst, params,
                      static_cast<std::uint64_t>(user_id));
  });
  PlatformState state(inst);
  EXPECT_EQ(bank.num_users(), 0u);
  for (std::int64_t user = 0; user < 4; ++user) {
    const RoundContext round = MakeRound(6, 3, 2, user);
    const Arrangement a = bank.Propose(1, round, state);
    bank.Learn(1, round, a, Feedback(a.size(), 1));
  }
  EXPECT_EQ(bank.num_users(), 4u);
  EXPECT_NE(bank.UserPolicy(0), nullptr);
  EXPECT_NE(bank.UserPolicy(3), nullptr);
  EXPECT_EQ(bank.UserPolicy(9), nullptr);
}

TEST(PerUserPolicyBankTest, ReusesExistingPolicy) {
  const ProblemInstance inst = MakeInstance(4, 2);
  PolicyParams params;
  PerUserPolicyBank bank([&](std::int64_t) {
    return MakePolicy(PolicyKind::kExploit, &inst, params, 0);
  });
  PlatformState state(inst);
  const RoundContext round = MakeRound(4, 2, 1, 7);
  bank.Propose(1, round, state);
  const Policy* first = bank.UserPolicy(7);
  bank.Propose(2, round, state);
  EXPECT_EQ(bank.UserPolicy(7), first);
  EXPECT_EQ(bank.num_users(), 1u);
}

TEST(PerUserPolicyBankTest, LearningIsIsolatedPerUser) {
  const ProblemInstance inst = MakeInstance(2, 2);
  PolicyParams params;
  PerUserPolicyBank bank([&](std::int64_t) {
    return MakePolicy(PolicyKind::kExploit, &inst, params, 0);
  });
  PlatformState state(inst);
  // User 0 learns event 0 is great.
  RoundContext r0 = MakeRound(2, 2, 1, 0);
  for (int t = 1; t <= 20; ++t) {
    bank.Learn(t, r0, {0}, Feedback{1});
  }
  // User 1's model is untouched: its estimates are still all zero.
  RoundContext r1 = MakeRound(2, 2, 1, 1);
  PlatformState fresh(inst);
  bank.Propose(1, r1, fresh);
  std::vector<double> est(2);
  bank.EstimateRewards(r1.contexts, est);
  EXPECT_EQ(est[0], 0.0);
  EXPECT_EQ(est[1], 0.0);
  // Route back to user 0: estimates reflect its training.
  bank.Propose(2, r0, fresh);
  bank.EstimateRewards(r0.contexts, est);
  EXPECT_GT(est[0], 0.0);
}

TEST(PerUserPolicyBankTest, SharedPlatformStateAcrossUsers) {
  // Remark 1: capacities are shared — user 0 exhausting an event removes
  // it for user 1.
  auto inst = ProblemInstance::Create({1, 100}, ConflictGraph(2), 2);
  ASSERT_TRUE(inst.ok());
  PolicyParams params;
  PerUserPolicyBank bank([&](std::int64_t) {
    return MakePolicy(PolicyKind::kUcb, &inst.value(), params, 0);
  });
  PlatformState state(*inst);
  state.ConsumeOne(0);  // User 0 accepted event 0; now full.
  const RoundContext round = MakeRound(2, 2, 2, 1);
  const Arrangement a = bank.Propose(1, round, state);
  EXPECT_EQ(a, (Arrangement{1}));
}

TEST(PerUserPolicyBankTest, MemoryGrowsWithUsers) {
  const ProblemInstance inst = MakeInstance(4, 8);
  PolicyParams params;
  PerUserPolicyBank bank([&](std::int64_t) {
    return MakePolicy(PolicyKind::kUcb, &inst, params, 0);
  });
  PlatformState state(inst);
  bank.Propose(1, MakeRound(4, 8, 1, 0), state);
  const std::size_t one_user = bank.MemoryBytes();
  for (std::int64_t u = 1; u < 5; ++u) {
    bank.Propose(1, MakeRound(4, 8, 1, u), state);
  }
  EXPECT_GT(bank.MemoryBytes(), 3 * one_user);
}

TEST(PerUserPolicyBankTest, EstimateBeforeAnyRoundIsZero) {
  const ProblemInstance inst = MakeInstance(3, 2);
  PolicyParams params;
  PerUserPolicyBank bank([&](std::int64_t) {
    return MakePolicy(PolicyKind::kUcb, &inst, params, 0);
  });
  std::vector<double> est(3, 99.0);
  bank.EstimateRewards(ContextMatrix(3, 2), est);
  for (double e : est) EXPECT_EQ(e, 0.0);
}

// A fresh round per step, so proposals depend on the round's draws and
// not only on learner state.
RoundContext RandomRound(Pcg64& rng, std::size_t n, std::size_t d,
                         std::int64_t cu, std::int64_t user_id) {
  RoundContext round;
  round.contexts = ContextMatrix(n, d);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < d; ++j) round.contexts(v, j) = rng.NextDouble();
  }
  round.user_capacity = cu;
  round.user_id = user_id;
  return round;
}

Feedback AcceptHighFirstFeature(const RoundContext& round,
                                const Arrangement& arrangement) {
  Feedback feedback;
  for (EventId v : arrangement) {
    feedback.push_back(round.contexts(v, 0) > 0.5 ? 1 : 0);
  }
  return feedback;
}

struct PropensityProbe {
  int diverged_proposals = 0;    // Bank vs a twin bank never asked.
  int foreign_propensities = 0;  // Bank vs the inner policy's own value.
};

// 200 rounds over 3 users (12 events, d = 3, c_u = 3). After each
// Propose the bank is asked for the served arrangement's propensity; a
// twin bank never is, and standalone copies of the inner policies give
// the propensity each inner policy reports itself.
PropensityProbe ProbeBankPropensity(PolicyKind kind,
                                    const PolicyParams& params) {
  const ProblemInstance inst = MakeInstance(12, 3);
  const auto factory = [&](std::int64_t user_id) {
    return MakePolicy(kind, &inst, params,
                      100 + static_cast<std::uint64_t>(user_id));
  };
  PerUserPolicyBank bank(factory);
  PerUserPolicyBank twin(factory);
  std::map<std::int64_t, std::unique_ptr<Policy>> solo;
  PlatformState state(inst);
  Pcg64 rng(99);
  PropensityProbe probe;
  for (std::int64_t t = 1; t <= 200; ++t) {
    const std::int64_t user = t % 3;
    const RoundContext round = RandomRound(rng, 12, 3, 3, user);
    std::unique_ptr<Policy>& own = solo[user];
    if (own == nullptr) own = factory(user);

    const Arrangement served = bank.Propose(t, round, state);
    const Arrangement twin_served = twin.Propose(t, round, state);
    const Arrangement own_served = own->Propose(t, round, state);
    if (twin_served != served) ++probe.diverged_proposals;
    if (bank.PropensityOf(t, round, state, served) !=
        own->PropensityOf(t, round, state, served)) {
      ++probe.foreign_propensities;
    }
    bank.Learn(t, round, served, AcceptHighFirstFeature(round, served));
    twin.Learn(t, round, twin_served,
               AcceptHighFirstFeature(round, twin_served));
    own->Learn(t, round, own_served, AcceptHighFirstFeature(round, own_served));
  }
  return probe;
}

TEST(PerUserPolicyBankTest, PropensityIsTheInnerPolicysAndDrawsNothing) {
  PolicyParams params;
  params.epsilon = 0.3;
  for (PolicyKind kind : {PolicyKind::kTs, PolicyKind::kEpsGreedy}) {
    const PropensityProbe probe = ProbeBankPropensity(kind, params);
    EXPECT_EQ(probe.diverged_proposals, 0) << PolicyKindName(kind);
    EXPECT_EQ(probe.foreign_propensities, 0) << PolicyKindName(kind);
  }
}

TEST(PerUserPolicyBankDeathTest, NullFactoryAborts) {
  EXPECT_DEATH(PerUserPolicyBank(nullptr), "FASEA_CHECK");
}

}  // namespace
}  // namespace fasea
