#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/eps_greedy_policy.h"
#include "core/opt_policy.h"
#include "core/per_user_policy.h"
#include "core/policy_factory.h"
#include "core/random_policy.h"
#include "core/ts_policy.h"
#include "core/ucb_policy.h"
#include "datagen/real_surrogate.h"
#include "oracle/oracle.h"
#include "rng/seed.h"

namespace fasea {
namespace {

struct Fixture {
  ProblemInstance instance;
  RoundContext round;

  static Fixture Make(std::size_t n, std::size_t d, std::int64_t cu,
                      std::vector<std::pair<int, int>> conflicts = {},
                      std::int64_t cap = 100) {
    ConflictGraph g(n);
    for (auto [a, b] : conflicts) g.AddConflict(a, b);
    auto inst = ProblemInstance::Create(
        std::vector<std::int64_t>(n, cap), std::move(g), d);
    FASEA_CHECK(inst.ok());
    Fixture f{std::move(inst).value(), {}};
    f.round.contexts = ContextMatrix(n, d);
    Pcg64 rng(1234);
    for (std::size_t v = 0; v < n; ++v) {
      double norm_sq = 0;
      for (std::size_t j = 0; j < d; ++j) {
        f.round.contexts(v, j) = rng.NextDouble();
        norm_sq += f.round.contexts(v, j) * f.round.contexts(v, j);
      }
      for (std::size_t j = 0; j < d; ++j) {
        f.round.contexts(v, j) /= std::sqrt(norm_sq);
      }
    }
    f.round.user_capacity = cu;
    return f;
  }
};

Feedback AllZero(std::size_t n) { return Feedback(n, 0); }
Feedback AllOne(std::size_t n) { return Feedback(n, 1); }

TEST(UcbPolicyTest, ProposesFeasibleArrangements) {
  Fixture f = Fixture::Make(10, 4, 3, {{0, 1}, {2, 3}});
  UcbPolicy ucb(&f.instance, UcbParams{});
  PlatformState state(f.instance);
  for (std::int64_t t = 1; t <= 20; ++t) {
    const Arrangement a = ucb.Propose(t, f.round, state);
    EXPECT_TRUE(IsFeasibleArrangement(a, f.instance.conflicts(), state, 3));
    EXPECT_EQ(a.size(), 3u);  // Plenty of non-conflicting events.
    ucb.Learn(t, f.round, a, AllZero(a.size()));
  }
}

TEST(UcbPolicyTest, BonusShrinksWithObservations) {
  Fixture f = Fixture::Make(4, 3, 1);
  UcbPolicy ucb(&f.instance, UcbParams{.lambda = 1.0, .alpha = 2.0});
  const auto x = f.round.contexts.Row(0);
  const double before = ucb.UpperConfidenceBound(x);
  PlatformState state(f.instance);
  for (std::int64_t t = 1; t <= 30; ++t) {
    ucb.Learn(t, f.round, {0}, AllZero(1));
  }
  // All-zero feedback: prediction stays ~0 but the bound must shrink.
  EXPECT_LT(ucb.UpperConfidenceBound(x), before);
}

TEST(UcbPolicyTest, EscapesAllZeroLockIn) {
  // With frozen all-zero feedback on the arranged set, UCB must rotate to
  // other events (the paper's key advantage over Exploit).
  Fixture f = Fixture::Make(8, 4, 2);
  UcbPolicy ucb(&f.instance, UcbParams{});
  PlatformState state(f.instance);
  std::set<EventId> proposed;
  const Arrangement first = ucb.Propose(1, f.round, state);
  bool changed = false;
  for (std::int64_t t = 1; t <= 60; ++t) {
    const Arrangement a = ucb.Propose(t, f.round, state);
    for (EventId v : a) proposed.insert(v);
    changed |= (a != first);
    ucb.Learn(t, f.round, a, AllZero(a.size()));
  }
  // Unlike Exploit, the shrinking confidence bound rotates the arranged
  // set. (It need not visit every event: observing one context also
  // shrinks the width of correlated contexts.)
  EXPECT_TRUE(changed) << "UCB repeated the identical rejected arrangement";
  EXPECT_GT(proposed.size(), 2u);
}

TEST(UcbPolicyTest, AlphaZeroIsPureExploitation) {
  Fixture f = Fixture::Make(6, 3, 2);
  UcbPolicy ucb(&f.instance, UcbParams{.lambda = 1.0, .alpha = 0.0});
  PlatformState state(f.instance);
  const Arrangement first = ucb.Propose(1, f.round, state);
  ucb.Learn(1, f.round, first, AllZero(first.size()));
  // θ̂ stays 0 ⇒ same scores ⇒ same arrangement forever.
  EXPECT_EQ(ucb.Propose(2, f.round, state), first);
}

TEST(TsPolicyTest, ProposesFeasibleAndLearns) {
  Fixture f = Fixture::Make(10, 4, 3, {{0, 5}});
  TsPolicy ts(&f.instance, TsParams{}, /*salt=*/7);
  PlatformState state(f.instance);
  for (std::int64_t t = 1; t <= 20; ++t) {
    const Arrangement a = ts.Propose(t, f.round, state);
    EXPECT_TRUE(IsFeasibleArrangement(a, f.instance.conflicts(), state, 3));
    ts.Learn(t, f.round, a, AllOne(a.size()));
  }
  EXPECT_EQ(ts.ridge().num_observations(), 60);
}

TEST(TsPolicyTest, SamplingIsStochastic) {
  Fixture f = Fixture::Make(12, 6, 1);
  TsPolicy ts(&f.instance, TsParams{}, /*salt=*/7);
  PlatformState state(f.instance);
  std::set<EventId> proposed;
  for (std::int64_t t = 1; t <= 40; ++t) {
    const Arrangement a = ts.Propose(t, f.round, state);
    ASSERT_EQ(a.size(), 1u);
    proposed.insert(a[0]);
    // No learning: diversity must come from θ̃ sampling alone.
  }
  EXPECT_GT(proposed.size(), 3u);
}

TEST(TsPolicyTest, DeterministicGivenSeed) {
  Fixture f = Fixture::Make(8, 4, 2);
  TsPolicy a(&f.instance, TsParams{}, /*salt=*/42);
  TsPolicy b(&f.instance, TsParams{}, /*salt=*/42);
  PlatformState state(f.instance);
  for (std::int64_t t = 1; t <= 10; ++t) {
    const Arrangement aa = a.Propose(t, f.round, state);
    const Arrangement ab = b.Propose(t, f.round, state);
    EXPECT_EQ(aa, ab);
    a.Learn(t, f.round, aa, AllZero(aa.size()));
    b.Learn(t, f.round, ab, AllZero(ab.size()));
  }
}

TEST(TsPolicyTest, EstimateRewardsUsesSampledTheta) {
  Fixture f = Fixture::Make(5, 3, 1);
  TsPolicy ts(&f.instance, TsParams{}, /*salt=*/9);
  PlatformState state(f.instance);
  ts.Propose(1, f.round, state);
  std::vector<double> est(5);
  ts.EstimateRewards(f.round.contexts, est);
  for (std::size_t v = 0; v < 5; ++v) {
    EXPECT_NEAR(est[v],
                Dot(f.round.contexts.Row(v), ts.SampledTheta().span()),
                1e-12);
  }
}

TEST(EpsGreedyPolicyTest, EpsilonOneAlwaysExplores) {
  Fixture f = Fixture::Make(20, 4, 2);
  EpsGreedyPolicy eg(&f.instance, EpsGreedyParams{.lambda = 1.0,
                                                  .epsilon = 1.0},
                     /*salt=*/3);
  PlatformState state(f.instance);
  std::set<EventId> proposed;
  for (std::int64_t t = 1; t <= 100; ++t) {
    for (EventId v : eg.Propose(t, f.round, state)) proposed.insert(v);
  }
  EXPECT_GT(proposed.size(), 15u);  // Random exploration covers events.
}

TEST(EpsGreedyPolicyTest, EpsilonZeroIsExploit) {
  Fixture f = Fixture::Make(6, 3, 2);
  auto exploit = MakeExploitPolicy(&f.instance, 1.0);
  EXPECT_EQ(exploit->name(), "Exploit");
  PlatformState state(f.instance);
  const Arrangement first = exploit->Propose(1, f.round, state);
  exploit->Learn(1, f.round, first, AllZero(first.size()));
  EXPECT_EQ(exploit->Propose(2, f.round, state), first);
}

TEST(EpsGreedyPolicyTest, ExploitLockInOnFrozenZeroFeedback) {
  // The pathology the paper reports for u8/u10/u16: all-zero feedback on
  // a fixed context matrix keeps θ̂ = 0 so Exploit repeats the identical
  // (rejected) arrangement forever.
  Fixture f = Fixture::Make(10, 4, 3);
  auto exploit = MakeExploitPolicy(&f.instance, 1.0);
  PlatformState state(f.instance);
  const Arrangement first = exploit->Propose(1, f.round, state);
  for (std::int64_t t = 1; t <= 50; ++t) {
    const Arrangement a = exploit->Propose(t, f.round, state);
    EXPECT_EQ(a, first);
    exploit->Learn(t, f.round, a, AllZero(a.size()));
  }
}

TEST(EpsGreedyPolicyTest, EGreedyEscapesLockInEventually) {
  Fixture f = Fixture::Make(10, 4, 3);
  EpsGreedyPolicy eg(&f.instance, EpsGreedyParams{.lambda = 1.0,
                                                  .epsilon = 0.2},
                     /*salt=*/5);
  PlatformState state(f.instance);
  std::set<EventId> proposed;
  for (std::int64_t t = 1; t <= 200; ++t) {
    const Arrangement a = eg.Propose(t, f.round, state);
    for (EventId v : a) proposed.insert(v);
    eg.Learn(t, f.round, a, AllZero(a.size()));
  }
  EXPECT_EQ(proposed.size(), 10u);
}

TEST(EpsGreedyPolicyTest, ExplorationFrequencyNearEpsilon) {
  // With 2 events and frozen estimates preferring event 0, exploration
  // rounds are identifiable when event 1 is ranked first.
  Fixture f = Fixture::Make(2, 2, 1);
  // Give event 0 a strictly better estimate via one training round.
  EpsGreedyPolicy eg(&f.instance, EpsGreedyParams{.lambda = 1.0,
                                                  .epsilon = 0.3},
                     /*salt=*/11);
  PlatformState state(f.instance);
  eg.Learn(0, f.round, {0}, AllOne(1));
  int explored = 0;
  const int kRounds = 20000;
  for (int t = 1; t <= kRounds; ++t) {
    const Arrangement a = eg.Propose(t, f.round, state);
    explored += (a[0] == 1);
  }
  // Exploration picks event 1 first half the time: rate ≈ ε/2.
  EXPECT_NEAR(static_cast<double>(explored) / kRounds, 0.15, 0.02);
}

TEST(RandomPolicyTest, UniformCoverageAndNoLearning) {
  Fixture f = Fixture::Make(10, 3, 1);
  RandomPolicy random(&f.instance, /*salt=*/2);
  PlatformState state(f.instance);
  std::vector<int> counts(10, 0);
  const int kRounds = 10000;
  for (int t = 1; t <= kRounds; ++t) {
    const Arrangement a = random.Propose(t, f.round, state);
    ASSERT_EQ(a.size(), 1u);
    ++counts[a[0]];
    random.Learn(t, f.round, a, AllOne(1));
  }
  for (int c : counts) EXPECT_NEAR(c, kRounds / 10, 200);
  std::vector<double> est(10);
  random.EstimateRewards(f.round.contexts, est);
  for (double e : est) EXPECT_EQ(e, 0.0);
}

TEST(OptPolicyTest, ArrangesTrueBestEvents) {
  Fixture f = Fixture::Make(6, 3, 2);
  Vector theta(3);
  theta[0] = 1.0;
  LinearFeedbackModel truth(theta);
  OptPolicy opt(&f.instance, &truth);
  PlatformState state(f.instance);
  const Arrangement a = opt.Propose(1, f.round, state);
  ASSERT_EQ(a.size(), 2u);
  // The two events with largest first coordinate win.
  std::vector<std::size_t> order(6);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return f.round.contexts(i, 0) > f.round.contexts(j, 0);
  });
  EXPECT_EQ(a[0], order[0]);
  EXPECT_EQ(a[1], order[1]);
}

TEST(PolicyAvailabilityTest, MaskedEventsNeverArranged) {
  Fixture f = Fixture::Make(6, 3, 6);
  f.round.available = {1, 0, 1, 0, 1, 0};
  PolicyParams params;
  for (PolicyKind kind : AllPolicyKinds()) {
    auto policy = MakePolicy(kind, &f.instance, params, 99);
    PlatformState state(f.instance);
    for (std::int64_t t = 1; t <= 10; ++t) {
      const Arrangement a = policy->Propose(t, f.round, state);
      for (EventId v : a) {
        EXPECT_TRUE(f.round.IsAvailable(v))
            << PolicyKindName(kind) << " arranged masked event " << v;
      }
      policy->Learn(t, f.round, a, AllZero(a.size()));
    }
  }
}

TEST(PolicyFactoryTest, NamesAndKinds) {
  Fixture f = Fixture::Make(3, 2, 1);
  PolicyParams params;
  EXPECT_EQ(MakePolicy(PolicyKind::kUcb, &f.instance, params, 1)->name(),
            "UCB");
  EXPECT_EQ(MakePolicy(PolicyKind::kTs, &f.instance, params, 1)->name(),
            "TS");
  EXPECT_EQ(MakePolicy(PolicyKind::kEpsGreedy, &f.instance, params, 1)->name(),
            "eGreedy");
  EXPECT_EQ(MakePolicy(PolicyKind::kExploit, &f.instance, params, 1)->name(),
            "Exploit");
  EXPECT_EQ(MakePolicy(PolicyKind::kRandom, &f.instance, params, 1)->name(),
            "Random");
  EXPECT_EQ(AllPolicyKinds().size(), 5u);
}

TEST(PolicyPropensityTest, ServedPropensityIsThePropensityOfWhatWasServed) {
  // ServedPropensity may skip work, but it must return PropensityOf's
  // value.
  Fixture f = Fixture::Make(12, 3, 3, {{0, 1}, {2, 5}, {4, 7}});
  PolicyParams params;
  params.epsilon = 0.3;
  for (PolicyKind kind :
       {PolicyKind::kUcb, PolicyKind::kTs, PolicyKind::kEpsGreedy,
        PolicyKind::kExploit, PolicyKind::kRandom, PolicyKind::kBoltzmann}) {
    auto policy = MakePolicy(kind, &f.instance, params, 7);
    auto twin = MakePolicy(kind, &f.instance, params, 7);
    PlatformState state(f.instance);
    Pcg64 rng(3);
    for (std::int64_t t = 1; t <= 60; ++t) {
      RoundContext round = f.round;
      for (std::size_t v = 0; v < round.contexts.rows(); ++v) {
        round.contexts(v, 0) = rng.NextDouble();
      }
      const Arrangement served = policy->Propose(t, round, state);
      ASSERT_EQ(twin->Propose(t, round, state), served)
          << PolicyKindName(kind) << " round " << t;
      EXPECT_EQ(policy->ServedPropensity(t, round, state, served),
                twin->PropensityOf(t, round, state, served))
          << PolicyKindName(kind) << " round " << t;
      Feedback feedback;
      for (EventId v : served) {
        feedback.push_back(round.contexts(v, 0) > 0.5 ? 1 : 0);
      }
      policy->Learn(t, round, served, feedback);
      twin->Learn(t, round, served, feedback);
    }
  }
}

// The VW rule (SNIPPETS.md snippet 1): asked to choose twice for the same
// round with nothing learned in between, a policy makes the same choice,
// also when a propensity was computed in between. Every draw is keyed by
// (salt, purpose, t), so no call can move a later draw.
TEST(PolicyRandomnessTest, ChoosingTwiceForOneRoundGivesOneArrangement) {
  Fixture f = Fixture::Make(12, 4, 3, {{0, 1}, {2, 5}, {4, 7}});
  PolicyParams params;
  params.epsilon = 0.5;  // Both branches of the coin, often.
  std::vector<std::pair<std::string, std::unique_ptr<Policy>>> policies;
  for (PolicyKind kind :
       {PolicyKind::kUcb, PolicyKind::kTs, PolicyKind::kEpsGreedy,
        PolicyKind::kExploit, PolicyKind::kRandom, PolicyKind::kBoltzmann}) {
    policies.emplace_back(PolicyKindName(kind),
                          MakePolicy(kind, &f.instance, params, 17));
  }
  policies.emplace_back(
      "PerUser(TS)", std::make_unique<PerUserPolicyBank>([&](std::int64_t user) {
        return MakePolicy(PolicyKind::kTs, &f.instance, params,
                          100 + static_cast<std::uint64_t>(user));
      }));
  PlatformState state(f.instance);
  for (auto& [name, policy] : policies) {
    for (std::int64_t t = 1; t <= 30; ++t) {
      RoundContext round = f.round;
      round.user_id = t % 2;
      const Arrangement first = policy->Propose(t, round, state);
      EXPECT_EQ(policy->Propose(t, round, state), first)
          << name << " round " << t;
      (void)policy->PropensityOf(t, round, state, first);
      EXPECT_EQ(policy->Propose(t, round, state), first)
          << name << " round " << t << " after PropensityOf";
      Feedback feedback(first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        feedback[i] = static_cast<std::uint8_t>((t + i) % 2);
      }
      policy->Learn(t, round, first, feedback);
    }
  }
}

TEST(PolicyMemoryTest, LearnersDominateRandom) {
  Fixture f = Fixture::Make(100, 20, 5);
  PolicyParams params;
  const auto bytes = [&](PolicyKind kind) {
    return MakePolicy(kind, &f.instance, params, 1)->MemoryBytes();
  };
  EXPECT_GT(bytes(PolicyKind::kUcb), bytes(PolicyKind::kRandom));
  EXPECT_GT(bytes(PolicyKind::kTs), bytes(PolicyKind::kRandom));
}

TEST(LearnerStateTest, OnlyThompsonSamplingKeepsACholeskyFactor) {
  // Only TS samples θ̃ ~ N(θ̂, q²Y⁻¹), so only TS's learner keeps and
  // re-derives a Cholesky factor of Y and only its snapshot carries one;
  // only UCB reads the widths, so only its snapshot carries (Y⁻¹)ᵀ. Held
  // on the rank-1 path (exact) and on the block path (epoch-4).
  constexpr std::size_t kEvents = 12, kDim = 6;
  Fixture f = Fixture::Make(kEvents, kDim, 3);
  for (const std::int64_t epoch : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "epoch " << epoch);
    PolicyParams params;
    params.learner.refactor_every = 8;
    if (epoch > 1) {
      params.learner.mode = LearnerMode::kEpoch;
      params.learner.epoch_length = epoch;
    }
    std::size_t ts_bytes = 0;
    std::vector<std::size_t> other_bytes;
    for (PolicyKind kind : {PolicyKind::kTs, PolicyKind::kUcb,
                            PolicyKind::kExploit, PolicyKind::kEpsGreedy,
                            PolicyKind::kBoltzmann}) {
      SCOPED_TRACE(PolicyKindName(kind));
      auto policy = MakePolicy(kind, &f.instance, params, 1);
      auto* linear = dynamic_cast<LinearPolicyBase*>(policy.get());
      ASSERT_NE(linear, nullptr);
      // 36 observations: past the refactor cadence four times, and nine
      // epoch boundaries under epoch-4.
      for (std::int64_t t = 1; t <= 12; ++t) {
        const Arrangement a = {static_cast<EventId>(t % kEvents),
                               static_cast<EventId>((t + 4) % kEvents),
                               static_cast<EventId>((t + 8) % kEvents)};
        linear->Learn(t, f.round, a, Feedback{1, 0, 1});
      }
      const bool ts = kind == PolicyKind::kTs;
      EXPECT_EQ(linear->learner().factor_healthy(), ts);
      EXPECT_EQ(linear->learner().num_factor_refactorizations() > 0, ts);
      const auto snapshot = linear->MakeSnapshot();
      EXPECT_EQ(snapshot->factor.has_value(), ts);
      EXPECT_EQ(snapshot->y_inverse_t.rows() > 0, kind == PolicyKind::kUcb);
      if (ts) {
        ts_bytes = policy->MemoryBytes();
      } else {
        other_bytes.push_back(policy->MemoryBytes());
      }
    }
    // Every other learner is smaller by at least the d×d factor.
    for (const std::size_t bytes : other_bytes) {
      EXPECT_LE(bytes + kDim * kDim * sizeof(double), ts_bytes);
    }
  }
}

}  // namespace
}  // namespace fasea
