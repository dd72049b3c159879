#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/ucb_policy.h"
#include "rng/distributions.h"

namespace fasea {
namespace {

ProblemInstance MakeInstance(std::size_t n, std::size_t d) {
  auto inst = ProblemInstance::Create(std::vector<std::int64_t>(n, 50),
                                      ConflictGraph(n), d);
  FASEA_CHECK(inst.ok());
  return std::move(inst).value();
}

RoundContext MakeRound(std::size_t n, std::size_t d, Pcg64& rng) {
  RoundContext round;
  round.contexts = ContextMatrix(n, d);
  for (std::size_t v = 0; v < n; ++v) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      round.contexts(v, j) = UniformReal(rng, 0.0, 1.0);
      norm_sq += round.contexts(v, j) * round.contexts(v, j);
    }
    for (std::size_t j = 0; j < d; ++j) {
      round.contexts(v, j) /= std::sqrt(norm_sq);
    }
  }
  round.user_capacity = 3;
  return round;
}

/// Trains a `kind` policy (UCB by default) for `rounds` rounds and
/// returns it.
std::unique_ptr<Policy> Train(const ProblemInstance& instance, int rounds,
                              const PolicyParams& params,
                              PolicyKind kind = PolicyKind::kUcb) {
  auto policy = MakePolicy(kind, &instance, params, 1);
  PlatformState state(instance);
  Pcg64 rng(9);
  for (int t = 1; t <= rounds; ++t) {
    RoundContext round = MakeRound(instance.num_events(), instance.dim(),
                                   rng);
    const Arrangement a = policy->Propose(t, round, state);
    Feedback fb(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      fb[i] = Bernoulli(rng, 0.5) ? 1 : 0;
    }
    policy->Learn(t, round, a, fb);
  }
  return policy;
}

TEST(CheckpointTest, RoundTripPreservesLearningState) {
  const ProblemInstance instance = MakeInstance(10, 6);
  PolicyParams params;
  auto policy = Train(instance, 40, params);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
  ASSERT_NE(base, nullptr);

  const std::string blob = SaveCheckpoint(PolicyKind::kUcb, params, *base);
  auto parsed = ParseCheckpoint(blob);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, PolicyKind::kUcb);
  EXPECT_EQ(parsed->num_observations, base->ridge().num_observations());
  EXPECT_LT(parsed->y.MaxAbsDiff(base->ridge().Y()), 1e-15);
  EXPECT_LT(MaxAbsDiff(parsed->b, base->ridge().b()), 1e-15);

  auto restored = RestorePolicy(*parsed, &instance, 1);
  ASSERT_TRUE(restored.ok());
  auto* restored_base = dynamic_cast<LinearPolicyBase*>(restored->get());
  ASSERT_NE(restored_base, nullptr);
  EXPECT_LT(MaxAbsDiff(restored_base->ridge().ThetaHat(),
                       base->ridge().ThetaHat()),
            1e-9);
}

TEST(CheckpointTest, RestoredPolicyProposesIdentically) {
  // A stochastic policy keeps no RNG state, so the one restored with the
  // same seed draws exactly what the trained one draws from round 61 on.
  const ProblemInstance instance = MakeInstance(12, 5);
  PolicyParams params;
  params.epsilon = 0.5;
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kTs,
                          PolicyKind::kEpsGreedy, PolicyKind::kExploit,
                          PolicyKind::kBoltzmann}) {
    auto policy = Train(instance, 60, params, kind);
    auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
    const std::string blob = SaveCheckpoint(kind, params, *base);
    auto parsed = ParseCheckpoint(blob);
    ASSERT_TRUE(parsed.ok()) << PolicyKindName(kind);
    auto restored = RestorePolicy(*parsed, &instance, 1);
    ASSERT_TRUE(restored.ok()) << PolicyKindName(kind);

    PlatformState state(instance);
    Pcg64 rng(123);
    for (int t = 61; t <= 70; ++t) {
      RoundContext round = MakeRound(12, 5, rng);
      EXPECT_EQ(policy->Propose(t, round, state),
                (*restored)->Propose(t, round, state))
          << PolicyKindName(kind) << " round " << t;
    }
  }
}

TEST(CheckpointTest, RestoreKeepsTheFactorChoice) {
  // A restored learner keeps exactly the state its policy reads: no
  // Cholesky factor for UCB, a healthy fresh one for TS.
  const ProblemInstance instance = MakeInstance(12, 5);
  const PolicyParams params;
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kTs}) {
    SCOPED_TRACE(PolicyKindName(kind));
    auto policy = Train(instance, 30, params, kind);
    const std::string blob = SaveCheckpoint(
        kind, params, *dynamic_cast<LinearPolicyBase*>(policy.get()));
    auto parsed = ParseCheckpoint(blob);
    ASSERT_TRUE(parsed.ok());
    auto restored = RestorePolicy(*parsed, &instance, 1);
    ASSERT_TRUE(restored.ok());
    const auto* base = dynamic_cast<const LinearPolicyBase*>(restored->get());
    ASSERT_NE(base, nullptr);
    const bool ts = kind == PolicyKind::kTs;
    EXPECT_EQ(base->learner().factor_healthy(), ts);
    EXPECT_EQ(base->MakeSnapshot()->factor.has_value(), ts);
  }
}

TEST(CheckpointTest, AllRidgeLearnersRoundTrip) {
  const ProblemInstance instance = MakeInstance(6, 4);
  PolicyParams params;
  params.epsilon = 0.2;
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kTs,
                          PolicyKind::kEpsGreedy, PolicyKind::kExploit,
                          PolicyKind::kBoltzmann}) {
    auto policy = MakePolicy(kind, &instance, params, 3);
    auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
    ASSERT_NE(base, nullptr) << PolicyKindName(kind);
    const std::string blob = SaveCheckpoint(kind, params, *base);
    auto parsed = ParseCheckpoint(blob);
    ASSERT_TRUE(parsed.ok()) << PolicyKindName(kind);
    auto restored = RestorePolicy(*parsed, &instance, 3);
    ASSERT_TRUE(restored.ok()) << PolicyKindName(kind);
    EXPECT_EQ((*restored)->name(), policy->name());
  }
}

TEST(CheckpointTest, ParamsSurviveRoundTrip) {
  const ProblemInstance instance = MakeInstance(4, 3);
  PolicyParams params;
  params.lambda = 2.0;
  params.alpha = 1.5;
  params.delta = 0.05;
  params.epsilon = 0.2;
  params.temperature = 0.7;
  auto policy = MakePolicy(PolicyKind::kEpsGreedy, &instance, params, 1);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
  auto parsed =
      ParseCheckpoint(SaveCheckpoint(PolicyKind::kEpsGreedy, params, *base));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->params.lambda, 2.0);
  EXPECT_DOUBLE_EQ(parsed->params.alpha, 1.5);
  EXPECT_DOUBLE_EQ(parsed->params.delta, 0.05);
  EXPECT_DOUBLE_EQ(parsed->params.epsilon, 0.2);
  EXPECT_DOUBLE_EQ(parsed->params.temperature, 0.7);
}

TEST(CheckpointTest, RejectsCorruptData) {
  const ProblemInstance instance = MakeInstance(4, 3);
  PolicyParams params;
  auto policy = Train(instance, 10, params);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
  const std::string blob = SaveCheckpoint(PolicyKind::kUcb, params, *base);

  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("garbage").ok());
  EXPECT_FALSE(ParseCheckpoint(blob.substr(0, blob.size() / 2)).ok());
  EXPECT_FALSE(ParseCheckpoint(blob + "x").ok());  // Trailing bytes.
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseCheckpoint(bad_magic).ok());
  std::string bad_version = blob;
  bad_version[4] = 99;
  EXPECT_FALSE(ParseCheckpoint(bad_version).ok());
}

TEST(CheckpointTest, RejectsDimensionMismatch) {
  const ProblemInstance small = MakeInstance(4, 3);
  const ProblemInstance big = MakeInstance(4, 7);
  PolicyParams params;
  auto policy = Train(small, 10, params);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
  auto parsed =
      ParseCheckpoint(SaveCheckpoint(PolicyKind::kUcb, params, *base));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(RestorePolicy(*parsed, &big, 1).ok());
}

TEST(CheckpointTest, RejectsNonSpdY) {
  PolicyCheckpoint cp;
  cp.kind = PolicyKind::kUcb;
  cp.y = Matrix(3, 3);  // Zero matrix: not PD.
  cp.b = Vector(3);
  const ProblemInstance instance = MakeInstance(4, 3);
  EXPECT_FALSE(RestorePolicy(cp, &instance, 1).ok());
}

TEST(CheckpointTest, FuzzedBlobsNeverCrashTheParser) {
  // Random truncations and byte flips must come back as clean Status
  // errors (or parse successfully for benign flips), never crash.
  const ProblemInstance instance = MakeInstance(5, 4);
  PolicyParams params;
  auto policy = Train(instance, 20, params);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy.get());
  const std::string blob = SaveCheckpoint(PolicyKind::kUcb, params, *base);

  Pcg64 rng(321);
  int parsed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    const int mode = static_cast<int>(rng.NextBounded(3));
    if (mode == 0) {
      mutated.resize(rng.NextBounded(blob.size() + 1));  // Truncate.
    } else if (mode == 1) {
      const std::size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(rng.NextBounded(256));  // Flip.
    } else {
      mutated += std::string(rng.NextBounded(16) + 1, 'z');  // Extend.
    }
    auto result = ParseCheckpoint(mutated);
    parsed_ok += result.ok();
  }
  // Most mutations are rejected; a few byte flips only touch payload
  // doubles and still parse. Either way: no crash.
  EXPECT_LT(parsed_ok, 300);
}

TEST(RidgeStateTest, FromComponentsMatchesIncremental) {
  Pcg64 rng(5);
  RidgeState ridge(4, 1.0);
  Vector x(4);
  for (int i = 0; i < 30; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x[j] = UniformReal(rng, -1.0, 1.0);
    ridge.Update(x.span(), i % 2);
  }
  auto rebuilt = RidgeState::FromComponents(1.0, ridge.Y(), ridge.b(),
                                            ridge.num_observations());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_LT(MaxAbsDiff(rebuilt->ThetaHat(), ridge.ThetaHat()), 1e-9);
  EXPECT_EQ(rebuilt->num_observations(), ridge.num_observations());
}

TEST(RidgeStateTest, FromComponentsValidatesInputs) {
  EXPECT_FALSE(
      RidgeState::FromComponents(0.0, Matrix::Identity(2), Vector(2), 0)
          .ok());
  EXPECT_FALSE(
      RidgeState::FromComponents(1.0, Matrix::Identity(3), Vector(2), 0)
          .ok());
  EXPECT_FALSE(
      RidgeState::FromComponents(1.0, Matrix(2, 2), Vector(2), 0).ok());
}

}  // namespace
}  // namespace fasea
