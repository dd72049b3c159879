// Scalar-vs-batched scoring equivalence (kernels.h contract, wired
// through RidgeState and the policies):
//  * RidgeState's batch APIs are bit-identical to the per-context calls.
//  * Full simulations under ScoringMode::kScalar and kBatched produce
//    identical trajectories on the fig1 default configuration.
//  * A multi-user snapshot batch scores every user exactly as that user
//    scored alone, at a learned state.
//  * TS's maintained Cholesky factor tracks the fresh factorization
//    within a drift bound, and a corrupt Y degrades the proposal instead
//    of aborting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "core/ts_policy.h"
#include "core/ridge.h"
#include "linalg/cholesky.h"
#include "oracle/oracle.h"
#include "rng/distributions.h"
#include "rng/pcg64.h"
#include "sim/experiment.h"

namespace fasea {
namespace {

Matrix RandomContexts(std::size_t n, std::size_t d, Pcg64& rng) {
  Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    double norm_sq = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      m(i, j) = rng.NextDouble();
      norm_sq += m(i, j) * m(i, j);
    }
    for (std::size_t j = 0; j < d; ++j) m(i, j) /= std::sqrt(norm_sq);
  }
  return m;
}

TEST(RidgeBatchTest, PredictBatchBitIdenticalToPredictedReward) {
  Pcg64 rng(201);
  const std::size_t d = 7;
  RidgeState ridge(d, 1.0);
  const Matrix train = RandomContexts(50, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    ridge.Update(train.Row(i), static_cast<double>(UniformInt(rng, 0, 1)));
  }
  const Matrix contexts = RandomContexts(33, d, rng);
  std::vector<double> pred(contexts.rows());
  std::vector<double> width(contexts.rows());
  ridge.PredictBatch(contexts, pred);
  ridge.ConfidenceWidthSqBatch(contexts, width);
  for (std::size_t v = 0; v < contexts.rows(); ++v) {
    EXPECT_EQ(pred[v], ridge.PredictedReward(contexts.Row(v))) << v;
    EXPECT_EQ(width[v], ridge.ConfidenceWidthSq(contexts.Row(v))) << v;
  }
}

TEST(RidgeFactorTest, MaintainedFactorTracksFreshFactorization) {
  Pcg64 rng(202);
  const std::size_t d = 8;
  // refactor_every = 0: pure incremental mode, so the comparison sees
  // the full accumulated rank-1 drift over 3000 updates.
  RidgeState ridge(d, 1.0, /*refactor_every=*/0);
  const Matrix train = RandomContexts(3000, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    ridge.Update(train.Row(i), static_cast<double>(UniformInt(rng, 0, 1)));
  }
  ASSERT_TRUE(ridge.factor_healthy());
  auto fresh = Cholesky::Factorize(ridge.Y());
  ASSERT_TRUE(fresh.ok());
  const double scale = fresh->L().FrobeniusNorm();
  EXPECT_LE(ridge.Factor().L().MaxAbsDiff(fresh->L()), 1e-9 * scale);
}

TEST(RidgeFactorTest, PeriodicRefactorizationRunsOnCadence) {
  Pcg64 rng(203);
  const std::size_t d = 4;
  RidgeState ridge(d, 1.0, /*refactor_every=*/100);
  const Matrix train = RandomContexts(250, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    ridge.Update(train.Row(i), 1.0);
  }
  EXPECT_EQ(ridge.num_factor_refactorizations(), 2);
  EXPECT_EQ(ridge.num_factor_failures(), 0);
  EXPECT_TRUE(ridge.factor_healthy());
}

TEST(RidgeFactorTest, FromComponentsRebuildsFactor) {
  Pcg64 rng(204);
  const std::size_t d = 6;
  RidgeState ridge(d, 1.0);
  const Matrix train = RandomContexts(40, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    ridge.Update(train.Row(i), 1.0);
  }
  auto restored = RidgeState::FromComponents(
      1.0, ridge.Y(), ridge.b(), ridge.num_observations());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->factor_healthy());
  auto fresh = Cholesky::Factorize(ridge.Y());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(restored->Factor().L(), fresh->L());
}

/// Every deterministic field of a trajectory (mirrors sim_parallel_test).
void ExpectSameTrajectory(const TrajectoryResult& a,
                          const TrajectoryResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.cum_rewards, b.cum_rewards);
  EXPECT_EQ(a.cum_arranged, b.cum_arranged);
  EXPECT_EQ(a.accept_ratio, b.accept_ratio);
  EXPECT_EQ(a.total_regret, b.total_regret);
  EXPECT_EQ(a.regret_ratio, b.regret_ratio);
  EXPECT_EQ(a.kendall_tau, b.kendall_tau);
  EXPECT_EQ(a.final_reward, b.final_reward);
  EXPECT_EQ(a.final_arranged, b.final_arranged);
  EXPECT_EQ(a.final_regret, b.final_regret);
}

TEST(BatchEquivalenceTest, Fig1DefaultConfigBitIdenticalScalarVsBatched) {
  // The fig1 default configuration (|V|=500, d=20) scaled to a test-size
  // horizon, seed-for-seed. TS rides through its own factor (maintained
  // vs fresh, equal up to rank-1 rounding); the score gaps dominate that
  // drift on this configuration, so even TS's arrangements match.
  SyntheticExperiment exp;
  exp.data.seed = 20170514;
  exp.run_seed = 42;
  ApplyScale(0.005, &exp.data);  // T = 500.
  exp.compute_kendall = true;

  exp.params.scalar_scoring = false;
  const SimulationResult batched = RunSyntheticExperiment(exp);
  exp.params.scalar_scoring = true;
  const SimulationResult scalar = RunSyntheticExperiment(exp);

  ASSERT_EQ(batched.policies.size(), scalar.policies.size());
  ExpectSameTrajectory(batched.reference, scalar.reference);
  for (std::size_t i = 0; i < batched.policies.size(); ++i) {
    ExpectSameTrajectory(batched.policies[i], scalar.policies[i]);
  }
}

TEST(BatchEquivalenceTest, BatchedRunIsThreadCountInvariant) {
  SyntheticExperiment exp;
  exp.data.num_events = 40;
  exp.data.dim = 6;
  exp.data.horizon = 300;
  exp.data.seed = 5;
  exp.params.scalar_scoring = false;

  exp.threads = 1;
  const SimulationResult sequential = RunSyntheticExperiment(exp);
  exp.threads = 4;
  const SimulationResult parallel = RunSyntheticExperiment(exp);
  ASSERT_EQ(sequential.policies.size(), parallel.policies.size());
  for (std::size_t i = 0; i < sequential.policies.size(); ++i) {
    ExpectSameTrajectory(sequential.policies[i], parallel.policies[i]);
  }
}

struct Fixture {
  ProblemInstance instance;
  RoundContext round;

  static Fixture Make(std::size_t n, std::size_t d, std::int64_t cu) {
    auto inst = ProblemInstance::Create(std::vector<std::int64_t>(n, 100),
                                        ConflictGraph(n), d);
    FASEA_CHECK(inst.ok());
    Fixture f{std::move(inst).value(), {}};
    Pcg64 rng(4321);
    f.round.contexts = RandomContexts(n, d, rng);
    f.round.user_capacity = cu;
    return f;
  }
};

TEST(SnapshotBatchTest, EachUserRowMatchesScoringThatUserAloneWhenLearned) {
  // Five users with distinct contexts, one with an availability mask,
  // scored in one batch against a learned snapshot (Y⁻¹ far from I/λ):
  // each score row and resolve flag must equal what that user gets when
  // scored alone with the same ticket. d = 13 leaves a remainder after
  // the width kernel's 8-column tile.
  constexpr std::size_t kEvents = 30, kDim = 13, kUsers = 5;
  Fixture f = Fixture::Make(kEvents, kDim, 3);
  Pcg64 rng(303);
  std::vector<RoundContext> users(kUsers);
  std::vector<SnapshotRound> rows(kUsers);
  for (std::size_t i = 0; i < kUsers; ++i) {
    users[i].contexts = RandomContexts(kEvents, kDim, rng);
    users[i].user_capacity = 3;
    rows[i].ticket = static_cast<std::int64_t>(i) + 3;
    rows[i].round = &users[i];
  }
  users[2].available.assign(kEvents, 1);
  for (std::size_t v = 0; v < kEvents; v += 3) users[2].available[v] = 0;

  PolicyParams params;
  params.epsilon = 0.5;  // eGreedy batches then mix both row kinds.
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kExploit,
                          PolicyKind::kEpsGreedy, PolicyKind::kTs}) {
    SCOPED_TRACE(PolicyKindName(kind));
    auto policy = MakePolicy(kind, &f.instance, params, /*seed=*/11);
    auto* linear = dynamic_cast<LinearPolicyBase*>(policy.get());
    ASSERT_NE(linear, nullptr);
    Pcg64 learn_rng(404);
    for (std::int64_t t = 1; t <= 200; ++t) {
      RoundContext round;
      round.contexts = RandomContexts(kEvents, kDim, learn_rng);
      round.user_capacity = 3;
      const Arrangement a = {static_cast<EventId>(t % kEvents),
                             static_cast<EventId>((t + 7) % kEvents),
                             static_cast<EventId>((t + 19) % kEvents)};
      Feedback fb(a.size());
      for (auto& r : fb) {
        r = static_cast<std::uint8_t>(UniformInt(learn_rng, 0, 1));
      }
      linear->Learn(t, round, a, fb);
    }
    const auto snapshot = linear->MakeSnapshot();
    ASSERT_TRUE(snapshot->factor_healthy);

    Matrix batch(kUsers, kEvents);
    std::vector<RowResolve> batch_resolve(kUsers, RowResolve::kGreedy);
    linear->ScoreBatchSnapshot(*snapshot, rows, &batch, batch_resolve);
    std::size_t explored = 0;
    for (std::size_t i = 0; i < kUsers; ++i) {
      Matrix alone(1, kEvents);
      std::vector<RowResolve> alone_resolve(1, RowResolve::kGreedy);
      linear->ScoreBatchSnapshot(*snapshot,
                                 std::span<const SnapshotRound>(&rows[i], 1),
                                 &alone, alone_resolve);
      EXPECT_EQ(batch_resolve[i], alone_resolve[0]) << "user " << i;
      EXPECT_EQ(std::memcmp(batch.Row(i).data(), alone.Row(0).data(),
                            kEvents * sizeof(double)),
                0)
          << "user " << i;
      if (batch_resolve[i] == RowResolve::kRandom) ++explored;
    }
    for (std::size_t v = 0; v < kEvents; v += 3) {
      EXPECT_EQ(batch(2, v), kExcludedScore) << "masked event " << v;
    }
    if (kind == PolicyKind::kEpsGreedy) {
      EXPECT_GT(explored, 0u);
      EXPECT_LT(explored, kUsers);
    }
    if (kind != PolicyKind::kUcb) continue;
    // UCB's rows are the sequential batched Propose's scores against the
    // ridge the snapshot was taken from.
    const RidgeState& ridge = linear->ridge();
    std::vector<double> pred(kEvents), width(kEvents), expected(kEvents);
    for (std::size_t i = 0; i < kUsers; ++i) {
      ridge.PredictBatch(users[i].contexts, pred);
      ridge.ConfidenceWidthSqBatch(users[i].contexts, width);
      for (std::size_t v = 0; v < kEvents; ++v) {
        expected[v] = pred[v] + params.alpha * std::sqrt(width[v]);
      }
      ApplyAvailabilityMask(users[i], expected);
      EXPECT_EQ(std::memcmp(batch.Row(i).data(), expected.data(),
                            kEvents * sizeof(double)),
                0)
          << "user " << i;
    }
  }
}

TEST(TsRobustnessTest, CorruptYDegradesBatchedProposalInsteadOfAborting) {
  Fixture f = Fixture::Make(12, 5, 3);
  TsPolicy ts(&f.instance, TsParams{}, Pcg64(7));
  PlatformState state(f.instance);
  for (std::int64_t t = 1; t <= 5; ++t) {
    const Arrangement a = ts.Propose(t, f.round, state);
    ts.Learn(t, f.round, a, Feedback(a.size(), 1));
  }
  EXPECT_EQ(ts.num_degraded_samples(), 0);

  ts.mutable_ridge().CorruptYForTesting();
  const Arrangement a = ts.Propose(6, f.round, state);
  EXPECT_TRUE(IsFeasibleArrangement(a, f.instance.conflicts(), state, 3));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(ts.num_degraded_samples(), 1);
  // The degraded proposal is the posterior mean — Exploit for one round.
  EXPECT_EQ(ts.SampledTheta(), ts.ridge().ThetaHat());
}

TEST(TsRobustnessTest, CorruptYDegradesScalarProposalInsteadOfAborting) {
  Fixture f = Fixture::Make(12, 5, 3);
  TsPolicy ts(&f.instance, TsParams{}, Pcg64(7));
  ts.set_scoring_mode(ScoringMode::kScalar);
  PlatformState state(f.instance);
  for (std::int64_t t = 1; t <= 5; ++t) {
    const Arrangement a = ts.Propose(t, f.round, state);
    ts.Learn(t, f.round, a, Feedback(a.size(), 1));
  }
  ts.mutable_ridge().CorruptYForTesting();
  // The scalar path factorizes the (now non-SPD) Y fresh and must take
  // the same degraded path rather than FASEA_CHECK-aborting.
  const Arrangement a = ts.Propose(6, f.round, state);
  EXPECT_TRUE(IsFeasibleArrangement(a, f.instance.conflicts(), state, 3));
  EXPECT_EQ(ts.num_degraded_samples(), 1);
  EXPECT_EQ(ts.SampledTheta(), ts.ridge().ThetaHat());
}

TEST(TsRobustnessTest, TeacherForcedScalarAndBatchedSamplesStayClose) {
  // Identical RNG streams and identical teacher-forced trajectories: the
  // only difference between the two policies is which factor they sample
  // through (fresh vs maintained), so the samples must agree to within
  // the factor drift bound.
  Fixture f = Fixture::Make(15, 6, 3);
  TsPolicy scalar(&f.instance, TsParams{}, Pcg64(99));
  TsPolicy batched(&f.instance, TsParams{}, Pcg64(99));
  scalar.set_scoring_mode(ScoringMode::kScalar);
  PlatformState state(f.instance);
  Pcg64 feedback_rng(17);
  for (std::int64_t t = 1; t <= 80; ++t) {
    const Arrangement a = scalar.Propose(t, f.round, state);
    batched.Propose(t, f.round, state);
    const Vector& st = scalar.SampledTheta();
    const Vector& bt = batched.SampledTheta();
    ASSERT_EQ(st.size(), bt.size());
    for (std::size_t i = 0; i < st.size(); ++i) {
      EXPECT_NEAR(st[i], bt[i], 1e-9) << "t=" << t << " i=" << i;
    }
    Feedback fb(a.size());
    for (auto& r : fb) r = static_cast<std::uint8_t>(UniformInt(feedback_rng, 0, 1));
    scalar.Learn(t, f.round, a, fb);
    batched.Learn(t, f.round, a, fb);
  }
}

}  // namespace
}  // namespace fasea
