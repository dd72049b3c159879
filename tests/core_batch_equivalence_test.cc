// Batched scoring against its per-event reference (kernels.h contract,
// wired through RidgeState and the policies):
//  * RidgeState's batch APIs are bit-identical to the per-context calls,
//    and its cached (Y⁻¹)ᵀ never goes stale across a learner change.
//  * Batched simulations are thread-count invariant.
//  * A multi-user snapshot batch scores every user exactly as that user
//    scored alone, and each row equals the policy's per-event formula,
//    at a learned state.
//  * TS's maintained Cholesky factor tracks the fresh factorization
//    within a drift bound — its draws track a fresh-factor sampler's —
//    and a corrupt Y degrades the proposal instead of aborting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "core/ts_policy.h"
#include "core/ridge.h"
#include "core/ucb_policy.h"
#include "ebsn/arrangement_service.h"
#include "linalg/cholesky.h"
#include "linalg/mvn.h"
#include "oracle/oracle.h"
#include "rng/distributions.h"
#include "rng/pcg64.h"
#include "rng/seed.h"
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

/// Fills the cached (Y⁻¹)ᵀ, then returns whether the batched widths equal
/// the per-row ConfidenceWidthSq after `mutate` changed the learner.
::testing::AssertionResult WidthsFreshAfter(
    RidgeState* ridge, const Matrix& probes,
    const std::function<void(RidgeState*)>& mutate) {
  std::vector<double> width(probes.rows());
  ridge->ConfidenceWidthSqBatch(probes, width);  // Caches (Y⁻¹)ᵀ.
  mutate(ridge);
  ridge->ConfidenceWidthSqBatch(probes, width);
  for (std::size_t v = 0; v < probes.rows(); ++v) {
    if (width[v] != ridge->ConfidenceWidthSq(probes.Row(v))) {
      return ::testing::AssertionFailure() << "stale width at row " << v;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RidgeBatchTest, CachedTransposeFollowsEveryLearnerChange) {
  Pcg64 rng(205);
  const std::size_t d = 6;
  const Matrix probes = RandomContexts(9, d, rng);
  const Matrix train = RandomContexts(40, d, rng);
  RidgeState ridge(d, 1.0);
  for (std::size_t i = 0; i < 20; ++i) ridge.Update(train.Row(i), 1.0);

  EXPECT_TRUE(WidthsFreshAfter(&ridge, probes, [&](RidgeState* r) {
    r->Update(train.Row(20), 0.0);
  }));
  EXPECT_TRUE(WidthsFreshAfter(&ridge, probes, [&](RidgeState* r) {
    Matrix block(4, d);
    for (std::size_t i = 0; i < 4; ++i) {
      std::copy(train.Row(21 + i).begin(), train.Row(21 + i).end(),
                block.Row(i).begin());
    }
    const std::vector<double> rewards = {1.0, 0.0, 1.0, 1.0};
    r->ApplyBlock(block, rewards);
  }));
  EXPECT_TRUE(WidthsFreshAfter(&ridge, probes, [&](RidgeState* r) {
    for (std::size_t i = 25; i < 30; ++i) r->Update(train.Row(i), 1.0);
    r->Refactorize();
  }));
  // Replacing the whole state: a restored checkpoint.
  RidgeState other(d, 1.0);
  for (std::size_t i = 30; i < 40; ++i) other.Update(train.Row(i), 0.0);
  EXPECT_TRUE(WidthsFreshAfter(&ridge, probes, [&](RidgeState* r) {
    auto restored = RidgeState::FromComponents(1.0, other.Y(), other.b(),
                                               other.num_observations());
    ASSERT_TRUE(restored.ok());
    *r = std::move(restored).value();
  }));

  // Through a policy: RestoreRidge, and a peer shard's delta merge.
  const std::size_t n = 5;
  auto instance = ProblemInstance::Create(std::vector<std::int64_t>(n, 10),
                                          ConflictGraph(n), d);
  ASSERT_TRUE(instance.ok());
  UcbPolicy ucb(&*instance, UcbParams{});
  EXPECT_TRUE(WidthsFreshAfter(&ucb.mutable_ridge(), probes,
                               [&](RidgeState*) { ucb.RestoreRidge(other); }));
  ArrangementService service(&*instance, PolicyKind::kUcb, PolicyParams{},
                             /*seed=*/3);
  const auto& policy = static_cast<const LinearPolicyBase&>(service.policy());
  std::vector<PeerObservation> delta(3);
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i].context.assign(train.Row(i).begin(), train.Row(i).end());
    delta[i].reward = 1.0;
  }
  std::vector<double> width(probes.rows());
  policy.ridge().ConfidenceWidthSqBatch(probes, width);  // Caches (Y⁻¹)ᵀ.
  ASSERT_TRUE(service.AbsorbPeerObservations(delta).ok());
  policy.ridge().ConfidenceWidthSqBatch(probes, width);
  for (std::size_t v = 0; v < probes.rows(); ++v) {
    EXPECT_EQ(width[v], policy.ridge().ConfidenceWidthSq(probes.Row(v)))
        << "row " << v;
  }
}

TEST(RidgeFactorTest, MaintainedFactorTracksFreshFactorization) {
  Pcg64 rng(202);
  const std::size_t d = 8;
  // refactor_every = 0: pure incremental mode, so the comparison sees
  // the full accumulated rank-1 drift over 3000 updates.
  RidgeState ridge(d, 1.0, /*refactor_every=*/0, /*keep_factor=*/true);
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
  RidgeState ridge(d, 1.0, /*refactor_every=*/100, /*keep_factor=*/true);
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
      1.0, ridge.Y(), ridge.b(), ridge.num_observations(),
      kDefaultRefactorEvery, /*keep_factor=*/true);
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

TEST(BatchEquivalenceTest, BatchedRunIsThreadCountInvariant) {
  SyntheticExperiment exp;
  exp.data.num_events = 40;
  exp.data.dim = 6;
  exp.data.horizon = 300;
  exp.data.seed = 5;

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
  // scored alone with the same ticket, and each row must equal the
  // policy's per-event formula bit for bit. d = 13 leaves a remainder
  // after the width kernel's 8-column tile.
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
    // Only TS samples θ̃: its snapshot carries a healthy factor, and no
    // other policy's learner keeps one to carry.
    ASSERT_EQ(snapshot->factor.has_value(), kind == PolicyKind::kTs);

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
    // The per-event reference, against the ridge the snapshot was taken
    // from: UpperConfidenceBound for UCB, PredictedReward for Exploit and
    // eGreedy's exploitation rows (exploration rows only mark
    // availability), x ᵀ θ̃ for TS.
    const RidgeState& ridge = linear->ridge();
    for (std::size_t i = 0; i < kUsers; ++i) {
      SCOPED_TRACE(testing::Message() << "user " << i);
      Vector theta;
      if (kind == PolicyKind::kTs) {
        // Recover this ticket's θ̃ by scoring unit contexts: x = e_j
        // scores exactly θ̃_j.
        RoundContext probe;
        probe.contexts = Matrix(kEvents, kDim);
        for (std::size_t j = 0; j < kDim; ++j) probe.contexts(j, j) = 1.0;
        probe.user_capacity = 3;
        const SnapshotRound probe_row{rows[i].ticket, &probe};
        Matrix probed(1, kEvents);
        std::vector<RowResolve> probe_resolve(1);
        linear->ScoreBatchSnapshot(
            *snapshot, std::span<const SnapshotRound>(&probe_row, 1),
            &probed, probe_resolve);
        theta = Vector(kDim);
        for (std::size_t j = 0; j < kDim; ++j) theta[j] = probed(0, j);
        EXPECT_FALSE(theta == ridge.ThetaHat()) << "θ̃ is not a draw";
      }
      std::vector<double> expected(kEvents);
      for (std::size_t v = 0; v < kEvents; ++v) {
        const std::span<const double> x = users[i].contexts.Row(v);
        switch (kind) {
          case PolicyKind::kUcb:
            expected[v] =
                static_cast<const UcbPolicy&>(*linear).UpperConfidenceBound(
                    x);
            break;
          case PolicyKind::kTs:
            expected[v] = Dot(x, theta.span());
            break;
          default:
            expected[v] = batch_resolve[i] == RowResolve::kRandom
                              ? 0.0
                              : ridge.PredictedReward(x);
        }
      }
      ApplyAvailabilityMask(users[i], expected);
      EXPECT_EQ(std::memcmp(batch.Row(i).data(), expected.data(),
                            kEvents * sizeof(double)),
                0);
    }
  }
}

TEST(TsRobustnessTest, CorruptYDegradesBatchedProposalInsteadOfAborting) {
  Fixture f = Fixture::Make(12, 5, 3);
  TsPolicy ts(&f.instance, TsParams{}, /*salt=*/7);
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

TEST(TsRobustnessTest, TeacherForcedSamplesTrackAFreshFactorSampler) {
  // A test-side sampler draws from round t's keyed stream through a fresh
  // per-round factorization of Y, the paper's O(d³) step, along the
  // policy's own teacher-forced trajectory. The only difference is which
  // factor the draw goes through (fresh vs maintained), so the samples
  // must agree to within the factor drift bound.
  Fixture f = Fixture::Make(15, 6, 3);
  const TsParams params;
  constexpr std::uint64_t kSalt = 99;
  TsPolicy ts(&f.instance, params, kSalt);
  PlatformState state(f.instance);
  Pcg64 feedback_rng(17);
  for (std::int64_t t = 1; t <= 80; ++t) {
    auto fresh = Cholesky::Factorize(ts.ridge().Y());
    ASSERT_TRUE(fresh.ok());
    const double q =
        params.r_scale *
        std::sqrt(9.0 * static_cast<double>(ts.ridge().dim()) *
                  std::log(static_cast<double>(t) / params.delta));
    Pcg64 reference_rng = KeyedEngine(kSalt, "theta", t);
    const Vector want = SampleMvnFromPrecision(
        reference_rng, ts.ridge().ThetaHat(), q, fresh.value());
    const Arrangement a = ts.Propose(t, f.round, state);
    const Vector& got = ts.SampledTheta();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-9) << "t=" << t << " i=" << i;
    }
    Feedback fb(a.size());
    for (auto& r : fb) {
      r = static_cast<std::uint8_t>(UniformInt(feedback_rng, 0, 1));
    }
    ts.Learn(t, f.round, a, fb);
  }
}

}  // namespace
}  // namespace fasea
