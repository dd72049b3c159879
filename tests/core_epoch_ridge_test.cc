// EpochRidgeState: the bounded-scale learner facade.
//  * LearnerMode::kExact and kEpoch with epoch_length = 1 are
//    bit-identical to the plain RidgeState, update for update.
//  * kEpoch buffers observations and applies them at the boundary: the
//    scoring surface is stale mid-epoch, exact after the boundary, and
//    the applied Y matches the exact learner's within block-GEMM
//    tolerance.
//  * kSketch with sketch_size = d reproduces the exact theta-hat and
//    widths up to Woodbury rounding; undersized sketches under-count
//    widths by at most the FD bound. SamplePosterior concentrates on
//    theta-hat as q -> 0.
//  * The fig1 default configuration runs bit-identically under
//    kEpoch(1) for all four linear policies, and kEpoch(64) stays
//    within the documented regret tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/epoch_ridge.h"
#include "core/ridge.h"
#include "linalg/kernels.h"
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
      m(i, j) = StandardNormal(rng);
      norm_sq += m(i, j) * m(i, j);
    }
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (std::size_t j = 0; j < d; ++j) m(i, j) *= inv;
  }
  return m;
}

LearnerConfig EpochConfig(std::int64_t epoch_length) {
  LearnerConfig config;
  config.mode = LearnerMode::kEpoch;
  config.epoch_length = epoch_length;
  return config;
}

TEST(EpochRidgeTest, ExactAndUnitEpochAreBitIdenticalToRidgeState) {
  Pcg64 rng(71);
  const std::size_t d = 8;
  const Matrix train = RandomContexts(300, d, rng);

  RidgeState plain(d, 1.0);
  EpochRidgeState exact(d, 1.0);  // Default mode: kExact.
  EpochRidgeState unit(d, 1.0, EpochConfig(1));

  const Matrix probes = RandomContexts(5, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    const double r = static_cast<double>(UniformInt(rng, 0, 1));
    plain.Update(train.Row(i), r);
    exact.Update(train.Row(i), r);
    unit.Update(train.Row(i), r);
    for (std::size_t p = 0; p < probes.rows(); ++p) {
      const double want_pred = plain.PredictedReward(probes.Row(p));
      const double want_width = plain.ConfidenceWidthSq(probes.Row(p));
      EXPECT_EQ(exact.PredictedReward(probes.Row(p)), want_pred);
      EXPECT_EQ(unit.PredictedReward(probes.Row(p)), want_pred);
      EXPECT_EQ(exact.ConfidenceWidthSq(probes.Row(p)), want_width);
      EXPECT_EQ(unit.ConfidenceWidthSq(probes.Row(p)), want_width);
    }
  }
  EXPECT_EQ(exact.Y(), plain.Y());
  EXPECT_EQ(unit.Y(), plain.Y());
  EXPECT_EQ(unit.num_observations(), plain.num_observations());
}

TEST(EpochRidgeTest, EpochBuffersAreStaleUntilTheBoundary) {
  Pcg64 rng(72);
  const std::size_t d = 6;
  const std::int64_t epoch = 8;
  EpochRidgeState learner(d, 1.0, EpochConfig(epoch));
  const Matrix train = RandomContexts(epoch, d, rng);
  const Vector theta0 = learner.ThetaHat();
  const std::int64_t version0 = learner.scoring_version();

  for (std::int64_t i = 0; i < epoch - 1; ++i) {
    learner.Update(train.Row(i), 1.0);
    // Mid-epoch: scoring surface frozen — same version, same theta.
    EXPECT_EQ(learner.scoring_version(), version0);
    EXPECT_EQ(learner.ThetaHat(), theta0);
    EXPECT_EQ(learner.num_observations(), 0);
    EXPECT_EQ(learner.total_observations(), i + 1);
  }
  learner.Update(train.Row(epoch - 1), 1.0);  // Boundary fires.
  EXPECT_GT(learner.scoring_version(), version0);
  EXPECT_EQ(learner.num_observations(), epoch);
  EXPECT_EQ(learner.num_epoch_applies(), 1);
}

TEST(EpochRidgeTest, AppliedEpochMatchesExactWithinBlockTolerance) {
  Pcg64 rng(73);
  const std::size_t d = 10;
  const std::size_t n = 200;
  const Matrix train = RandomContexts(n, d, rng);

  RidgeState plain(d, 1.0);
  EpochRidgeState epoch(d, 1.0, EpochConfig(16));
  for (std::size_t i = 0; i < n; ++i) {
    const double r = static_cast<double>(UniformInt(rng, 0, 1));
    plain.Update(train.Row(i), r);
    epoch.Update(train.Row(i), r);
  }
  epoch.Flush();  // Apply the partial tail epoch.
  EXPECT_EQ(epoch.num_observations(), static_cast<std::int64_t>(n));

  // Rank-k GEMM accumulation reorders the float sums of the sequential
  // rank-1 path, so equality is up to accumulation tolerance, not bits.
  const double scale = plain.Y().FrobeniusNorm();
  EXPECT_LE(epoch.Y().MaxAbsDiff(plain.Y()), 1e-10 * scale);
  const Vector& t1 = plain.ThetaHat();
  const Vector& t2 = epoch.ThetaHat();
  for (std::size_t j = 0; j < d; ++j) EXPECT_NEAR(t2[j], t1[j], 1e-8);
}

TEST(EpochRidgeTest, FullSizeSketchTracksExactScoring) {
  Pcg64 rng(74);
  const std::size_t d = 8;
  LearnerConfig config;
  config.mode = LearnerMode::kSketch;
  config.sketch_size = d;  // Lossless: FD keeps the full spectrum.
  EpochRidgeState sketch(d, 1.0, config);
  RidgeState plain(d, 1.0);

  const Matrix train = RandomContexts(120, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    const double r = static_cast<double>(UniformInt(rng, 0, 1));
    plain.Update(train.Row(i), r);
    sketch.Update(train.Row(i), r);
  }
  sketch.Refactorize();  // Force the tail rows into the sketch.

  const Matrix probes = RandomContexts(20, d, rng);
  for (std::size_t p = 0; p < probes.rows(); ++p) {
    EXPECT_NEAR(sketch.PredictedReward(probes.Row(p)),
                plain.PredictedReward(probes.Row(p)), 1e-8)
        << p;
    EXPECT_NEAR(sketch.ConfidenceWidthSq(probes.Row(p)),
                plain.ConfidenceWidthSq(probes.Row(p)), 1e-8)
        << p;
  }

  // Batched scoring (the θ̂ GEMV and width kernel the policies run over
  // the learner) agrees with the per-row Woodbury path.
  std::vector<double> pred(probes.rows());
  std::vector<double> width(probes.rows());
  GemvRows(probes, sketch.ThetaHat().span(), pred);
  sketch.ConfidenceWidthSqBatch(probes, width);
  for (std::size_t p = 0; p < probes.rows(); ++p) {
    EXPECT_NEAR(pred[p], sketch.PredictedReward(probes.Row(p)), 1e-12);
    EXPECT_NEAR(width[p], sketch.ConfidenceWidthSq(probes.Row(p)), 1e-12);
  }
}

TEST(EpochRidgeTest, UndersizedSketchKeepsMemorySublinearInD) {
  Pcg64 rng(75);
  const std::size_t d = 96;
  LearnerConfig config;
  config.mode = LearnerMode::kSketch;
  config.sketch_size = 8;
  EpochRidgeState sketch(d, 1.0, config);
  const Matrix train = RandomContexts(600, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    sketch.Update(train.Row(i), 1.0);
  }
  // No d×d state anywhere: the sketch learner must stay well below the
  // dense learner's Y + Y⁻¹ + factor footprint.
  RidgeState dense(d, 1.0);
  EXPECT_LT(sketch.MemoryBytes(), dense.MemoryBytes() / 4);
  EXPECT_FALSE(sketch.has_exact());

  // Widths stay sane: in (0, 1/lambda] for unit-norm probes.
  const Matrix probes = RandomContexts(10, d, rng);
  for (std::size_t p = 0; p < probes.rows(); ++p) {
    const double w = sketch.ConfidenceWidthSq(probes.Row(p));
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0 + 1e-12);
  }
}

TEST(EpochRidgeTest, SamplePosteriorConcentratesOnThetaHat) {
  Pcg64 rng(76);
  const std::size_t d = 6;
  LearnerConfig config;
  config.mode = LearnerMode::kSketch;
  config.sketch_size = d;
  EpochRidgeState sketch(d, 1.0, config);
  const Matrix train = RandomContexts(80, d, rng);
  for (std::size_t i = 0; i < train.rows(); ++i) {
    sketch.Update(train.Row(i), static_cast<double>(UniformInt(rng, 0, 1)));
  }

  Pcg64 sample_rng(77);
  Vector draw;
  // q = 0: the draw is exactly theta-hat.
  ASSERT_TRUE(sketch.SamplePosterior(sample_rng, 0.0, &draw));
  const Vector& theta = sketch.ThetaHat();
  for (std::size_t j = 0; j < d; ++j) EXPECT_NEAR(draw[j], theta[j], 1e-12);

  // q > 0: draws vary but stay finite.
  ASSERT_TRUE(sketch.SamplePosterior(sample_rng, 0.5, &draw));
  double diff = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_TRUE(std::isfinite(draw[j]));
    diff += std::abs(draw[j] - theta[j]);
  }
  EXPECT_GT(diff, 0.0);
}

/// Every deterministic field of a trajectory.
void ExpectSameTrajectory(const TrajectoryResult& a,
                          const TrajectoryResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.cum_rewards, b.cum_rewards);
  EXPECT_EQ(a.cum_arranged, b.cum_arranged);
  EXPECT_EQ(a.total_regret, b.total_regret);
  EXPECT_EQ(a.final_reward, b.final_reward);
  EXPECT_EQ(a.final_regret, b.final_regret);
}

SyntheticExperiment Fig1Small() {
  SyntheticExperiment exp;
  exp.data.seed = 20170514;
  exp.run_seed = 42;
  ApplyScale(0.005, &exp.data);  // T = 500.
  return exp;
}

TEST(EpochRidgeSimTest, UnitEpochIsBitIdenticalOnFig1Default) {
  SyntheticExperiment exp = Fig1Small();
  const SimulationResult exact = RunSyntheticExperiment(exp);
  exp.params.learner = EpochConfig(1);
  const SimulationResult unit = RunSyntheticExperiment(exp);
  ASSERT_EQ(exact.policies.size(), unit.policies.size());
  ExpectSameTrajectory(exact.reference, unit.reference);
  for (std::size_t i = 0; i < exact.policies.size(); ++i) {
    ExpectSameTrajectory(exact.policies[i], unit.policies[i]);
  }
}

TEST(EpochRidgeSimTest, RealisticEpochStaysWithinRegretTolerance) {
  SyntheticExperiment exp = Fig1Small();
  const SimulationResult exact = RunSyntheticExperiment(exp);
  exp.params.learner = EpochConfig(64);
  const SimulationResult epoch = RunSyntheticExperiment(exp);

  // Documented tolerance (DESIGN.md §15): with epoch staleness < 64
  // observations on the fig1 default config, each policy's final accept
  // ratio stays within 0.05 absolute of the exact learner's.
  ASSERT_EQ(exact.policies.size(), epoch.policies.size());
  for (std::size_t i = 0; i < exact.policies.size(); ++i) {
    const TrajectoryResult& a = exact.policies[i];
    const TrajectoryResult& b = epoch.policies[i];
    ASSERT_EQ(a.name, b.name);
    const double ratio_a =
        a.final_arranged > 0 ? a.final_reward / a.final_arranged : 0.0;
    const double ratio_b =
        b.final_arranged > 0 ? b.final_reward / b.final_arranged : 0.0;
    EXPECT_NEAR(ratio_a, ratio_b, 0.05) << a.name;
  }
}

}  // namespace
}  // namespace fasea
