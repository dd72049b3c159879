// LazyScorer driven directly, round by round, against GreedyOracle::Select
// over the exact scores pred(v) + α·√width²(v) of the same learner state.
//  * Every round mixes availability masks (Remark 2), events out of seats,
//    conflicts and duplicated contexts (equal scores, broken by id).
//  * The exact learner changes version every round; the epoch learner
//    keeps one version over several Selects, so exact scores carry over
//    between rounds; the sketch learner runs with widths_monotone = false,
//    whose bounds must cover a width that grew.
//  * α = 0 (eGreedy's exploitation) as well as UCB's α.
//  * A NaN drift orders every bound as +∞: everything is rescored and the
//    arrangement is still the greedy one.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/epoch_ridge.h"
#include "core/lazy_scorer.h"
#include "core/policy.h"
#include "core/ridge.h"
#include "linalg/matrix.h"
#include "model/instance.h"
#include "oracle/greedy.h"
#include "rng/distributions.h"
#include "rng/pcg64.h"

namespace fasea {
namespace {

constexpr std::size_t kEvents = 240;
constexpr std::size_t kDim = 6;
constexpr double kLambda = 1.0;

struct World {
  ProblemInstance instance;
  Matrix contexts;  // kEvents × kDim, ‖x‖ ≤ 1.
};

World MakeWorld(Pcg64& rng) {
  std::vector<std::int64_t> caps(kEvents);
  for (auto& c : caps) c = UniformInt(rng, 0, 3);  // Some start full.
  ConflictGraph conflicts = ConflictGraph::Random(kEvents, 0.02, rng);
  auto instance =
      ProblemInstance::Create(std::move(caps), std::move(conflicts), kDim);
  FASEA_CHECK(instance.ok());
  Matrix contexts(kEvents, kDim);
  for (std::size_t v = 0; v < kEvents; ++v) {
    std::span<double> row = contexts.Row(v);
    if (v % 5 == 4) {
      // A copy of the previous event: bit-equal scores, ordered by id.
      std::span<const double> prev = contexts.Row(v - 1);
      std::copy(prev.begin(), prev.end(), row.begin());
      continue;
    }
    double norm_sq = 0.0;
    for (double& x : row) {
      x = UniformReal(rng, -1.0, 1.0);
      norm_sq += x * x;
    }
    const double scale = UniformReal(rng, 0.2, 1.0) / std::sqrt(norm_sq);
    for (double& x : row) x *= scale;
  }
  return {std::move(instance).value(), std::move(contexts)};
}

/// Runs `rounds` lazy rounds over a seeded world, asserting each one
/// equals the eager greedy arrangement; returns the rescore count.
std::int64_t RunAgainstGreedy(const LearnerConfig& learner, double alpha,
                              std::uint64_t seed, int rounds) {
  Pcg64 rng(seed);
  const World world = MakeWorld(rng);
  const ConflictGraph& conflicts = world.instance.conflicts();
  EpochRidgeState ridge(kDim, kLambda, learner);
  LazyScorer scorer(kEvents, 1.0 / kLambda, alpha,
                    /*widths_monotone=*/learner.mode != LearnerMode::kSketch);
  PlatformState state(world.instance);
  GreedyOracle oracle;
  const auto exact = [&](EventId v) {
    LazyEventScore s;
    s.pred = ridge.PredictedReward(world.contexts.Row(v));
    s.width_sq = ridge.ConfidenceWidthSq(world.contexts.Row(v));
    return s;
  };
  std::vector<double> scores(kEvents);
  for (int t = 0; t < rounds; ++t) {
    RoundContext round;
    round.user_capacity = UniformInt(rng, 1, 6);
    if (t % 3 != 0) {
      round.available.resize(kEvents);
      for (auto& a : round.available) a = Bernoulli(rng, 0.8) ? 1 : 0;
    }
    for (EventId v = 0; v < kEvents; ++v) {
      const LazyEventScore s = exact(v);
      scores[v] = s.pred + alpha * std::sqrt(s.width_sq);
    }
    ApplyAvailabilityMask(round, scores);
    const Arrangement want =
        oracle.Select(scores, conflicts, state, round.user_capacity);
    const Arrangement got =
        scorer.Select(exact, round, conflicts, state, round.user_capacity);
    EXPECT_EQ(got, want) << "round " << t;
    if (got != want) break;
    for (EventId v : got) {
      const bool accepted = Bernoulli(rng, 0.6);
      if (accepted) state.ConsumeOne(v);
      ridge.Update(world.contexts.Row(v), accepted ? 1.0 : 0.0);
    }
    scorer.NoteLearn(ridge.ThetaHat(), ridge.scoring_version());
  }
  return scorer.num_rescores();
}

TEST(LazyScorerTest, ExactLearnerMatchesGreedy) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunAgainstGreedy(LearnerConfig{}, /*alpha=*/0.4, seed, 150);
  }
}

TEST(LazyScorerTest, ZeroAlphaMatchesGreedy) {
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    RunAgainstGreedy(LearnerConfig{}, /*alpha=*/0.0, seed, 150);
  }
}

TEST(LazyScorerTest, EpochLearnerCarriesExactScoresAcrossRounds) {
  LearnerConfig epoch;
  epoch.mode = LearnerMode::kEpoch;
  epoch.epoch_length = 16;  // About four rounds per learner version.
  std::int64_t epoch_rescores = 0;
  std::int64_t exact_rescores = 0;
  for (std::uint64_t seed = 9; seed <= 12; ++seed) {
    epoch_rescores += RunAgainstGreedy(epoch, 0.4, seed, 150);
    exact_rescores += RunAgainstGreedy(LearnerConfig{}, 0.4, seed, 150);
  }
  // Rounds inside a version reuse the exact scores of earlier rounds.
  EXPECT_LT(epoch_rescores, exact_rescores);
}

TEST(LazyScorerTest, SketchLearnerWithNonMonotoneWidthsMatchesGreedy) {
  LearnerConfig sketch;
  sketch.mode = LearnerMode::kSketch;
  sketch.sketch_size = 3;  // m < d: shrinks happen and widths can grow.
  for (std::uint64_t seed = 13; seed <= 16; ++seed) {
    RunAgainstGreedy(sketch, 0.4, seed, 150);
  }
}

TEST(LazyScorerTest, GrowingWidthsAreBoundedByTheAprioriWidth) {
  // Under a sketch a width can grow between versions; the bound must use
  // width0, not the cached width, or the grown event is never rescored.
  constexpr std::size_t kN = 4;
  auto instance = ProblemInstance::Create(std::vector<std::int64_t>(kN, 1),
                                          ConflictGraph(kN), 1);
  ASSERT_TRUE(instance.ok());
  const PlatformState state(*instance);
  const std::vector<double> pred = {0.5, 0.4, 0.3, 0.2};
  std::vector<double> width_sq(kN, 0.01);
  const auto table = [&](EventId v) {
    return LazyEventScore{pred[v], width_sq[v]};
  };
  LazyScorer scorer(kN, /*width0=*/1.0, /*alpha=*/1.0,
                    /*widths_monotone=*/false);
  const Vector theta(1);  // θ̂ stays 0: no drift, only new versions.
  scorer.NoteLearn(theta, 1);
  RoundContext round;
  EXPECT_EQ(scorer.Select(table, round, instance->conflicts(), state, 4),
            (Arrangement{0, 1, 2, 3}));
  width_sq[3] = 0.81;  // Score 0.2 + 0.9 now beats 0.5 + 0.1.
  scorer.NoteLearn(theta, 2);
  EXPECT_EQ(scorer.Select(table, round, instance->conflicts(), state, 1),
            (Arrangement{3}));
}

TEST(LazyScorerTest, RepeatedSelectWithinAVersionRescoresNothing) {
  Pcg64 rng(17);
  const World world = MakeWorld(rng);
  RidgeState ridge(kDim, kLambda);
  for (std::size_t i = 0; i < 40; ++i) {
    ridge.Update(world.contexts.Row(i), i % 2 == 0 ? 1.0 : 0.0);
  }
  LazyScorer scorer(kEvents, 1.0 / kLambda, 0.4);
  scorer.NoteLearn(ridge.ThetaHat(), 1);
  const auto exact = [&](EventId v) {
    return LazyEventScore{ridge.PredictedReward(world.contexts.Row(v)),
                          ridge.ConfidenceWidthSq(world.contexts.Row(v))};
  };
  const PlatformState state(world.instance);
  RoundContext round;
  round.user_capacity = 5;
  const Arrangement first = scorer.Select(
      exact, round, world.instance.conflicts(), state, round.user_capacity);
  const std::int64_t rescores = scorer.num_rescores();
  EXPECT_GT(rescores, 0);
  const Arrangement second = scorer.Select(
      exact, round, world.instance.conflicts(), state, round.user_capacity);
  EXPECT_EQ(second, first);
  EXPECT_EQ(scorer.num_rescores(), rescores);
  // Per event: the cached prediction and width plus one order node.
  EXPECT_GE(scorer.MemoryBytes(),
            kEvents * (2 * sizeof(double) + 3 * sizeof(void*)));
}

TEST(LazyScorerTest, NanDriftRescoresEverythingAndStaysGreedy) {
  constexpr std::size_t kN = 50;
  auto instance = ProblemInstance::Create(std::vector<std::int64_t>(kN, 1),
                                          ConflictGraph(kN), 1);
  ASSERT_TRUE(instance.ok());
  const PlatformState state(*instance);
  Pcg64 rng(19);
  std::vector<double> table(kN);
  for (double& s : table) {
    s = 0.25 * static_cast<double>(UniformInt(rng, -4, 4));
  }
  LazyScorer scorer(kN, 1.0, 0.4);
  Vector nan_theta(1);
  nan_theta[0] = std::numeric_limits<double>::quiet_NaN();
  scorer.NoteLearn(nan_theta, 1);
  RoundContext round;
  round.user_capacity = 7;
  const Arrangement got = scorer.Select(
      [&](EventId v) { return LazyEventScore{table[v], 0.0}; }, round,
      instance->conflicts(), state, round.user_capacity);
  GreedyOracle oracle;
  EXPECT_EQ(got, oracle.Select(table, instance->conflicts(), state,
                               round.user_capacity));
  EXPECT_EQ(scorer.num_rescores(), static_cast<std::int64_t>(kN));
}

}  // namespace
}  // namespace fasea
