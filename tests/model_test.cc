#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "model/context.h"
#include "model/instance.h"
#include "model/platform_state.h"
#include "model/round_provider.h"
#include "model/types.h"

namespace fasea {
namespace {

ProblemInstance SmallInstance() {
  ConflictGraph g(3);
  g.AddConflict(0, 1);
  auto instance = ProblemInstance::Create({2, 1, 0}, std::move(g), 4);
  FASEA_CHECK(instance.ok());
  return std::move(instance).value();
}

TEST(TypesTest, NumAccepted) {
  EXPECT_EQ(NumAccepted({}), 0);
  EXPECT_EQ(NumAccepted({1, 0, 1, 1}), 3);
  EXPECT_EQ(NumAccepted({0, 0}), 0);
}

TEST(InstanceTest, CreateValid) {
  const ProblemInstance inst = SmallInstance();
  EXPECT_EQ(inst.num_events(), 3u);
  EXPECT_EQ(inst.dim(), 4u);
  EXPECT_EQ(inst.capacity(0), 2);
  EXPECT_EQ(inst.capacity(2), 0);
  EXPECT_EQ(inst.TotalCapacity(), 3);
  EXPECT_TRUE(inst.conflicts().Conflicts(0, 1));
}

TEST(InstanceTest, CreateRejectsBadInputs) {
  EXPECT_FALSE(
      ProblemInstance::Create({1, 2}, ConflictGraph(3), 4).ok());  // Size.
  EXPECT_FALSE(
      ProblemInstance::Create({1, -2}, ConflictGraph(2), 4).ok());  // Neg.
  EXPECT_FALSE(
      ProblemInstance::Create({1, 2}, ConflictGraph(2), 0).ok());  // Dim.
}

TEST(PlatformStateTest, TracksRemainingCapacity) {
  const ProblemInstance inst = SmallInstance();
  PlatformState state(inst);
  EXPECT_EQ(state.remaining(0), 2);
  EXPECT_TRUE(state.HasCapacity(0));
  EXPECT_FALSE(state.HasCapacity(2));
  EXPECT_EQ(state.NumAvailableEvents(), 2);
  EXPECT_EQ(state.TotalRemaining(), 3);

  state.ConsumeOne(0);
  EXPECT_EQ(state.remaining(0), 1);
  state.ConsumeOne(0);
  EXPECT_FALSE(state.HasCapacity(0));
  EXPECT_EQ(state.NumAvailableEvents(), 1);
  EXPECT_FALSE(state.Exhausted());
  state.ConsumeOne(1);
  EXPECT_TRUE(state.Exhausted());
}

TEST(PlatformStateDeathTest, OverconsumingAborts) {
  const ProblemInstance inst = SmallInstance();
  PlatformState state(inst);
  EXPECT_DEATH(state.ConsumeOne(2), "FASEA_CHECK");
}

TEST(RoundContextTest, ValidationAcceptsGoodRound) {
  RoundContext round;
  round.contexts = ContextMatrix(3, 4);
  round.contexts(0, 0) = 0.5;
  round.user_capacity = 2;
  EXPECT_TRUE(ValidateRoundContext(round, 3, 4).ok());
}

TEST(RoundContextTest, ValidationRejectsShapeMismatch) {
  RoundContext round;
  round.contexts = ContextMatrix(2, 4);
  round.user_capacity = 1;
  EXPECT_FALSE(ValidateRoundContext(round, 3, 4).ok());
  round.contexts = ContextMatrix(3, 5);
  EXPECT_FALSE(ValidateRoundContext(round, 3, 4).ok());
}

TEST(RoundContextTest, ValidationRejectsZeroCapacity) {
  RoundContext round;
  round.contexts = ContextMatrix(1, 1);
  round.user_capacity = 0;
  EXPECT_FALSE(ValidateRoundContext(round, 1, 1).ok());
}

TEST(RoundContextTest, ValidationRejectsOverlongContexts) {
  RoundContext round;
  round.contexts = ContextMatrix(1, 2);
  round.contexts(0, 0) = 0.9;
  round.contexts(0, 1) = 0.9;  // Norm ≈ 1.27 > 1.
  round.user_capacity = 1;
  EXPECT_FALSE(ValidateRoundContext(round, 1, 2).ok());
}

// The pre-interleave validator: one row at a time, each summing its
// squares in sequential j-order. ValidateRoundContext must return its
// exact verdict, event index and message.
Status SerialScan(const RoundContext& round, std::size_t num_events) {
  for (std::size_t v = 0; v < num_events; ++v) {
    double norm_sq = 0.0;
    for (double x : round.contexts.Row(v)) {
      if (!std::isfinite(x)) {
        return InvalidArgumentError(StrFormat(
            "context of event %zu contains a non-finite value", v));
      }
      norm_sq += x * x;
    }
    if (norm_sq > 1.0 + 1e-9) {
      return InvalidArgumentError(StrFormat(
          "context of event %zu has norm %.6f > 1", v, std::sqrt(norm_sq)));
    }
  }
  return Status::Ok();
}

TEST(RoundContextTest, GroupedValidationMatchesSerialScanAtEveryPosition) {
  // |V| = 4k + 3: two full 4-row groups, then a 3-row tail.
  constexpr std::size_t kEvents = 11, kDim = 5;
  constexpr double kClean = 0.2;  // A clean row has norm² 5·0.04 = 0.2.
  // 1 + 2e-9 fails the 1 + 1e-9 tolerance; spread evenly, it rounds to a
  // norm² just above the bound.
  const double just_over = std::sqrt((1.0 + 2e-9) / kDim);
  const struct {
    const char* name;
    std::vector<double> row;  // Replaces the row; empty = poke one entry.
    double poke;
  } kBad[] = {
      {"NaN", {}, std::numeric_limits<double>::quiet_NaN()},
      {"+inf", {}, std::numeric_limits<double>::infinity()},
      {"overflowing square", {}, 1e200},
      {"norm² 1+2e-9", std::vector<double>(kDim, just_over), 0.0},
  };
  for (const auto& bad : kBad) {
    for (std::size_t v = 0; v < kEvents; ++v) {
      for (std::size_t j : {std::size_t{0}, kDim - 1}) {
        RoundContext round;
        round.user_capacity = 1;
        round.contexts = Matrix(kEvents, kDim);
        round.contexts.Fill(kClean);
        if (bad.row.empty()) {
          round.contexts(v, j) = bad.poke;
        } else {
          for (std::size_t c = 0; c < kDim; ++c) {
            round.contexts(v, c) = bad.row[c];
          }
        }
        // A second bad row later must not win over the first.
        if (v + 2 < kEvents) round.contexts(v + 2, 0) = 5.0;
        const Status expected = SerialScan(round, kEvents);
        ASSERT_FALSE(expected.ok()) << bad.name;
        const Status actual = ValidateRoundContext(round, kEvents, kDim);
        EXPECT_EQ(actual.code(), expected.code()) << bad.name << " at " << v;
        EXPECT_EQ(actual.message(), expected.message())
            << bad.name << " at event " << v << ", column " << j;
      }
    }
  }
  RoundContext clean;
  clean.user_capacity = 1;
  clean.contexts = Matrix(kEvents, kDim);
  clean.contexts.Fill(kClean);
  EXPECT_TRUE(SerialScan(clean, kEvents).ok());
  EXPECT_TRUE(ValidateRoundContext(clean, kEvents, kDim).ok());
}

TEST(RoundContextTest, AvailabilityDefaultsToAll) {
  RoundContext round;
  round.contexts = ContextMatrix(2, 1);
  EXPECT_TRUE(round.IsAvailable(0));
  round.available = {1, 0};
  EXPECT_TRUE(round.IsAvailable(0));
  EXPECT_FALSE(round.IsAvailable(1));
}

TEST(LinearFeedbackModelTest, ExpectedRewardIsClampedDot) {
  LinearFeedbackModel model(Vector{1.0, 0.0});
  ContextMatrix ctx(3, 2);
  ctx(0, 0) = 0.6;             // reward 0.6
  ctx(1, 0) = -0.4;            // clamped to 0
  ctx(2, 0) = 0.9;             // 0.9
  EXPECT_DOUBLE_EQ(model.ExpectedReward(1, ctx, 0), 0.6);
  EXPECT_DOUBLE_EQ(model.ExpectedReward(1, ctx, 1), 0.0);
  EXPECT_DOUBLE_EQ(model.ExpectedReward(1, ctx, 2), 0.9);
}

TEST(LinearFeedbackModelTest, SampleMatchesProbabilities) {
  LinearFeedbackModel model(Vector{1.0});
  ContextMatrix ctx(2, 1);
  ctx(0, 0) = 1.0;  // Always accepted.
  ctx(1, 0) = 0.0;  // Never accepted.
  Pcg64 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const Feedback fb = model.Sample(1, ctx, {0, 1}, rng);
    ASSERT_EQ(fb.size(), 2u);
    EXPECT_EQ(fb[0], 1);
    EXPECT_EQ(fb[1], 0);
  }
}

TEST(LinearFeedbackModelTest, SampleFrequencyNearExpectation) {
  LinearFeedbackModel model(Vector{0.3});
  ContextMatrix ctx(1, 1);
  ctx(0, 0) = 1.0;
  Pcg64 rng(2);
  int accepted = 0;
  const int kTrials = 100000;
  for (int trial = 0; trial < kTrials; ++trial) {
    accepted += model.Sample(1, ctx, {0}, rng)[0];
  }
  EXPECT_NEAR(static_cast<double>(accepted) / kTrials, 0.3, 0.01);
}

}  // namespace
}  // namespace fasea
