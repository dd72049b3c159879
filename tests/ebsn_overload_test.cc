// Overload protection on the serving path: admission shedding
// (kResourceExhausted), deadline enforcement (kDeadlineExceeded), and
// lame-duck draining — all before the round pipeline does any work.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "rng/seed.h"

namespace fasea {
namespace {

SyntheticConfig SmallConfig(std::uint64_t seed = 21) {
  SyntheticConfig config;
  config.num_events = 16;
  config.dim = 4;
  config.horizon = 1000;
  config.seed = seed;
  return config;
}

/// Serves one round and submits sampled feedback; returns the serve
/// status (feedback errors fail the test).
Status DriveRound(ArrangementService* service, SyntheticWorld* world,
                  const RoundContext& round, Pcg64& rng) {
  auto arrangement =
      service->ServeUser(round.user_id, round.user_capacity, round.contexts);
  if (!arrangement.ok()) return arrangement.status();
  const Feedback feedback =
      world->feedback().Sample(1, round.contexts, *arrangement, rng);
  Status st = service->SubmitFeedback(feedback);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return st;
}

TEST(OverloadTest, TokenBucketShedsBeyondTheBurst) {
  auto world = SyntheticWorld::Create(SmallConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/3);
  OverloadOptions overload;
  overload.max_rps = 0.001;  // Refill is negligible within the test.
  overload.burst = 3.0;
  service.ConfigureOverload(overload);

  const RoundContext round = (*world)->provider().NextRound(1);
  Pcg64 rng(1, 1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(DriveRound(&service, world->get(), round, rng).ok()) << i;
  }
  const Status shed =
      service.ServeUser(round.user_id, round.user_capacity, round.contexts)
          .status();
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(shed));  // Clients back off and retry.
  EXPECT_EQ(service.rounds_shed(), 1);
  EXPECT_EQ(service.rounds_served(), 3);
  EXPECT_EQ(service.Health().rounds_shed, 1);
  // Shedding happens before the pipeline: no round is left pending.
  EXPECT_FALSE(service.AwaitingFeedback());
}

TEST(OverloadTest, ExpiredDeadlineIsRejectedNotRetried) {
  auto world = SyntheticWorld::Create(SmallConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/3);
  const RoundContext round = (*world)->provider().NextRound(1);

  const Status late =
      service
          .ServeUser(round.user_id, round.user_capacity, round.contexts,
                     Deadline::AfterNanos(0))
          .status();
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(IsRetryable(late));  // The caller has moved on.
  EXPECT_EQ(service.deadline_exceeded(), 1);

  // An expired feedback deadline leaves the round pending and
  // resubmittable.
  auto arrangement =
      service.ServeUser(round.user_id, round.user_capacity, round.contexts);
  ASSERT_TRUE(arrangement.ok());
  Pcg64 rng(1, 1);
  const Feedback feedback = (*world)->feedback().Sample(
      1, round.contexts, *arrangement, rng);
  EXPECT_EQ(service.SubmitFeedback(feedback, nullptr, Deadline::AfterNanos(0))
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(service.AwaitingFeedback());
  EXPECT_TRUE(service.SubmitFeedback(feedback).ok());
  EXPECT_EQ(service.deadline_exceeded(), 2);
}

TEST(OverloadTest, LameDuckDrainsThePendingRound) {
  auto world = SyntheticWorld::Create(SmallConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/3);
  const RoundContext round = (*world)->provider().NextRound(1);

  auto arrangement =
      service.ServeUser(round.user_id, round.user_capacity, round.contexts);
  ASSERT_TRUE(arrangement.ok());
  service.EnterLameDuck();
  EXPECT_TRUE(service.lame_duck());
  EXPECT_EQ(service.Health().state, HealthState::kLameDuck);

  // New rounds are rejected...
  EXPECT_EQ(service.ServeUser(round.user_id, round.user_capacity,
                              round.contexts)
                .status()
                .code(),
            StatusCode::kUnavailable);
  // ...while the pending round still completes.
  Pcg64 rng(1, 1);
  const Feedback feedback = (*world)->feedback().Sample(
      1, round.contexts, *arrangement, rng);
  EXPECT_TRUE(service.SubmitFeedback(feedback).ok());
  EXPECT_FALSE(service.AwaitingFeedback());
  EXPECT_EQ(service.rounds_served(), 1);
}

TEST(OverloadTest, InflightCapKeepsConcurrentDriveConsistent) {
  auto world = SyntheticWorld::Create(SmallConfig(31));
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/5);
  OverloadOptions overload;
  overload.max_inflight = 2;
  service.ConfigureOverload(overload);

  std::vector<RoundContext> rounds(8);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i] = (*world)->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }
  const std::int64_t target = 200;
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> arranged{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Pcg64 rng(DeriveSeed(31, "overload", static_cast<std::uint64_t>(w)),
                static_cast<std::uint64_t>(w));
      while (completed.load(std::memory_order_relaxed) < target) {
        const RoundContext& round =
            rounds[static_cast<std::size_t>(
                       completed.load(std::memory_order_relaxed)) %
                   rounds.size()];
        auto arrangement = service.ServeUser(
            round.user_id, round.user_capacity, round.contexts);
        if (!arrangement.ok()) {
          // Contention (FailedPrecondition) or shed (ResourceExhausted):
          // both retryable in a closed loop.
          std::this_thread::yield();
          continue;
        }
        const Feedback feedback = (*world)->feedback().Sample(
            1, round.contexts, *arrangement, rng);
        const Status st = service.SubmitFeedback(feedback);
        EXPECT_TRUE(st.ok()) << st.ToString();
        if (!st.ok()) return;
        arranged.fetch_add(static_cast<std::int64_t>(arrangement->size()),
                           std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_GE(service.rounds_served(), target);
  EXPECT_EQ(service.rounds_served(), completed.load());
  // Every served round was committed and learned from.
  const auto* base = dynamic_cast<const LinearPolicyBase*>(&service.policy());
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->ridge().num_observations(), arranged.load());
  EXPECT_FALSE(service.AwaitingFeedback());
  EXPECT_GE(service.rounds_shed(), 0);
}

TEST(OverloadTest, HealthSnapshotOnAFreshService) {
  auto world = SyntheticWorld::Create(SmallConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/3);
  const HealthSnapshot health = service.Health();
  EXPECT_EQ(health.state, HealthState::kHealthy);
  EXPECT_FALSE(health.wal_attached);
  EXPECT_FALSE(health.wal_degraded);
  EXPECT_TRUE(health.learner_healthy);
  EXPECT_FALSE(health.breaker_enabled);
  EXPECT_EQ(health.rounds_served, 0);
  EXPECT_EQ(HealthStateName(HealthState::kHealthy), "healthy");
  EXPECT_EQ(HealthStateName(HealthState::kDegraded), "degraded");
  EXPECT_EQ(HealthStateName(HealthState::kLameDuck), "lame-duck");
}

}  // namespace
}  // namespace fasea
