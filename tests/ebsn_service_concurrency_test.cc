// Concurrency stress for the mutex-guarded serving path: many closed-loop
// workers drive one ArrangementService; the protocol invariants (one
// pending arrangement, round counter == applied feedbacks, log size ==
// rounds) must hold and TSan must see no data races. tools/check.sh runs
// this file under -DFASEA_SANITIZE=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "rng/seed.h"

namespace fasea {
namespace {

struct LoadResult {
  std::int64_t served = 0;
  std::int64_t contention = 0;
};

/// Runs `threads` closed-loop workers against one service until
/// `target_rounds` rounds have been served in total.
LoadResult DriveConcurrently(ArrangementService* service,
                             SyntheticWorld* world, int threads,
                             std::int64_t target_rounds) {
  // The provider reuses buffers; give the workers private round copies.
  std::vector<RoundContext> rounds(16);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i] = world->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }

  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> contention{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Pcg64 rng(DeriveSeed(99, "stress", static_cast<std::uint64_t>(w)),
                static_cast<std::uint64_t>(w));
      while (completed.load(std::memory_order_relaxed) < target_rounds) {
        const RoundContext& round =
            rounds[static_cast<std::size_t>(
                completed.load(std::memory_order_relaxed)) % rounds.size()];
        auto arrangement = service->ServeUser(
            round.user_id, round.user_capacity, round.contexts);
        if (!arrangement.ok()) {
          // Another worker's round is pending — the guarded protocol's
          // answer to a concurrent serve.
          contention.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
          continue;
        }
        const Feedback feedback = world->feedback().Sample(
            1, round.contexts, *arrangement, rng);
        const Status st = service->SubmitFeedback(feedback);
        EXPECT_TRUE(st.ok()) << st.ToString();
        if (!st.ok()) return;
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return {completed.load(), contention.load()};
}

SyntheticConfig StressConfig() {
  SyntheticConfig config;
  config.num_events = 20;
  config.dim = 4;
  config.horizon = 1000;
  config.seed = 11;
  return config;
}

TEST(ServiceConcurrencyTest, ClosedLoopWorkersKeepProtocolConsistent) {
  auto world = SyntheticWorld::Create(StressConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);

  const std::int64_t target = 400;
  const LoadResult result =
      DriveConcurrently(&service, world->get(), /*threads=*/4, target);

  // Workers may overshoot by at most threads-1 rounds (each checks the
  // budget before serving).
  EXPECT_GE(result.served, target);
  EXPECT_LT(result.served, target + 4);
  EXPECT_EQ(service.rounds_served(), result.served);
  EXPECT_EQ(static_cast<std::int64_t>(service.log().size()), result.served);
  EXPECT_FALSE(service.AwaitingFeedback());
}

TEST(ServiceConcurrencyTest, ConcurrentHealthReadsDuringServing) {
  auto world = SyntheticWorld::Create(StressConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kEpsGreedy,
                             PolicyParams{}, /*seed=*/13);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::int64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int64_t now = service.rounds_served();
      EXPECT_GE(now, last);  // Monotone under the lock.
      last = now;
      (void)service.AwaitingFeedback();
      (void)service.wal_attached();
      (void)service.wal_degraded();
      (void)service.stateless_fallbacks();
      (void)service.wal_append_failures();
      std::this_thread::yield();
    }
  });
  const LoadResult result =
      DriveConcurrently(&service, world->get(), /*threads=*/3, 300);
  stop.store(true);
  reader.join();
  EXPECT_GE(result.served, 300);
}

TEST(ServiceConcurrencyTest, BatchedClosedLoopKeepsProtocolConsistent) {
  // The batched protocol under the same closed-loop stress: workers
  // serve, resolve and commit concurrently, every round gets its
  // feedback, and nothing is left pending at the end.
  auto world = SyntheticWorld::Create(StressConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  BatchingOptions options;
  service.ConfigureBatching(options);

  std::vector<RoundContext> rounds(16);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    rounds[i] =
        (*world)->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }

  const std::int64_t target = 300;
  std::atomic<std::int64_t> completed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Pcg64 rng(DeriveSeed(99, "batched", static_cast<std::uint64_t>(w)),
                static_cast<std::uint64_t>(w));
      while (completed.load(std::memory_order_relaxed) < target) {
        const RoundContext& round =
            rounds[static_cast<std::size_t>(
                completed.load(std::memory_order_relaxed)) % rounds.size()];
        auto served = service.ServeUserBatched(
            round.user_id, round.user_capacity, round.contexts);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        const Feedback feedback = (*world)->feedback().Sample(
            1, round.contexts, served->arrangement, rng);
        const Status st =
            service.SubmitBatchedFeedback(served->ticket, feedback);
        ASSERT_TRUE(st.ok()) << st.ToString();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_GE(completed.load(), target);
  EXPECT_EQ(service.rounds_served(), completed.load());
  EXPECT_EQ(static_cast<std::int64_t>(service.log().size()),
            completed.load());
  EXPECT_EQ(service.pending_batched_rounds(), 0);
}

TEST(ServiceConcurrencyTest, SnapshotStalenessInvariant) {
  // Readers grab published snapshots while feedback commits hammer the
  // learner: epochs must be monotone per reader and every snapshot must
  // be internally consistent (theta_checksum == Σ θ̂ᵢ), proving a
  // snapshot is never a torn view of a mutating learner.
  auto world = SyntheticWorld::Create(StressConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  service.ConfigureBatching(BatchingOptions{});

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::int64_t last_epoch = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = service.CurrentSnapshot();
        ASSERT_NE(snapshot, nullptr);
        ASSERT_GE(snapshot->epoch, last_epoch);
        last_epoch = snapshot->epoch;
        double sum = 0.0;
        for (std::size_t i = 0; i < snapshot->theta_hat.size(); ++i) {
          sum += snapshot->theta_hat[i];
        }
        ASSERT_EQ(sum, snapshot->theta_checksum);
        std::this_thread::yield();
      }
    });
  }

  Pcg64 rng(DeriveSeed(99, "staleness"));
  std::int64_t observations = 0;
  for (std::int64_t t = 1; t <= 200; ++t) {
    RoundContext round = (*world)->provider().NextRound(t);
    auto served = service.ServeUserBatched(round.user_id,
                                           round.user_capacity,
                                           round.contexts);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, served->arrangement, rng);
    ASSERT_TRUE(
        service.SubmitBatchedFeedback(served->ticket, feedback).ok());
    observations += static_cast<std::int64_t>(served->arrangement.size());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  // The epoch is the learner's observation count: one per arranged seat.
  EXPECT_EQ(service.CurrentSnapshot()->epoch, observations);
}

TEST(ServiceConcurrencyTest, SingleThreadProtocolErrorsStillReported) {
  // The lock must not change single-caller semantics: serving twice
  // without feedback is still a FailedPrecondition, not a deadlock.
  auto world = SyntheticWorld::Create(StressConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  const RoundContext round = (*world)->provider().NextRound(1);
  ASSERT_TRUE(service.ServeUser(round.user_id, round.user_capacity,
                                round.contexts)
                  .ok());
  EXPECT_EQ(service
                .ServeUser(round.user_id, round.user_capacity,
                           round.contexts)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fasea
