// Self-healing durability: the WAL append path behind a circuit breaker
// (trip on a dying disk, serve non-durably, probe back to durable), the
// degrade → recover → re-attach cycle, and crash recovery of histories
// with non-durable gaps and duplicated frames.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/circuit_breaker.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/recovery_manager.h"
#include "io/fault_injection_env.h"
#include "rng/pcg64.h"

namespace fasea {
namespace {

// Logical clock for the breaker: cooldowns elapse only when the test
// advances the tick.
std::int64_t g_tick = 0;
std::int64_t TestClock() { return g_tick; }

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fasea_" + name;
  Env* env = Env::Default();
  if (auto names = env->ListDir(dir); names.ok()) {
    for (const std::string& file : *names) {
      (void)env->DeleteFile(JoinPath(dir, file));
    }
  }
  EXPECT_TRUE(env->CreateDir(dir).ok());
  return dir;
}

SyntheticConfig SmallConfig(std::uint64_t seed = 41) {
  SyntheticConfig config;
  config.num_events = 16;
  config.dim = 4;
  config.horizon = 1000;
  config.seed = seed;
  return config;
}

class SelfHealingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_tick = 0;
    auto world = SyntheticWorld::Create(SmallConfig());
    ASSERT_TRUE(world.ok());
    world_ = std::move(world).value();
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] =
          world_->provider().NextRound(static_cast<std::int64_t>(i) + 1);
    }
  }

  /// Serves the next round and submits its feedback once (no retries);
  /// returns the submit status and fills `result`.
  Status ServeAndSubmit(ArrangementService* service,
                        FeedbackResult* result) {
    const RoundContext& round =
        ring_[static_cast<std::size_t>(service->rounds_served()) %
              ring_.size()];
    auto arrangement = service->ServeUser(round.user_id,
                                          round.user_capacity,
                                          round.contexts);
    if (!arrangement.ok()) return arrangement.status();
    pending_round_ = &round;
    pending_arrangement_ = *arrangement;
    pending_feedback_ =
        world_->feedback().Sample(1, round.contexts, *arrangement, rng_);
    return Resubmit(service, result);
  }

  /// Resubmits the pending feedback after a retryable failure. Every
  /// acknowledged round's record joins acked_, the test's own ledger.
  Status Resubmit(ArrangementService* service, FeedbackResult* result) {
    const Status st = service->SubmitFeedback(pending_feedback_, result);
    if (st.ok()) {
      InteractionRecord record;
      record.t = result->round;
      record.user_id = pending_round_->user_id;
      record.user_capacity = pending_round_->user_capacity;
      record.arrangement = pending_arrangement_;
      record.feedback = pending_feedback_;
      for (EventId v : pending_arrangement_) {
        const auto row = pending_round_->contexts.Row(v);
        record.contexts.emplace_back(row.begin(), row.end());
      }
      acked_.push_back(std::move(record));
    }
    return st;
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::array<RoundContext, 8> ring_;
  const RoundContext* pending_round_ = nullptr;
  Arrangement pending_arrangement_;
  Feedback pending_feedback_;
  std::vector<InteractionRecord> acked_;
  Pcg64 rng_{17, 17};
};

/// Round ids of `records`, in order.
std::vector<std::int64_t> RoundIds(
    const std::vector<InteractionRecord>& records) {
  std::vector<std::int64_t> ids;
  for (const InteractionRecord& record : records) ids.push_back(record.t);
  return ids;
}

DurabilityPolicy BreakerPolicy(int threshold,
                               std::int64_t cooldown_ticks) {
  DurabilityPolicy policy;
  policy.on_wal_error = DurabilityPolicy::OnWalError::kFailRound;
  policy.breaker_enabled = true;
  policy.breaker.failure_threshold = threshold;
  policy.breaker.open_cooldown_ns = cooldown_ticks;
  policy.breaker.clock = &TestClock;
  return policy;
}

TEST_F(SelfHealingTest, BreakerTripsDegradesAndHealsItself) {
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir("heal_breaker");
  ArrangementService service(&world_->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/5);
  auto wal = WalWriter::Open(&env, dir);
  ASSERT_TRUE(wal.ok());
  service.AttachWal(std::move(wal).value(),
                    BreakerPolicy(/*threshold=*/2, /*cooldown_ticks=*/10),
                    [&env, dir] { return WalWriter::Open(&env, dir); });

  // Round 1: healthy, durable.
  FeedbackResult result;
  ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());
  EXPECT_TRUE(result.durable);
  EXPECT_EQ(service.Health().state, HealthState::kHealthy);

  // The disk starts dying: every fsync fails from now on. The first two
  // submit attempts fail retryably (nothing applied) and trip the
  // breaker at threshold 2.
  env.ArmSyncFailure(0);
  Status st = ServeAndSubmit(&service, &result);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(service.AwaitingFeedback());
  st = Resubmit(&service, &result);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  ASSERT_NE(service.breaker(), nullptr);
  EXPECT_EQ(service.breaker()->state(), CircuitBreaker::State::kOpen);

  // Open breaker: the round is acknowledged non-durably without touching
  // the disk, and the service reports degraded.
  ASSERT_TRUE(Resubmit(&service, &result).ok());
  EXPECT_FALSE(result.durable);
  EXPECT_EQ(result.round, 2);
  EXPECT_EQ(service.Health().state, HealthState::kDegraded);
  ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());  // Round 3 too.
  EXPECT_FALSE(result.durable);
  EXPECT_EQ(service.nondurable_rounds(), 2);

  // The disk comes back; after the cooldown the next append is the
  // half-open probe — it reopens the broken writer on a fresh segment,
  // succeeds, and closes the breaker. Durability re-attached itself.
  env.DisarmAll();
  g_tick += 11;
  ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());
  EXPECT_TRUE(result.durable);
  EXPECT_EQ(service.breaker()->state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(service.Health().state, HealthState::kHealthy);
  EXPECT_GE(service.wal_reopens(), 1);
  EXPECT_GE(service.breaker()->probes(), 1);

  // Recovery sees every durable ack (1 and 4) plus round 2, whose frame
  // bytes reached the file before each fsync failed — a failed fsync
  // withholds the acknowledgement but may still persist the frame.
  // Round 3 never touched the disk (breaker open) and is lost.
  auto recovered = RecoverArrangementService(&world_->instance(), &env, dir,
                                             "", RecoveryOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(RoundIds(recovered->records),
            (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_EQ(recovered->service->rounds_served(), 4);
  // Both failed attempts at round 2 persisted a frame (one per segment);
  // the rescan collapses them to one.
  EXPECT_EQ(recovered->report.duplicate_frames_skipped, 1);
}

TEST_F(SelfHealingTest, DegradeRecoverReattachRoundTrip) {
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir("heal_degrade");
  const std::uint64_t policy_seed = 5;
  {
    ArrangementService service(&world_->instance(), PolicyKind::kUcb,
                               PolicyParams{}, policy_seed);
    auto wal = WalWriter::Open(&env, dir);
    ASSERT_TRUE(wal.ok());
    DurabilityPolicy degrade;
    degrade.on_wal_error = DurabilityPolicy::OnWalError::kDegrade;
    service.AttachWal(std::move(wal).value(), degrade);

    // Rounds 1-2 durable; the write error on round 3 degrades the
    // service, and round 4 stays non-durable (kDegrade is sticky).
    FeedbackResult result;
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());
      EXPECT_TRUE(result.durable);
    }
    env.ArmWriteError(0);
    ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());
    EXPECT_FALSE(result.durable);
    EXPECT_TRUE(service.wal_degraded());
    EXPECT_EQ(service.Health().state, HealthState::kDegraded);
    ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());
    EXPECT_FALSE(result.durable);

    // Operator re-arms durability: re-attach is legal while degraded and
    // clears the flag; rounds 5-6 are durable again.
    auto fresh = WalWriter::Open(&env, dir);
    ASSERT_TRUE(fresh.ok());
    service.AttachWal(std::move(fresh).value());
    EXPECT_FALSE(service.wal_degraded());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());
      EXPECT_TRUE(result.durable);
    }
    EXPECT_EQ(service.rounds_served(), 6);
    ASSERT_EQ(RoundIds(acked_),
              (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6}));
  }  // Crash.

  RecoveryOptions options;
  options.seed = policy_seed;
  auto recovered = RecoverArrangementService(&world_->instance(), &env, dir,
                                             "", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // The durable subset {1, 2, 5, 6} and nothing else, each record the
  // same bytes as the acknowledged one.
  ASSERT_EQ(RoundIds(recovered->records),
            (std::vector<std::int64_t>{1, 2, 5, 6}));
  for (const InteractionRecord& record : recovered->records) {
    EXPECT_EQ(EncodeInteractionRecord(record),
              EncodeInteractionRecord(
                  acked_[static_cast<std::size_t>(record.t - 1)]))
        << "round " << record.t;
  }
  EXPECT_EQ(recovered->service->rounds_served(), 6);

  // Bit-identical to a shadow replay of exactly those rounds.
  ArrangementService shadow(&world_->instance(), PolicyKind::kUcb,
                            PolicyParams{}, policy_seed);
  for (const InteractionRecord& record : acked_) {
    if (record.t == 3 || record.t == 4) continue;  // Lost, by design.
    ASSERT_TRUE(shadow.RestoreInteraction(record, /*learn=*/true).ok());
  }
  EXPECT_EQ(recovered->service->Checkpoint(), shadow.Checkpoint());
  for (EventId v = 0; v < world_->instance().num_events(); ++v) {
    EXPECT_EQ(recovered->service->state().remaining(v),
              shadow.state().remaining(v));
  }

  // The recovered service re-attaches a WAL and keeps serving durably.
  auto wal = WalWriter::Open(&env, dir);
  ASSERT_TRUE(wal.ok());
  recovered->service->AttachWal(std::move(wal).value());
  FeedbackResult result;
  ASSERT_TRUE(ServeAndSubmit(recovered->service.get(), &result).ok());
  EXPECT_TRUE(result.durable);
  EXPECT_EQ(result.round, 7);
}

TEST_F(SelfHealingTest, FsyncFailureDuplicateFrameIsSkippedOnRecovery) {
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir("heal_duplicate");
  ArrangementService service(&world_->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/5);
  auto wal = WalWriter::Open(&env, dir);
  ASSERT_TRUE(wal.ok());
  // High threshold: the breaker stays closed; we want the retry path.
  service.AttachWal(std::move(wal).value(),
                    BreakerPolicy(/*threshold=*/5, /*cooldown_ticks=*/10),
                    [&env, dir] { return WalWriter::Open(&env, dir); });

  FeedbackResult result;
  ASSERT_TRUE(ServeAndSubmit(&service, &result).ok());  // Round 1.

  // Round 2's fsync fails AFTER the frame bytes reached the file: the
  // acknowledgement is withheld, the writer breaks, and the retry writes
  // the same round again on a fresh segment — a duplicated frame.
  env.ArmSyncFailure(0);
  Status st = ServeAndSubmit(&service, &result);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  env.DisarmAll();
  ASSERT_TRUE(Resubmit(&service, &result).ok());
  EXPECT_TRUE(result.durable);
  EXPECT_EQ(service.rounds_served(), 2);

  // Recovery must apply round 2 exactly once and report the skip.
  auto recovered = RecoverArrangementService(&world_->instance(), &env, dir,
                                             "", RecoveryOptions{});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->report.duplicate_frames_skipped, 1);
  EXPECT_EQ(RoundIds(recovered->records), (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(recovered->service->rounds_served(), 2);
}

TEST_F(SelfHealingTest, BrokenWriterWithoutReopenHookStaysFailed) {
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir("heal_no_reopen");
  ArrangementService service(&world_->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/5);
  auto wal = WalWriter::Open(&env, dir);
  ASSERT_TRUE(wal.ok());
  DurabilityPolicy fail_round;  // Legacy: no breaker, no reopen hook.
  fail_round.on_wal_error = DurabilityPolicy::OnWalError::kFailRound;
  service.AttachWal(std::move(wal).value(), fail_round);

  env.ArmWriteError(0);
  FeedbackResult result;
  EXPECT_EQ(ServeAndSubmit(&service, &result).code(),
            StatusCode::kUnavailable);
  env.DisarmAll();
  // The writer is permanently broken and nothing can reopen it: every
  // retry keeps failing retryably until an operator re-attaches.
  EXPECT_EQ(Resubmit(&service, &result).code(), StatusCode::kUnavailable);
  auto fresh = WalWriter::Open(&env, dir);
  ASSERT_TRUE(fresh.ok());
  service.AttachWal(std::move(fresh).value());  // Legal: writer broken.
  ASSERT_TRUE(Resubmit(&service, &result).ok());
  EXPECT_TRUE(result.durable);
}

}  // namespace
}  // namespace fasea
