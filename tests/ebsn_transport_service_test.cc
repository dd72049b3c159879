// ShardedArrangementService over the simulated network: the message
// path must produce the same arrangements as the loopback (no network
// attached) on a clean fabric, survive drop/duplicate/reorder faults
// without double reservation, park and redeliver lost committed
// portions, expire abandoned stages to presumed-abort via leases, and
// close every stage a crash path resolves before its lease can fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "ebsn/sharded_service.h"
#include "graph/conflict_graph.h"
#include "io/env.h"
#include "linalg/matrix.h"
#include "model/instance.h"
#include "net/client.h"
#include "net/network.h"

namespace fasea {
namespace {

constexpr std::size_t kEvents = 16;
constexpr std::size_t kDim = 3;

ProblemInstance MakeInstance() {
  std::vector<std::int64_t> capacities(kEvents, 4);
  ConflictGraph conflicts(kEvents);
  for (std::size_t v = 0; v + 1 < kEvents; ++v) {
    conflicts.AddConflict(v, v + 1);
  }
  conflicts.AddConflict(0, kEvents - 1);
  auto instance = ProblemInstance::Create(std::move(capacities),
                                          std::move(conflicts), kDim);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

Matrix MakeContexts(std::uint64_t salt) {
  Matrix contexts(kEvents, kDim);
  for (std::size_t v = 0; v < kEvents; ++v) {
    for (std::size_t k = 0; k < kDim; ++k) {
      contexts.Row(v)[k] =
          0.1 * static_cast<double>((v * kDim + k + salt) % 7) + 0.05;
    }
  }
  return contexts;
}

ShardedOptions Opts(int shards) {
  ShardedOptions options;
  options.num_shards = shards;
  options.seed = 42;
  return options;
}

TEST(TransportServiceTest, CleanNetworkMatchesTheInProcessPathExactly) {
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/5);  // Must outlive the services.
  ShardedArrangementService direct(&instance, Opts(4));
  ShardedArrangementService transported(&instance, Opts(4));
  ASSERT_TRUE(transported.ConfigureTransport(&net).ok());

  for (int i = 0; i < 10; ++i) {
    const Matrix contexts = MakeContexts(static_cast<std::uint64_t>(i));
    auto a = direct.ServeUser(i, 6, contexts);
    auto b = transported.ServeUser(i, 6, contexts);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->arrangement, b->arrangement) << "round " << i;
    EXPECT_EQ(a->home_shard, b->home_shard);
    Feedback feedback(a->arrangement.size(), 1);
    ASSERT_TRUE(direct.SubmitFeedback(a->txn, feedback, nullptr).ok());
    ASSERT_TRUE(
        transported.SubmitFeedback(b->txn, feedback, nullptr).ok());
  }
  // Both worlds consumed identical capacity on every shard.
  const ShardRouter& router = direct.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    EXPECT_EQ(direct.shard_service(owner)->state().remaining(
                  router.LocalId(v)),
              transported.shard_service(owner)->state().remaining(
                  router.LocalId(v)))
        << "event " << v;
  }
  EXPECT_EQ(direct.Stats().rounds_completed,
            transported.Stats().rounds_completed);
  EXPECT_EQ(transported.OpenReservations(), 0);
  EXPECT_GT(net.stats().sent, 0);
  EXPECT_GT(transported.Stats().cross_shard_rounds, 0);
}

TEST(TransportServiceTest, LossyFabricNeverDoubleReserves) {
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/9);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ShardTransportOptions topts;
  topts.client.attempt_timeout_ticks = 8;
  topts.client.call_timeout_ticks = 4000;
  topts.client.retry.max_attempts = 64;
  topts.lease_ticks = 100000;  // Leases stay out of this test's way.
  ASSERT_TRUE(service.ConfigureTransport(&net, topts).ok());
  auto schedule = NetFaultSchedule::Parse(
      "drop_rate=0.15;dup_rate=0.15;reorder_rate=0.15;jitter_ticks=2;"
      "seed=21");
  ASSERT_TRUE(schedule.ok());
  net.ApplySchedule(*schedule);

  std::map<EventId, std::int64_t> consumed;
  int acked = 0;
  for (int i = 0; i < 20; ++i) {
    const Matrix contexts = MakeContexts(static_cast<std::uint64_t>(i));
    auto served = service.ServeUser(i, 6, contexts);
    if (!served.ok()) continue;  // A stage drowned; skip the round.
    Feedback feedback(served->arrangement.size(), 1);
    Status st = service.SubmitFeedback(served->txn, feedback, nullptr);
    for (int r = 0; r < 50 && !st.ok() &&
                    (st.code() == StatusCode::kUnavailable ||
                     st.code() == StatusCode::kResourceExhausted);
         ++r) {
      st = service.SubmitFeedback(served->txn, feedback, nullptr);
    }
    if (!st.ok()) continue;
    ++acked;
    for (EventId v : served->arrangement) ++consumed[v];
  }
  ASSERT_GT(acked, 0);
  // Drain parked portion deliveries with faults off.
  net.DisarmFaults();
  for (int i = 0; i < 200 && service.UndeliveredPortions() > 0; ++i) {
    net.Tick();
    ASSERT_TRUE(service.PumpTransport().ok());
  }
  EXPECT_EQ(service.UndeliveredPortions(), 0);
  // Exactly-once accounting: every acked round consumed its events
  // once, regardless of duplicated or re-sent messages.
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    EXPECT_EQ(service.shard_service(owner)->state().remaining(
                  router.LocalId(v)),
              instance.capacity(v) - consumed[v])
        << "event " << v;
  }
  EXPECT_GT(net.stats().duplicated + net.stats().dropped, 0)
      << "the schedule never bit — weak test";
}

TEST(TransportServiceTest, LostPortionParksAndRedeliversAfterHeal) {
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/13);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ShardTransportOptions topts;
  topts.client.attempt_timeout_ticks = 4;
  topts.client.call_timeout_ticks = 32;
  topts.client.retry.max_attempts = 3;
  topts.lease_ticks = 100000;
  ASSERT_TRUE(service.ConfigureTransport(&net, topts).ok());

  const Matrix contexts = MakeContexts(1);
  auto served = service.ServeUser(0, 6, contexts);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // Find a participant shard and cut the gateway->participant link
  // before phase 2.
  const ShardRouter& router = service.router();
  int participant = -1;
  for (EventId v : served->arrangement) {
    if (router.OwnerShard(v) != served->home_shard) {
      participant = router.OwnerShard(v);
      break;
    }
  }
  ASSERT_GE(participant, 0) << "no spillover happened — weak test";
  net.BlockLink(ShardedArrangementService::kGatewayNode, participant);

  Feedback feedback(served->arrangement.size(), 1);
  ShardedFeedbackResult result;
  ASSERT_TRUE(service.SubmitFeedback(served->txn, feedback, &result).ok());
  EXPECT_FALSE(result.durable);  // No WALs attached in this test.
  EXPECT_EQ(service.UndeliveredPortions(), 1);
  EXPECT_GT(service.OpenReservations(), 0);

  net.HealAll();
  for (int i = 0; i < 100 && service.UndeliveredPortions() > 0; ++i) {
    net.Tick();
    ASSERT_TRUE(service.PumpTransport().ok());
  }
  EXPECT_EQ(service.UndeliveredPortions(), 0);
  EXPECT_EQ(service.OpenReservations(), 0);
  EXPECT_GE(service.Stats().redelivered_portions, 1);
  // The redelivered portion applied exactly once.
  std::map<EventId, std::int64_t> consumed;
  for (EventId v : served->arrangement) ++consumed[v];
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    EXPECT_EQ(service.shard_service(owner)->state().remaining(
                  router.LocalId(v)),
              instance.capacity(v) - consumed[v])
        << "event " << v;
  }
}

TEST(TransportServiceTest, AbandonedTransactionExpiresToPresumedAbort) {
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/17);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ShardTransportOptions topts;
  topts.lease_ticks = 32;
  ASSERT_TRUE(service.ConfigureTransport(&net, topts).ok());

  const Matrix contexts = MakeContexts(2);
  auto served = service.ServeUser(0, 6, contexts);
  ASSERT_TRUE(served.ok());
  EXPECT_GT(service.OpenReservations(), 0);

  // The caller vanishes without submitting feedback. Once the lease
  // expires, the sweep force-aborts the stages on every shard.
  net.Tick(topts.lease_ticks + 1);
  ASSERT_TRUE(service.PumpTransport().ok());
  EXPECT_EQ(service.OpenReservations(), 0);
  EXPECT_GT(service.Stats().leases_expired, 0);
  EXPECT_GT(service.Stats().force_aborted, 0);

  // A late commit of the reaped transaction is refused for good.
  Feedback feedback(served->arrangement.size(), 1);
  Status st = service.SubmitFeedback(served->txn, feedback, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  // The shards are clean: full capacity remains and new rounds work.
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    EXPECT_EQ(service.shard_service(owner)->state().remaining(
                  router.LocalId(v)),
              instance.capacity(v))
        << "event " << v;
  }
  auto next = service.ServeUser(1, 4, MakeContexts(3));
  ASSERT_TRUE(next.ok());
  Feedback fb(next->arrangement.size(), 1);
  EXPECT_TRUE(service.SubmitFeedback(next->txn, fb, nullptr).ok());
}

TEST(TransportServiceTest, OversizedMatrixHeaderIsRejectedBeforeAllocating) {
  // A 32-byte SERVE body whose context matrix declares 4294967295 rows
  // and columns. The shard must answer kInvalidArgument without sizing a
  // matrix for the declared shape, and keep serving.
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/31);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(service.ConfigureTransport(&net).ok());

  std::string body;
  AppendI64(&body, 0);            // user id
  AppendI64(&body, 6);            // user capacity
  AppendI64(&body, 0);            // lease expiry
  AppendU32(&body, 0xffffffffu);  // rows
  AppendU32(&body, 0xffffffffu);  // cols
  ASSERT_EQ(body.size(), 32u);
  {
    ShardClient rogue(&net, /*node=*/99, ShardClientOptions{});
    auto response = rogue.Call(MessageKind::kServe, /*dst=*/0, /*txn=*/7,
                               /*trace_id=*/7, body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->ToStatus().code(), StatusCode::kInvalidArgument)
        << response->ToStatus().ToString();
  }

  auto served = service.ServeUser(0, 6, MakeContexts(1));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Feedback feedback(served->arrangement.size(), 1);
  EXPECT_TRUE(service.SubmitFeedback(served->txn, feedback, nullptr).ok());
  EXPECT_EQ(service.OpenReservations(), 0);
}

TEST(TransportServiceTest, DecisionQueryAnswersOverTheTransport) {
  // A participant recovering in-doubt reservations must resolve them
  // via kQueryDecision messages when a transport is attached.
  Env* env = Env::Default();
  const std::string dir = ::testing::TempDir() + "fasea_transport_query";
  (void)env->CreateDir(dir);
  for (int s = 0; s < 4; ++s) {
    const std::string sub = ShardWalDirName(dir, s);
    if (auto names = env->ListDir(sub); names.ok()) {
      for (const std::string& file : *names) {
        (void)env->DeleteFile(JoinPath(sub, file));
      }
    }
  }
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/23);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(
      service.AttachWals(env, dir, WalOptions{}, DurabilityPolicy{}).ok());
  ASSERT_TRUE(service.ConfigureTransport(&net).ok());

  // Commit a cross-shard round while the gateway->participant link is
  // cut: the participant's WAL then holds a reserve frame with no
  // portion after it. Recovery finds it in doubt and must resolve it
  // committed via a kQueryDecision message to the coordinator.
  auto served = service.ServeUser(0, 6, MakeContexts(4));
  ASSERT_TRUE(served.ok());
  const ShardRouter& router = service.router();
  int participant = -1;
  for (EventId v : served->arrangement) {
    if (router.OwnerShard(v) != served->home_shard) {
      participant = router.OwnerShard(v);
      break;
    }
  }
  ASSERT_GE(participant, 0) << "no spillover happened — weak test";
  net.BlockLink(ShardedArrangementService::kGatewayNode, participant);
  Feedback feedback(served->arrangement.size(), 1);
  ShardedFeedbackResult result;
  ASSERT_TRUE(service.SubmitFeedback(served->txn, feedback, &result).ok());
  ASSERT_TRUE(result.durable);
  EXPECT_EQ(service.UndeliveredPortions(), 1);

  ASSERT_TRUE(service.KillShard(participant).ok());
  net.HealAll();
  auto report = service.RecoverShard(participant);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->reservations_in_doubt, 1);
  EXPECT_EQ(report->resolved_committed, 1);
  EXPECT_EQ(service.OpenReservations(), 0);
  ASSERT_TRUE(service.AttachShardWal(participant).ok());

  // The obsolete parked copy drains as an idempotent no-op.
  for (int i = 0; i < 100 && service.UndeliveredPortions() > 0; ++i) {
    net.Tick();
    ASSERT_TRUE(service.PumpTransport().ok());
  }
  EXPECT_EQ(service.UndeliveredPortions(), 0);

  // Every shard charged the committed round exactly once.
  std::map<EventId, std::int64_t> consumed;
  for (EventId v : served->arrangement) ++consumed[v];
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    EXPECT_EQ(service.shard_service(owner)->state().remaining(
                  router.LocalId(v)),
              instance.capacity(v) - consumed[v])
        << "event " << v;
  }
}

/// Every live shard's events hold their capacity minus the accepted
/// count `consumed` records.
void ExpectConsumedExactly(const ShardedArrangementService& service,
                           const ProblemInstance& instance,
                           const std::map<EventId, std::int64_t>& consumed) {
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const ArrangementService* inner =
        service.shard_service(router.OwnerShard(v));
    if (inner == nullptr) continue;
    const auto it = consumed.find(v);
    EXPECT_EQ(inner->state().remaining(router.LocalId(v)),
              instance.capacity(v) - (it == consumed.end() ? 0 : it->second))
        << "event " << v;
  }
}

TEST(TransportServiceTest, ParticipantDeathClosesTheSurvivorsStages) {
  // KillShard rolls a dead participant's transactions back on the
  // surviving shards. Their stages must close with them: a stale
  // stage's lease expires later, and its force-abort would hit whichever
  // round has since reused the round id.
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/29);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ShardTransportOptions topts;
  topts.lease_ticks = 20;
  ASSERT_TRUE(service.ConfigureTransport(&net, topts).ok());
  const ShardRouter& router = service.router();

  // txn 1 is homed on shard 0 (round-robin) and spills over.
  const std::int64_t first_lease = net.now() + topts.lease_ticks;
  auto first = service.ServeUser(0, 6, MakeContexts(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->home_shard, 0);
  int participant = -1;
  for (EventId v : first->arrangement) {
    if (router.OwnerShard(v) != 0) participant = router.OwnerShard(v);
  }
  ASSERT_GE(participant, 0) << "no spillover happened — weak test";
  ASSERT_TRUE(service.KillShard(participant).ok());
  net.Tick(10);

  // txns 2-4 stay off shard 0: capacity 1 fills at home, and the dead
  // participant's turn is refused. txn 5 is homed on shard 0 again and
  // reuses the round id of txn 1's rolled-back stage.
  std::map<EventId, std::int64_t> consumed;
  for (int i = 1; i <= 3; ++i) {
    auto served = service.ServeUser(i, 1, MakeContexts(1 + i));
    if (!served.ok()) {
      EXPECT_EQ(served.status().code(), StatusCode::kUnavailable);
      continue;
    }
    ASSERT_NE(served->home_shard, 0);
    Feedback feedback(served->arrangement.size(), 1);
    ASSERT_TRUE(service.SubmitFeedback(served->txn, feedback).ok());
    for (EventId v : served->arrangement) ++consumed[v];
  }
  auto fifth = service.ServeUser(4, 1, MakeContexts(5));
  ASSERT_TRUE(fifth.ok()) << fifth.status().ToString();
  ASSERT_EQ(fifth->txn, 5u);
  ASSERT_EQ(fifth->home_shard, 0);

  // Past txn 1's lease, inside txn 5's: the sweep finds nothing of
  // txn 1 left to abort, and txn 5 commits.
  while (net.now() <= first_lease + 2) net.Tick();
  ASSERT_TRUE(service.PumpTransport().ok());
  Feedback feedback(fifth->arrangement.size(), 1);
  Status st = service.SubmitFeedback(fifth->txn, feedback);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (EventId v : fifth->arrangement) ++consumed[v];
  EXPECT_EQ(service.OpenReservations(), 0);
  ExpectConsumedExactly(service, instance, consumed);
}

TEST(TransportServiceTest, RecoveredCoordinatorClosesItsParticipantsStages) {
  // After a coordinator crash between the phases, RecoverShard finishes
  // the participants' portions. Their stages must close as well, or
  // their leases keep expiring and renewing against the decision.
  Env* env = Env::Default();
  const std::string dir =
      ::testing::TempDir() + "fasea_transport_interrupted";
  (void)env->CreateDir(dir);
  for (int s = 0; s < 4; ++s) {
    const std::string sub = ShardWalDirName(dir, s);
    if (auto names = env->ListDir(sub); names.ok()) {
      for (const std::string& file : *names) {
        (void)env->DeleteFile(JoinPath(sub, file));
      }
    }
  }
  const ProblemInstance instance = MakeInstance();
  SimulatedNetwork net(/*seed=*/31);  // Must outlive the service.
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(service.AttachWals(env, dir).ok());
  ShardTransportOptions topts;
  topts.lease_ticks = 20;
  ASSERT_TRUE(service.ConfigureTransport(&net, topts).ok());

  auto served = service.ServeUser(0, 6, MakeContexts(6));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const ShardRouter& router = service.router();
  const int home = served->home_shard;
  ASSERT_TRUE(std::any_of(served->arrangement.begin(),
                          served->arrangement.end(),
                          [&](EventId v) {
                            return router.OwnerShard(v) != home;
                          }))
      << "no spillover happened — weak test";

  service.set_crash_after_decision_hook(
      [target = served->txn](std::uint64_t txn) { return txn == target; });
  Feedback feedback(served->arrangement.size(), 1);
  ASSERT_EQ(service.SubmitFeedback(served->txn, feedback).code(),
            StatusCode::kUnavailable);
  service.set_crash_after_decision_hook(nullptr);
  ASSERT_TRUE(service.KillShard(home).ok());
  auto report = service.RecoverShard(home);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->interrupted_completed, 1);
  EXPECT_EQ(service.OpenReservations(), 0);

  // Nothing is left open, so no lease ever expires again.
  const std::int64_t expired = service.Stats().leases_expired;
  for (int sweep = 0; sweep < 3; ++sweep) {
    net.Tick(25);
    ASSERT_TRUE(service.PumpTransport().ok());
  }
  EXPECT_EQ(service.Stats().leases_expired, expired);
  std::map<EventId, std::int64_t> consumed;
  for (EventId v : served->arrangement) ++consumed[v];
  ExpectConsumedExactly(service, instance, consumed);
}

}  // namespace
}  // namespace fasea
