// ShardedArrangementService: partitioned serving with the two-phase
// cross-shard protocol. Covers feasibility of spilled-over rounds,
// capacity accounting, per-shard WAL recovery, the mid-commit
// coordinator crash (also with a participant dead), participant death
// (presumed abort), the learner delta-merge, and concurrent callers.
#include "ebsn/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "ebsn/shard_wal.h"
#include "graph/conflict_graph.h"
#include "io/env.h"
#include "io/wal.h"
#include "linalg/matrix.h"
#include "model/instance.h"

namespace fasea {
namespace {

constexpr std::size_t kEvents = 16;
constexpr std::size_t kDim = 3;

ProblemInstance MakeInstance(std::int64_t capacity = 4) {
  std::vector<std::int64_t> capacities(kEvents, capacity);
  ConflictGraph conflicts(kEvents);
  for (std::size_t v = 0; v + 1 < kEvents; ++v) {
    conflicts.AddConflict(v, v + 1);  // A ring: cross-shard edges exist.
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

std::string FreshShardedDir(const std::string& name, int shards) {
  const std::string dir = ::testing::TempDir() + "fasea_" + name;
  Env* env = Env::Default();
  (void)env->CreateDir(dir);
  for (int s = 0; s < shards; ++s) {
    const std::string sub = ShardWalDirName(dir, s);
    if (auto names = env->ListDir(sub); names.ok()) {
      for (const std::string& file : *names) {
        (void)env->DeleteFile(JoinPath(sub, file));
      }
    }
  }
  return dir;
}

ShardedOptions Opts(int shards) {
  ShardedOptions options;
  options.num_shards = shards;
  options.seed = 42;
  return options;
}

/// Serves and commits one round; returns the arrangement.
Arrangement OneRound(ShardedArrangementService* service,
                     std::int64_t capacity, std::uint64_t salt,
                     ShardedFeedbackResult* result = nullptr) {
  const Matrix contexts = MakeContexts(salt);
  auto served = service->ServeUser(0, capacity, contexts);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  if (!served.ok()) return {};
  Feedback feedback(served->arrangement.size(), 1);
  Status st = service->SubmitFeedback(served->txn, feedback, result);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return served->arrangement;
}

TEST(ShardedServiceTest, ServesFeasibleCrossShardArrangements) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(4));
  for (int s = 0; s < 4; ++s) {
    ASSERT_FALSE(service.router().ShardEvents(s).empty())
        << "partition of " << kEvents << " events left shard " << s
        << " empty — the tests below assume otherwise";
  }
  std::map<EventId, int> chosen_counts;
  for (int i = 0; i < 8; ++i) {
    // c_u = 6 exceeds every partition, so the home must spill over.
    const Arrangement arrangement =
        OneRound(&service, 6, static_cast<std::uint64_t>(i));
    ASSERT_FALSE(arrangement.empty());
    EXPECT_LE(arrangement.size(), 6u);
    EXPECT_TRUE(instance.conflicts().IsIndependentSet(arrangement));
    std::set<EventId> unique(arrangement.begin(), arrangement.end());
    EXPECT_EQ(unique.size(), arrangement.size());
    for (EventId v : arrangement) ++chosen_counts[v];
  }
  const ShardedStats stats = service.Stats();
  EXPECT_EQ(stats.rounds_completed, 8);
  EXPECT_GT(stats.cross_shard_rounds, 0);
  EXPECT_GT(stats.reservations_made, 0);
  EXPECT_EQ(service.OpenReservations(), 0);
  // Capacity accounting: each shard's inner state consumed exactly the
  // rounds that chose its events.
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const ArrangementService* inner =
        service.shard_service(router.OwnerShard(v));
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->state().remaining(router.LocalId(v)),
              instance.capacity(v) - chosen_counts[v])
        << "event " << v;
  }
}

TEST(ShardedServiceTest, SingleShardDegeneratesToTheFullInstance) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(1));
  const Arrangement arrangement = OneRound(&service, 3, 0);
  EXPECT_FALSE(arrangement.empty());
  EXPECT_EQ(service.Stats().cross_shard_rounds, 0);
  EXPECT_EQ(service.Stats().reservations_made, 0);
}

TEST(ShardedServiceTest, DeadHomeIsRetryableAndTrafficRoutesAround) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(2));
  ASSERT_TRUE(service.KillShard(0).ok());
  const Matrix contexts = MakeContexts(0);
  int unavailable = 0;
  int served_ok = 0;
  for (int i = 0; i < 4; ++i) {
    auto served = service.ServeUser(0, 2, contexts);
    if (served.ok()) {
      ++served_ok;
      EXPECT_EQ(served->home_shard, 1);
      Feedback feedback(served->arrangement.size(), 1);
      EXPECT_TRUE(service.SubmitFeedback(served->txn, feedback).ok());
    } else {
      EXPECT_EQ(served.status().code(), StatusCode::kUnavailable);
      ++unavailable;  // Round-robin lands on the corpse every 2nd arrival.
    }
  }
  EXPECT_EQ(unavailable, 2);
  EXPECT_EQ(served_ok, 2);
}

TEST(ShardedServiceTest, KilledShardRecoversBitIdenticalFromItsWal) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(service
                  .AttachWals(Env::Default(),
                              FreshShardedDir("shard_recover", 4))
                  .ok());
  for (int i = 0; i < 12; ++i) {
    ShardedFeedbackResult result;
    OneRound(&service, 5, static_cast<std::uint64_t>(i), &result);
    EXPECT_TRUE(result.durable);  // Healthy disk: every commit hardens.
  }
  const int victim = 2;
  const ArrangementService* before = service.shard_service(victim);
  ASSERT_NE(before, nullptr);
  const std::string checkpoint = before->Checkpoint();
  const std::size_t local_events = before->state().num_events();
  std::vector<std::int64_t> remaining;
  for (EventId v = 0; v < local_events; ++v) {
    remaining.push_back(before->state().remaining(v));
  }
  const std::int64_t rounds = before->rounds_served();
  const auto decisions = service.Decisions(victim);

  ASSERT_TRUE(service.KillShard(victim).ok());
  EXPECT_FALSE(service.shard_alive(victim));
  EXPECT_EQ(service.shard_service(victim), nullptr);
  auto report = service.RecoverShard(victim);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ToString().empty());

  const ArrangementService* after = service.shard_service(victim);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->Checkpoint(), checkpoint);
  for (EventId v = 0; v < local_events; ++v) {
    EXPECT_EQ(after->state().remaining(v), remaining[v]) << "event " << v;
  }
  EXPECT_EQ(after->rounds_served(), rounds);
  const auto recovered = service.Decisions(victim);
  ASSERT_EQ(recovered.size(), decisions.size());
  for (const auto& [txn, record] : decisions) {
    const auto it = recovered.find(txn);
    ASSERT_NE(it, recovered.end()) << "txn " << txn;
    EXPECT_EQ(it->second.t, record.t);
    EXPECT_EQ(it->second.arrangement, record.arrangement);
    EXPECT_EQ(it->second.feedback, record.feedback);
  }
  EXPECT_EQ(service.OpenReservations(), 0);

  // The shard serves again once its WAL is re-armed.
  ASSERT_TRUE(service.AttachShardWal(victim).ok());
  EXPECT_FALSE(OneRound(&service, 5, 99).empty());
}

TEST(ShardedServiceTest, MidCommitCoordinatorCrashCompletesOnRecovery) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(service
                  .AttachWals(Env::Default(),
                              FreshShardedDir("shard_midcommit", 4))
                  .ok());
  const ShardRouter& router = service.router();

  // Find a cross-shard round to crash.
  const Matrix contexts = MakeContexts(1);
  StatusOr<ShardedServeResult> served = InternalError("unset");
  for (int attempt = 0; attempt < 8; ++attempt) {
    served = service.ServeUser(0, 6, contexts);
    ASSERT_TRUE(served.ok());
    bool cross_shard = false;
    for (EventId v : served->arrangement) {
      if (router.OwnerShard(v) != served->home_shard) cross_shard = true;
    }
    if (cross_shard) break;
    Feedback feedback(served->arrangement.size(), 1);
    ASSERT_TRUE(service.SubmitFeedback(served->txn, feedback).ok());
  }
  std::map<EventId, std::int64_t> remaining_before;
  for (EventId v = 0; v < instance.num_events(); ++v) {
    remaining_before[v] = service.shard_service(router.OwnerShard(v))
                              ->state()
                              .remaining(router.LocalId(v));
  }

  service.set_crash_after_decision_hook(
      [target = served->txn](std::uint64_t txn) { return txn == target; });
  Feedback feedback(served->arrangement.size(), 1);
  Status st = service.SubmitFeedback(served->txn, feedback);
  ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  service.set_crash_after_decision_hook(nullptr);

  const int home = served->home_shard;
  ASSERT_TRUE(service.KillShard(home).ok());
  auto report = service.RecoverShard(home);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The decision was durable, so recovery completed the transaction on
  // the surviving participants instead of aborting it.
  EXPECT_GE(report->interrupted_completed, 1);
  EXPECT_EQ(report->interrupted_aborted, 0);
  EXPECT_EQ(service.Decisions(home).count(served->txn), 1u);
  EXPECT_EQ(service.OpenReservations(), 0);
  // Every chosen event was consumed exactly once, nothing else moved.
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const std::int64_t consumed =
        static_cast<std::int64_t>(std::count(served->arrangement.begin(),
                                             served->arrangement.end(), v));
    EXPECT_EQ(service.shard_service(router.OwnerShard(v))
                  ->state()
                  .remaining(router.LocalId(v)),
              remaining_before[v] - consumed)
        << "event " << v;
  }
  // The interrupted transaction is spoken for: a retry is rejected.
  EXPECT_EQ(service.SubmitFeedback(served->txn, feedback).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedServiceTest, ParticipantDeathBeforeCommitAbortsReservation) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(service
                  .AttachWals(Env::Default(),
                              FreshShardedDir("shard_participant", 4))
                  .ok());
  const ShardRouter& router = service.router();

  const Matrix contexts = MakeContexts(2);
  int participant = -1;
  StatusOr<ShardedServeResult> served = InternalError("unset");
  for (int attempt = 0; attempt < 8 && participant < 0; ++attempt) {
    served = service.ServeUser(0, 6, contexts);
    ASSERT_TRUE(served.ok());
    for (EventId v : served->arrangement) {
      if (router.OwnerShard(v) != served->home_shard) {
        participant = router.OwnerShard(v);
        break;
      }
    }
    if (participant < 0) {
      Feedback feedback(served->arrangement.size(), 1);
      ASSERT_TRUE(service.SubmitFeedback(served->txn, feedback).ok());
    }
  }
  ASSERT_GE(participant, 0) << "no cross-shard round in 8 attempts";
  ASSERT_GT(service.OpenReservations(), 0);

  // The participant dies with the reservation durably open; the round
  // dies with it (the commit point was never reached).
  ASSERT_TRUE(service.KillShard(participant).ok());
  Feedback feedback(served->arrangement.size(), 1);
  EXPECT_EQ(service.SubmitFeedback(served->txn, feedback).code(),
            StatusCode::kFailedPrecondition);

  auto report = service.RecoverShard(participant);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Its WAL holds the un-closed RESERVE frame; with no decision record
  // anywhere, presumed abort resolves it.
  EXPECT_GE(report->reservations_in_doubt, 1);
  EXPECT_GE(report->resolved_aborted, 1);
  EXPECT_EQ(report->resolved_committed, 0);
  EXPECT_EQ(service.OpenReservations(), 0);
}

TEST(ShardedServiceTest, MergeLearnersAbsorbsPeerObservations) {
  const ProblemInstance instance = MakeInstance();
  ShardedOptions options = Opts(2);
  ShardedArrangementService service(&instance, options);
  for (int i = 0; i < 6; ++i) {
    OneRound(&service, 3, static_cast<std::uint64_t>(i));
  }
  const std::string before = service.shard_service(0)->Checkpoint();
  ASSERT_TRUE(service.MergeLearners().ok());
  EXPECT_GE(service.Stats().merges, 1);
  // Peer observations landed in the ridge state — and left it healthy.
  EXPECT_NE(service.shard_service(0)->Checkpoint(), before);
  EXPECT_EQ(service.ShardHealth(0).state, HealthState::kHealthy);
  // A second merge with no new observations is a no-op.
  const std::string after = service.shard_service(0)->Checkpoint();
  ASSERT_TRUE(service.MergeLearners().ok());
  EXPECT_EQ(service.shard_service(0)->Checkpoint(), after);
}

TEST(ShardedServiceTest, AutoMergeRunsOnTheConfiguredCadence) {
  const ProblemInstance instance = MakeInstance();
  ShardedOptions options = Opts(2);
  options.merge_every = 3;
  ShardedArrangementService service(&instance, options);
  for (int i = 0; i < 6; ++i) {
    OneRound(&service, 3, static_cast<std::uint64_t>(i));
  }
  EXPECT_GE(service.Stats().merges, 1);
}

TEST(ShardedServiceTest, RejectsBadInput) {
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(2));
  Matrix wrong(kEvents - 1, kDim);
  EXPECT_EQ(service.ServeUser(0, 2, wrong).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.SubmitFeedback(999, Feedback{1}).code(),
            StatusCode::kFailedPrecondition);
  auto served = service.ServeUser(0, 2, MakeContexts(0));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(service
                .SubmitFeedback(served->txn,
                                Feedback(served->arrangement.size() + 1, 1))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.KillShard(7).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RecoverShard(0).status().code(),
            StatusCode::kFailedPrecondition);  // Alive — kill it first.
}

TEST(ShardFrameTest, DeclaredCountsBeyondThePayloadAreRejected) {
  // Counts in a frame come from disk, or from the wire for MIGRATE. Each
  // is checked against the bytes left before anything is allocated.
  const auto patched = [](std::string frame, std::size_t offset,
                          std::uint32_t value) {
    EncodeU32(frame.data() + offset, value);
    return frame;
  };
  constexpr std::size_t kHeader = 1 + 8 + 8 + 4;  // kind, txn, trace, epoch

  ReservationRecord reservation;
  reservation.txn = 9;
  reservation.events = {1, 2};
  const std::string reserve = EncodeReserveFrame(reservation);
  ASSERT_TRUE(DecodeShardFrame(reserve).ok());
  // The event count follows shard (u32), round, user and lease (i64s).
  const std::size_t n_events_at = kHeader + 4 + 8 + 8 + 8;
  EXPECT_EQ(DecodeShardFrame(patched(reserve, n_events_at, 3)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(
      DecodeShardFrame(patched(reserve, n_events_at, 0xffffffffu)).status()
          .code(),
      StatusCode::kDataLoss);

  MigrateRecord migrate;
  migrate.src_shard = 1;
  MigratedEvent moved;
  moved.event = 3;
  moved.consumed = 2;
  moved.observations.push_back({{0.25, -1.0}, 1.0});
  migrate.events.push_back(moved);
  const std::string frame = EncodeMigrateFrame(/*trace_id=*/5, 0, migrate);
  auto decoded = DecodeShardFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->migrate.events.size(), 1u);
  EXPECT_EQ(decoded->migrate.events[0].observations[0].context,
            (std::vector<double>{0.25, -1.0}));
  // src (u32), event count (u32), then per event: id (u32), consumed
  // (i64), observation count (u32), dim (u32).
  const std::size_t count_at = kHeader + 4;
  const std::size_t n_obs_at = count_at + 4 + 4 + 8;
  const std::size_t dim_at = n_obs_at + 4;
  for (const auto& [offset, value] :
       std::vector<std::pair<std::size_t, std::uint32_t>>{
           {count_at, 0xffffffffu},
           {n_obs_at, 0xffffffffu},
           {dim_at, 0xffffffffu},
           {dim_at, 3}}) {
    EXPECT_EQ(DecodeShardFrame(patched(frame, offset, value)).status().code(),
              StatusCode::kDataLoss)
        << "offset " << offset << " value " << value;
  }
}

TEST(ShardedServiceTest, InterruptedTxnWithADeadParticipantCommitsOnRecovery) {
  // The coordinator crashes between the phases and one participant dies
  // too. The coordinator's recovery cannot finish that participant's
  // portion; the participant's own recovery resolves its reservation
  // against the recovered decision.
  const ProblemInstance instance = MakeInstance();
  ShardedArrangementService service(&instance, Opts(4));
  ASSERT_TRUE(service
                  .AttachWals(Env::Default(),
                              FreshShardedDir("shard_dead_participant", 4))
                  .ok());
  const ShardRouter& router = service.router();
  auto served = service.ServeUser(0, 6, MakeContexts(3));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const int home = served->home_shard;
  int participant = -1;
  for (EventId v : served->arrangement) {
    if (router.OwnerShard(v) != home) {
      participant = router.OwnerShard(v);
      break;
    }
  }
  ASSERT_GE(participant, 0) << "no spillover happened — weak test";
  std::map<EventId, std::int64_t> remaining_before;
  for (EventId v = 0; v < instance.num_events(); ++v) {
    remaining_before[v] = service.shard_service(router.OwnerShard(v))
                              ->state()
                              .remaining(router.LocalId(v));
  }

  service.set_crash_after_decision_hook(
      [target = served->txn](std::uint64_t txn) { return txn == target; });
  Feedback feedback(served->arrangement.size(), 1);
  ASSERT_EQ(service.SubmitFeedback(served->txn, feedback).code(),
            StatusCode::kUnavailable);
  service.set_crash_after_decision_hook(nullptr);
  ASSERT_TRUE(service.KillShard(home).ok());
  ASSERT_TRUE(service.KillShard(participant).ok());

  auto home_report = service.RecoverShard(home);
  ASSERT_TRUE(home_report.ok()) << home_report.status().ToString();
  auto participant_report = service.RecoverShard(participant);
  ASSERT_TRUE(participant_report.ok())
      << participant_report.status().ToString();
  EXPECT_EQ(participant_report->reservations_in_doubt, 1);
  EXPECT_EQ(participant_report->resolved_committed, 1);
  EXPECT_EQ(participant_report->resolved_aborted, 0);
  EXPECT_EQ(service.OpenReservations(), 0);
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const std::int64_t consumed =
        static_cast<std::int64_t>(std::count(served->arrangement.begin(),
                                             served->arrangement.end(), v));
    EXPECT_EQ(service.shard_service(router.OwnerShard(v))
                  ->state()
                  .remaining(router.LocalId(v)),
              remaining_before[v] - consumed)
        << "event " << v;
  }
}

TEST(ShardedServiceTest, ConcurrentCallersServeInParallelWithoutANetwork) {
  // Without a network the protocol runs on the loopback, which takes no
  // gateway lock: callers on different homes proceed in parallel, and a
  // busy shard answers retryably.
  constexpr std::int64_t kCapacity = 400;
  constexpr int kThreads = 4;
  constexpr std::int64_t kRounds = 800;
  const ProblemInstance instance = MakeInstance(kCapacity);
  ShardedArrangementService service(&instance, Opts(4));
  const auto retryable = [](StatusCode code) {
    return code == StatusCode::kFailedPrecondition ||
           code == StatusCode::kUnavailable ||
           code == StatusCode::kResourceExhausted;
  };

  std::atomic<std::int64_t> completed{0};
  std::vector<std::map<EventId, std::int64_t>> accepted(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const Matrix contexts = MakeContexts(static_cast<std::uint64_t>(w));
      for (std::int64_t i = 0; completed.load() < kRounds; ++i) {
        auto served = service.ServeUser(w, 6, contexts);
        if (!served.ok()) {
          if (retryable(served.status().code())) {
            std::this_thread::yield();
            continue;
          }
          errors[w] = served.status().ToString();
          return;
        }
        Feedback feedback(served->arrangement.size());
        for (std::size_t j = 0; j < feedback.size(); ++j) {
          feedback[j] = static_cast<std::uint8_t>((i + j + w) % 2);
        }
        Status st = service.SubmitFeedback(served->txn, feedback);
        while (!st.ok() && retryable(st.code())) {
          std::this_thread::yield();
          st = service.SubmitFeedback(served->txn, feedback);
        }
        if (!st.ok()) {
          errors[w] = st.ToString();
          return;
        }
        for (std::size_t j = 0; j < feedback.size(); ++j) {
          accepted[w][served->arrangement[j]] += feedback[j];
        }
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::string& error : errors) EXPECT_EQ(error, "");

  EXPECT_EQ(service.rounds_completed(), completed.load());
  EXPECT_GE(completed.load(), kRounds);
  EXPECT_EQ(service.OpenReservations(), 0);
  EXPECT_GT(service.Stats().cross_shard_rounds, 0);
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    std::int64_t total = 0;
    for (const auto& mine : accepted) {
      const auto it = mine.find(v);
      if (it != mine.end()) total += it->second;
    }
    EXPECT_EQ(service.shard_service(router.OwnerShard(v))
                  ->state()
                  .remaining(router.LocalId(v)),
              kCapacity - total)
        << "event " << v;
  }
}

}  // namespace
}  // namespace fasea
