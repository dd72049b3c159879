#include "ebsn/recovery_manager.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/event_catalog.h"
#include "io/fault_injection_env.h"
#include "oracle/oracle.h"
#include "rng/distributions.h"
#include "rng/seed.h"

namespace fasea {
namespace {

/// Capacities large enough that 30+ rounds never exhaust an event, so
/// the reference and recovered trajectories stay in the interesting
/// regime throughout.
ProblemInstance MakeInstance() {
  EventCatalog catalog;
  EventSpec a{"concert", 40, 19.0, 21.0, {"music"}};
  EventSpec b{"opera", 30, 20.0, 22.0, {"music"}};  // Conflicts concert.
  EventSpec c{"football", 50, 14.0, 16.0, {"sport"}};
  FASEA_CHECK(catalog.Add(a).ok());
  FASEA_CHECK(catalog.Add(b).ok());
  FASEA_CHECK(catalog.Add(c).ok());
  auto instance = catalog.BuildInstance(3);
  FASEA_CHECK(instance.ok());
  return std::move(instance).value();
}

ContextMatrix MakeContexts(Pcg64& rng) {
  ContextMatrix ctx(3, 3);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t j = 0; j < 3; ++j) {
      ctx(v, j) = UniformReal(rng, 0.0, 0.5);
    }
  }
  return ctx;
}

/// Serves `n` rounds. The kUcb policy is deterministic, so two services
/// fed the same rng seed walk bit-identical trajectories.
void RunRounds(ArrangementService& service, Pcg64& rng, int n) {
  for (int round = 0; round < n; ++round) {
    // User id derives from the global round counter so a trajectory split
    // across several RunRounds calls matches an uninterrupted one.
    auto arrangement =
        service.ServeUser(service.rounds_served() % 3, 2, MakeContexts(rng));
    ASSERT_TRUE(arrangement.ok());
    Feedback feedback(arrangement->size());
    for (auto& f : feedback) f = Bernoulli(rng, 0.6) ? 1 : 0;
    ASSERT_TRUE(service.SubmitFeedback(feedback).ok());
  }
}

const LinearPolicyBase& Ridge(const ArrangementService& service) {
  const auto* base =
      dynamic_cast<const LinearPolicyBase*>(&service.policy());
  FASEA_CHECK(base != nullptr);
  return *base;
}

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

std::unique_ptr<WalWriter> OpenWal(Env* env, const std::string& dir) {
  auto writer = WalWriter::Open(env, dir);
  FASEA_CHECK(writer.ok());
  return std::move(writer).value();
}

/// Asserts every piece of recoverable state matches bit-for-bit, and the
/// records recovery restored encode to exactly the frames the reference
/// wrote to its own WAL in `reference_wal_dir`.
void ExpectBitIdentical(const RecoveredService& restored,
                        const ArrangementService& reference,
                        const std::string& reference_wal_dir) {
  const ArrangementService& recovered = *restored.service;
  EXPECT_EQ(Ridge(recovered).ridge().Y().MaxAbsDiff(
                Ridge(reference).ridge().Y()),
            0.0);
  EXPECT_EQ(MaxAbsDiff(Ridge(recovered).ridge().b(),
                       Ridge(reference).ridge().b()),
            0.0);
  EXPECT_EQ(Ridge(recovered).ridge().num_observations(),
            Ridge(reference).ridge().num_observations());
  EXPECT_EQ(recovered.rounds_served(), reference.rounds_served());
  for (EventId v = 0; v < 3; ++v) {
    EXPECT_EQ(recovered.state().remaining(v), reference.state().remaining(v));
  }
  auto scan = ScanWal(Env::Default(), reference_wal_dir);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(restored.records.size(), scan->payloads.size());
  for (std::size_t i = 0; i < restored.records.size(); ++i) {
    EXPECT_EQ(EncodeInteractionRecord(restored.records[i]),
              scan->payloads[i])
        << "record " << i;
  }
}

// --- The acceptance scenario: crash, torn tail, recovery ----------------

TEST(RecoveryTest, CrashRecoveryRoundTripIsBitIdentical) {
  const ProblemInstance instance = MakeInstance();
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir("recovery_roundtrip");

  // Live service: 30 rounds under WAL protection, checkpoint at round 20.
  std::string checkpoint;
  std::int64_t checkpoint_observations = 0;
  {
    ArrangementService live(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
    live.AttachWal(OpenWal(&env, dir));
    Pcg64 rng(42);
    RunRounds(live, rng, 20);
    checkpoint = live.Checkpoint();
    checkpoint_observations = Ridge(live).ridge().num_observations();
    RunRounds(live, rng, 10);
    ASSERT_EQ(live.rounds_served(), 30);
    // Crash: `live` goes out of scope without a clean shutdown.
  }

  // Bit rot on the final frame: recovery must truncate round 30 and
  // restore the service exactly as of round 29.
  const std::string segment = JoinPath(dir, WalSegmentFileName(1));
  auto raw = Env::Default()->ReadFileToString(segment);
  ASSERT_TRUE(raw.ok());
  env.ArmReadCorruption(WalSegmentFileName(1), raw->size() - 1, 0x01);

  // Uninterrupted reference: the same trajectory through round 29, with
  // its own WAL as the record of what it served.
  const std::string reference_dir = FreshDir("recovery_roundtrip_reference");
  ArrangementService reference(&instance, PolicyKind::kUcb, PolicyParams{},
                               1);
  reference.AttachWal(OpenWal(Env::Default(), reference_dir));
  Pcg64 reference_rng(42);
  RunRounds(reference, reference_rng, 29);

  // Recover with the checkpoint: rounds 1..20 restore state only, rounds
  // 21..29 also replay learning.
  auto with_checkpoint =
      RecoverArrangementService(&instance, &env, dir, checkpoint);
  ASSERT_TRUE(with_checkpoint.ok());
  const RecoveryReport& report = with_checkpoint->report;
  EXPECT_TRUE(report.had_checkpoint);
  EXPECT_EQ(report.checkpoint_observations, checkpoint_observations);
  EXPECT_EQ(report.records_scanned, 29);
  EXPECT_EQ(report.records_restored, 20);
  EXPECT_EQ(report.records_replayed, 9);
  EXPECT_GT(report.bytes_truncated, 0);
  EXPECT_EQ(report.rounds_served, 29);
  ExpectBitIdentical(*with_checkpoint, reference, reference_dir);
  EXPECT_FALSE(with_checkpoint->service->wal_attached());

  // Without a checkpoint every surviving record replays learning — the
  // result must be the same bits.
  auto from_scratch = RecoverArrangementService(&instance, &env, dir, "");
  ASSERT_TRUE(from_scratch.ok());
  EXPECT_FALSE(from_scratch->report.had_checkpoint);
  EXPECT_EQ(from_scratch->report.records_replayed, 29);
  EXPECT_EQ(from_scratch->report.records_restored, 0);
  ExpectBitIdentical(*from_scratch, reference, reference_dir);

  // The dry run (fasea_cli recover) agrees with the real recovery.
  auto inspected = InspectWal(&env, dir, checkpoint);
  ASSERT_TRUE(inspected.ok());
  EXPECT_EQ(inspected->records_scanned, 29);
  EXPECT_EQ(inspected->records_restored, 20);
  EXPECT_EQ(inspected->records_replayed, 9);
  EXPECT_NE(inspected->ToString().find("records replayed"),
            std::string::npos);
}

TEST(RecoveryTest, RecoveredServiceContinuesServing) {
  const ProblemInstance instance = MakeInstance();
  Env* env = Env::Default();
  const std::string dir = FreshDir("recovery_continue");
  {
    ArrangementService live(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
    live.AttachWal(OpenWal(env, dir));
    Pcg64 rng(7);
    RunRounds(live, rng, 10);
  }
  auto recovered = RecoverArrangementService(&instance, env, dir, "");
  ASSERT_TRUE(recovered.ok());
  ArrangementService& service = *recovered->service;
  // A fresh writer appends to a new segment — recovered frames are never
  // rewritten — and serving picks up where the log left off.
  service.AttachWal(OpenWal(env, dir));
  Pcg64 rng(99);
  auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  ASSERT_TRUE(service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
  EXPECT_EQ(service.rounds_served(), 11);

  auto scan = ScanWal(env, dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->payloads.size(), 11u);
  EXPECT_GE(scan->last_segment_index, 2u);
}

// --- A recovered service continues the uninterrupted run -----------------

constexpr std::int64_t kWalRounds = 20;        // N: rounds in the WAL.
constexpr std::int64_t kContinuedRounds = 20;  // Served after recovery.
constexpr std::uint64_t kContinuationSeed = 5;

/// Serves rounds [first, last] of `world` — sequentially, or through the
/// batched entry points once batching is enabled — and returns the
/// arrangements. Round t's arrival and feedback depend only on t and the
/// arrangement, so a run split by a crash sees the inputs of an
/// uninterrupted one.
std::vector<Arrangement> ServeRounds(ArrangementService& service,
                                     SyntheticWorld& world,
                                     std::int64_t first, std::int64_t last) {
  std::vector<Arrangement> served;
  for (std::int64_t t = first; t <= last; ++t) {
    const RoundContext round = world.provider().NextRound(t);
    std::int64_t ticket = 0;
    Arrangement arrangement;
    if (service.batching_enabled()) {
      auto result = service.ServeUserBatched(round.user_id,
                                             round.user_capacity,
                                             round.contexts);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) break;
      ticket = result->ticket;
      arrangement = result->arrangement;
    } else {
      auto result =
          service.ServeUser(round.user_id, round.user_capacity, round.contexts);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) break;
      arrangement = *result;
    }
    Pcg64 fb_rng(DeriveSeed(kContinuationSeed, "feedback",
                            static_cast<std::uint64_t>(t)));
    const Feedback feedback =
        world.feedback().Sample(t, round.contexts, arrangement, fb_rng);
    const Status st = service.batching_enabled()
                          ? service.SubmitBatchedFeedback(ticket, feedback)
                          : service.SubmitFeedback(feedback);
    EXPECT_TRUE(st.ok()) << st.ToString();
    served.push_back(std::move(arrangement));
  }
  return served;
}

/// Crashes a `kind` service after kWalRounds WAL-logged rounds, recovers
/// it from the WAL with the same seed, and checks that it serves the
/// next kContinuedRounds exactly as an uninterrupted service does.
void ExpectRecoveryContinuesTheRun(PolicyKind kind, bool batched) {
  SCOPED_TRACE(std::string(PolicyKindName(kind)) +
               (batched ? " batched" : " sequential"));
  SyntheticConfig config;
  config.num_events = 16;
  config.dim = 4;
  config.horizon = kWalRounds + kContinuedRounds;
  config.seed = 23;
  auto world = SyntheticWorld::Create(config);
  ASSERT_TRUE(world.ok());
  const ProblemInstance& instance = (*world)->instance();
  PolicyParams params;
  params.epsilon = 0.3;

  ArrangementService uninterrupted(&instance, kind, params, kContinuationSeed);
  if (batched) uninterrupted.ConfigureBatching(BatchingOptions{});
  const std::vector<Arrangement> want =
      ServeRounds(uninterrupted, **world, 1, config.horizon);
  ASSERT_EQ(want.size(), static_cast<std::size_t>(config.horizon));

  Env* env = Env::Default();
  const std::string dir =
      FreshDir(std::string("recovery_continues_") +
               std::string(PolicyKindName(kind)) + (batched ? "_b" : "_s"));
  {
    ArrangementService live(&instance, kind, params, kContinuationSeed);
    live.AttachWal(OpenWal(env, dir));
    if (batched) live.ConfigureBatching(BatchingOptions{});
    ServeRounds(live, **world, 1, kWalRounds);
  }
  RecoveryOptions options;
  options.kind = kind;
  options.params = params;
  options.seed = kContinuationSeed;
  auto recovered = RecoverArrangementService(&instance, env, dir, "", options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ArrangementService& service = *recovered->service;
  ASSERT_EQ(service.rounds_served(), kWalRounds);
  if (batched) service.ConfigureBatching(BatchingOptions{});
  const std::vector<Arrangement> got =
      ServeRounds(service, **world, kWalRounds + 1, config.horizon);
  EXPECT_EQ(got, std::vector<Arrangement>(want.begin() + kWalRounds,
                                          want.end()));
}

TEST(RecoveryTest, RecoveredServiceServesLikeTheUninterruptedOne) {
  for (PolicyKind kind :
       {PolicyKind::kUcb, PolicyKind::kTs, PolicyKind::kEpsGreedy,
        PolicyKind::kExploit, PolicyKind::kRandom, PolicyKind::kBoltzmann}) {
    ExpectRecoveryContinuesTheRun(kind, /*batched=*/false);
  }
}

TEST(RecoveryTest, RecoveredBatchedServiceServesLikeTheUninterruptedOne) {
  // Tickets continue from the recovered round count, so TS also scales
  // its posterior for round N + 1, not round 1.
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kExploit,
                          PolicyKind::kTs, PolicyKind::kEpsGreedy}) {
    ExpectRecoveryContinuesTheRun(kind, /*batched=*/true);
  }
}

TEST(RecoveryTest, EmptyOrMissingWalRecoversFreshService) {
  const ProblemInstance instance = MakeInstance();
  auto recovered = RecoverArrangementService(
      &instance, Env::Default(), ::testing::TempDir() + "fasea_no_such_wal",
      "");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.records_scanned, 0);
  EXPECT_EQ(recovered->service->rounds_served(), 0);
  EXPECT_EQ(Ridge(*recovered->service).ridge().num_observations(), 0);
}

TEST(RecoveryTest, CheckpointAheadOfWalIsDataLoss) {
  const ProblemInstance instance = MakeInstance();
  Env* env = Env::Default();
  const std::string dir = FreshDir("recovery_checkpoint_ahead");
  std::string checkpoint;
  {
    ArrangementService live(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
    live.AttachWal(OpenWal(env, dir));
    Pcg64 rng(11);
    RunRounds(live, rng, 5);
    RunRounds(live, rng, 5);
    checkpoint = live.Checkpoint();
  }
  // Lose the WAL (operator error, disk swap): the checkpoint's horizon is
  // now past everything the log can prove.
  auto names = env->ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    ASSERT_TRUE(env->DeleteFile(JoinPath(dir, name)).ok());
  }
  auto recovered = RecoverArrangementService(&instance, env, dir, checkpoint);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

// Regression: a retried append whose first copy actually reached the
// disk can land several rounds away from the original — a retry storm
// interleaved across users separates the duplicate from its first copy.
// Replay must apply each round exactly once no matter where the
// duplicate lands, not only when it sits adjacent to the original.
TEST(RecoveryTest, NonAdjacentDuplicateFramesCollapseOnReplay) {
  const ProblemInstance instance = MakeInstance();
  Env* env = Env::Default();
  const std::string dir = FreshDir("recovery_nonadjacent_dup");
  {
    ArrangementService live(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
    live.AttachWal(OpenWal(env, dir));
    Pcg64 rng(17);
    RunRounds(live, rng, 6);
    auto scan = ScanWal(env, dir);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan->payloads.size(), 6u);
    // Late retries of rounds 2 and 5 reach the log after round 6 — four
    // and one rounds away from their originals (a fresh segment, as a
    // post-reopen retry would use).
    auto writer = OpenWal(env, dir);
    ASSERT_TRUE(writer->Append(scan->payloads[1]).ok());
    ASSERT_TRUE(writer->Append(scan->payloads[4]).ok());
  }

  const std::string reference_dir =
      FreshDir("recovery_nonadjacent_dup_reference");
  ArrangementService reference(&instance, PolicyKind::kUcb, PolicyParams{},
                               1);
  reference.AttachWal(OpenWal(env, reference_dir));
  Pcg64 reference_rng(17);
  RunRounds(reference, reference_rng, 6);

  auto recovered = RecoverArrangementService(&instance, env, dir, "");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.duplicate_frames_skipped, 2);
  EXPECT_EQ(recovered->report.records_scanned, 6);
  ExpectBitIdentical(*recovered, reference, reference_dir);
}

// --- Mid-file corruption: fail-fast vs skip-and-count -------------------

TEST(RecoveryTest, MidFileCorruptionFailsOrSkipsPerPolicy) {
  const ProblemInstance instance = MakeInstance();
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir("recovery_mid_corruption");
  {
    ArrangementService live(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
    live.AttachWal(OpenWal(&env, dir));
    Pcg64 rng(13);
    RunRounds(live, rng, 3);
  }
  // Flip a byte inside the first record's payload (well before the valid
  // frames that follow, so this is corruption, not a torn tail).
  env.ArmReadCorruption(WalSegmentFileName(1), /*offset=*/16 + 8 + 16, 0x01);

  auto strict = RecoverArrangementService(&instance, &env, dir, "");
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  RecoveryOptions lenient;
  lenient.corrupt_frames = CorruptFramePolicy::kSkip;
  auto recovered =
      RecoverArrangementService(&instance, &env, dir, "", lenient);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.corrupt_frames_skipped, 1);
  EXPECT_EQ(recovered->report.records_scanned, 2);
  ASSERT_EQ(recovered->records.size(), 2u);
  EXPECT_EQ(recovered->records[0].t, 2);  // Round 1's frame was skipped.
  EXPECT_EQ(recovered->records[1].t, 3);
  EXPECT_EQ(recovered->service->rounds_served(), 3);  // Round ids survive.
}

// --- DurabilityPolicy under injected faults -----------------------------

struct ServiceSnapshot {
  Matrix y;
  Vector b;
  std::vector<std::int64_t> remaining;
  std::string checkpoint;  // Learner state and its observation count.
  std::int64_t rounds_served;

  static ServiceSnapshot Of(const ArrangementService& service) {
    ServiceSnapshot snap{Ridge(service).ridge().Y(),
                         Ridge(service).ridge().b(),
                         {},
                         service.Checkpoint(),
                         service.rounds_served()};
    for (EventId v = 0; v < 3; ++v) {
      snap.remaining.push_back(service.state().remaining(v));
    }
    return snap;
  }

  void ExpectUnchanged(const ArrangementService& service) const {
    EXPECT_EQ(Ridge(service).ridge().Y().MaxAbsDiff(y), 0.0);
    EXPECT_EQ(MaxAbsDiff(Ridge(service).ridge().b(), b), 0.0);
    for (EventId v = 0; v < 3; ++v) {
      EXPECT_EQ(service.state().remaining(v), remaining[v]);
    }
    EXPECT_EQ(service.Checkpoint(), checkpoint);
    EXPECT_EQ(service.rounds_served(), rounds_served);
  }
};

enum class Fault { kShortWrite, kWriteError, kSyncFailure };

void Arm(FaultInjectionEnv& env, Fault fault) {
  switch (fault) {
    case Fault::kShortWrite:
      env.ArmShortWrite(/*countdown=*/0, /*keep_bytes=*/3);
      break;
    case Fault::kWriteError:
      env.ArmWriteError(/*countdown=*/0);
      break;
    case Fault::kSyncFailure:
      env.ArmSyncFailure(/*countdown=*/0);
      break;
  }
}

/// Fail-fast: the faulted round fails with a retryable status and leaves
/// every piece of state untouched; the WAL stays usable for recovery.
void CheckFailRound(Fault fault, const std::string& dir_name) {
  const ProblemInstance instance = MakeInstance();
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir(dir_name);
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  service.AttachWal(OpenWal(&env, dir),
                    DurabilityPolicy{DurabilityPolicy::OnWalError::kFailRound});
  Pcg64 rng(17);
  RunRounds(service, rng, 1);

  auto arrangement = service.ServeUser(1, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  const ServiceSnapshot before = ServiceSnapshot::Of(service);

  Arm(env, fault);
  const Status failed =
      service.SubmitFeedback(Feedback(arrangement->size(), 1));
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(failed));
  before.ExpectUnchanged(service);
  EXPECT_TRUE(service.AwaitingFeedback());  // The round is still open.
  EXPECT_EQ(service.wal_append_failures(), 1);
  EXPECT_FALSE(service.wal_degraded());

  // The writer is broken until an operator intervenes: resubmitting keeps
  // failing retryably, and still changes nothing.
  const Status again =
      service.SubmitFeedback(Feedback(arrangement->size(), 1));
  EXPECT_EQ(again.code(), StatusCode::kUnavailable);
  before.ExpectUnchanged(service);

  // Recovery from the surviving WAL restores the applied round.
  env.DisarmAll();
  auto recovered = RecoverArrangementService(&instance, &env, dir, "");
  ASSERT_TRUE(recovered.ok());
  EXPECT_GE(recovered->service->rounds_served(), 1);
}

/// Degrade: the faulted round is applied, the WAL is abandoned, and the
/// health flag trips so monitoring can page someone.
void CheckDegrade(Fault fault, const std::string& dir_name) {
  const ProblemInstance instance = MakeInstance();
  FaultInjectionEnv env(Env::Default());
  const std::string dir = FreshDir(dir_name);
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  service.AttachWal(OpenWal(&env, dir),
                    DurabilityPolicy{DurabilityPolicy::OnWalError::kDegrade});
  Pcg64 rng(19);
  RunRounds(service, rng, 1);
  EXPECT_FALSE(service.wal_degraded());

  auto arrangement = service.ServeUser(1, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  const std::int64_t observations = Ridge(service).ridge().num_observations();
  Arm(env, fault);
  ASSERT_TRUE(service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
  EXPECT_TRUE(service.wal_degraded());
  EXPECT_EQ(service.wal_append_failures(), 1);
  EXPECT_EQ(service.rounds_served(), 2);
  // The faulted round was applied all the same.
  EXPECT_EQ(Ridge(service).ridge().num_observations(),
            observations + static_cast<std::int64_t>(arrangement->size()));

  // Serving continues, without further WAL traffic.
  env.DisarmAll();
  const std::int64_t appends_before = env.appends_seen();
  RunRounds(service, rng, 2);
  EXPECT_EQ(env.appends_seen(), appends_before);
  EXPECT_EQ(service.rounds_served(), 4);

  // Rounds served after the degradation point are not durable — exactly
  // what wal_degraded() warns about. (A sync failure may leave the
  // faulted round's frame readable; short/failed writes do not.)
  auto recovered = RecoverArrangementService(&instance, &env, dir, "");
  ASSERT_TRUE(recovered.ok());
  EXPECT_GE(recovered->service->rounds_served(), 1);
  EXPECT_LT(recovered->service->rounds_served(), service.rounds_served());
}

TEST(RecoveryTest, ShortWriteFailRound) {
  CheckFailRound(Fault::kShortWrite, "durability_short_fail");
}
TEST(RecoveryTest, ShortWriteDegrade) {
  CheckDegrade(Fault::kShortWrite, "durability_short_degrade");
}
TEST(RecoveryTest, WriteErrorFailRound) {
  CheckFailRound(Fault::kWriteError, "durability_error_fail");
}
TEST(RecoveryTest, WriteErrorDegrade) {
  CheckDegrade(Fault::kWriteError, "durability_error_degrade");
}
TEST(RecoveryTest, SyncFailureFailRound) {
  CheckFailRound(Fault::kSyncFailure, "durability_sync_fail");
}
TEST(RecoveryTest, SyncFailureDegrade) {
  CheckDegrade(Fault::kSyncFailure, "durability_sync_degrade");
}

// --- Numerical degradation: stateless greedy fallback -------------------

TEST(RecoveryTest, UnhealthyLearnerFallsBackToStatelessProposal) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(23);
  RunRounds(service, rng, 3);
  EXPECT_EQ(service.stateless_fallbacks(), 0);

  auto* base = dynamic_cast<LinearPolicyBase*>(service.mutable_policy());
  ASSERT_NE(base, nullptr);
  base->mutable_ridge().SetUnhealthyForTesting();

  auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  EXPECT_EQ(service.stateless_fallbacks(), 1);
  EXPECT_TRUE(IsFeasibleArrangement(*arrangement, instance.conflicts(),
                                    service.state(), 2));
  // The protocol keeps working end to end on the fallback path.
  ASSERT_TRUE(service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
  EXPECT_EQ(service.rounds_served(), 4);
}

}  // namespace
}  // namespace fasea
