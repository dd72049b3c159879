// Snapshot-read batched serving: mode exclusion, seed-for-seed parity
// with the sequential protocol, ticket-order capacity resolution,
// out-of-order feedback, deadline handling, snapshot epochs, what the
// resolve wait histogram measures, the WAL spans' round tags, and the
// policies batching refuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/event_catalog.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "rng/distributions.h"
#include "rng/seed.h"

namespace fasea {
namespace {

ProblemInstance MakeInstance() {
  EventCatalog catalog;
  // Non-overlapping times: no conflicts, so capacity alone decides.
  EventSpec scarce{"scarce", 1, 9.0, 10.0, {"a"}};
  EventSpec roomy{"roomy", 4, 11.0, 12.0, {"b"}};
  EventSpec spare{"spare", 4, 13.0, 14.0, {"c"}};
  FASEA_CHECK(catalog.Add(scarce).ok());
  FASEA_CHECK(catalog.Add(roomy).ok());
  FASEA_CHECK(catalog.Add(spare).ok());
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

SyntheticConfig WorldConfig() {
  SyntheticConfig config;
  config.num_events = 12;
  config.dim = 4;
  config.horizon = 200;
  config.seed = 29;
  return config;
}

TEST(BatchedServingTest, ModeExclusionIsSymmetric) {
  const ProblemInstance instance = MakeInstance();
  Pcg64 rng(3);
  const ContextMatrix contexts = MakeContexts(rng);

  ArrangementService sequential(&instance, PolicyKind::kUcb, PolicyParams{},
                                /*seed=*/1);
  EXPECT_EQ(sequential.ServeUserBatched(0, 1, contexts).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sequential.SubmitBatchedFeedback(1, Feedback(1, 1)).code(),
            StatusCode::kFailedPrecondition);

  ArrangementService batched(&instance, PolicyKind::kUcb, PolicyParams{},
                             /*seed=*/1);
  batched.ConfigureBatching(BatchingOptions{});
  EXPECT_TRUE(batched.batching_enabled());
  EXPECT_EQ(batched.ServeUser(0, 1, contexts).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(batched.SubmitFeedback(Feedback(1, 1)).code(),
            StatusCode::kFailedPrecondition);
}

// Driven one user at a time, the batched protocol must produce the exact
// arrangements and learner trajectory of the sequential one: every
// arrival is scored against a snapshot that equals the live state (no
// feedback is outstanding between rounds), through the same scoring
// routine live Propose runs.
void ExpectSingleUserRunMatchesSequential(PolicyKind kind) {
  SCOPED_TRACE(PolicyKindName(kind));
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService sequential(&(*world)->instance(), kind, PolicyParams{},
                                /*seed=*/7);
  ArrangementService batched(&(*world)->instance(), kind, PolicyParams{},
                             /*seed=*/7);
  batched.ConfigureBatching(BatchingOptions{});

  Pcg64 fb_rng(DeriveSeed(7, "parity-feedback"));
  for (int t = 1; t <= 40; ++t) {
    RoundContext round = (*world)->provider().NextRound(t);
    auto seq = sequential.ServeUser(round.user_id, round.user_capacity,
                                    round.contexts);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    auto bat = batched.ServeUserBatched(round.user_id, round.user_capacity,
                                        round.contexts);
    ASSERT_TRUE(bat.ok()) << bat.status().ToString();
    ASSERT_EQ(*seq, bat->arrangement) << "round " << t;

    const Feedback feedback =
        (*world)->feedback().Sample(t, round.contexts, *seq, fb_rng);
    ASSERT_TRUE(sequential.SubmitFeedback(feedback).ok());
    ASSERT_TRUE(batched.SubmitBatchedFeedback(bat->ticket, feedback).ok());
  }
  EXPECT_EQ(sequential.rounds_served(), batched.rounds_served());
  EXPECT_EQ(sequential.Checkpoint(), batched.Checkpoint());
}

TEST(BatchedServingTest, SingleUserRunMatchesSequentialSeedForSeed) {
  // UCB and Exploit draw nothing; TS and eGreedy key their draws by the
  // serve-time round id, which a lone arrival's ticket equals. So the two
  // paths agree seed for seed.
  ExpectSingleUserRunMatchesSequential(PolicyKind::kUcb);
  ExpectSingleUserRunMatchesSequential(PolicyKind::kExploit);
  ExpectSingleUserRunMatchesSequential(PolicyKind::kTs);
  ExpectSingleUserRunMatchesSequential(PolicyKind::kEpsGreedy);
}

TEST(BatchedServingTest, ConcurrentArrivalsMatchTicketOrderReplay) {
  // However the arrivals interleave, per-ticket arrangements must equal
  // a one-at-a-time replay in ticket order against the same epoch-0
  // snapshot (feedback withheld until every arrival resolved).
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  constexpr int kUsers = 4;
  std::vector<RoundContext> rounds(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    rounds[i] = (*world)->provider().NextRound(i + 1);
  }

  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  BatchingOptions options;
  service.ConfigureBatching(options);

  struct Served {
    std::int64_t ticket = 0;
    int round_index = 0;
    Arrangement arrangement;
  };
  std::vector<Served> served(kUsers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kUsers; ++w) {
    workers.emplace_back([&, w] {
      auto result = service.ServeUserBatched(rounds[w].user_id,
                                             rounds[w].user_capacity,
                                             rounds[w].contexts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      served[w] = {result->ticket, w, std::move(result->arrangement)};
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::sort(served.begin(), served.end(),
            [](const Served& a, const Served& b) {
              return a.ticket < b.ticket;
            });

  // Replay in ticket order on a fresh service, one lone arrival at a
  // time with no feedback in between: same snapshot, same reservation
  // sequence.
  ArrangementService reference(&(*world)->instance(), PolicyKind::kUcb,
                               PolicyParams{}, /*seed=*/7);
  reference.ConfigureBatching(BatchingOptions{});
  for (int i = 0; i < kUsers; ++i) {
    const RoundContext& round = rounds[served[i].round_index];
    auto result = reference.ServeUserBatched(round.user_id,
                                             round.user_capacity,
                                             round.contexts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->epoch, 0);
    EXPECT_EQ(result->arrangement, served[i].arrangement)
        << "ticket position " << i;
  }

  // Drain both services so reservations resolve.
  for (int i = 0; i < kUsers; ++i) {
    ASSERT_TRUE(service
                    .SubmitBatchedFeedback(
                        served[i].ticket,
                        Feedback(served[i].arrangement.size(), 1))
                    .ok());
    ASSERT_TRUE(reference
                    .SubmitBatchedFeedback(
                        i + 1, Feedback(served[i].arrangement.size(), 1))
                    .ok());
  }
  EXPECT_EQ(service.pending_batched_rounds(), 0);
}

TEST(BatchedServingTest, ScarceSeatGoesToTheEarlierTicket) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{},
                             /*seed=*/5);
  BatchingOptions options;
  service.ConfigureBatching(options);

  // Event 0 ("scarce", capacity 1) dominates every score at epoch 0:
  // UCB widths scale with the context norm under Y = λI. Row norms must
  // stay within the service's unit-ball validation.
  ContextMatrix contexts(3, 3);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t j = 0; j < 3; ++j) {
      contexts(v, j) = v == 0 ? 0.5 : 0.01;
    }
  }

  StatusOr<BatchedRound> first(UnavailableError("unset"));
  StatusOr<BatchedRound> second(UnavailableError("unset"));
  std::thread a([&] { first = service.ServeUserBatched(1, 1, contexts); });
  std::thread b([&] { second = service.ServeUserBatched(2, 1, contexts); });
  a.join();
  b.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  const BatchedRound& early =
      first->ticket < second->ticket ? *first : *second;
  const BatchedRound& late =
      first->ticket < second->ticket ? *second : *first;
  ASSERT_EQ(early.arrangement.size(), 1u);
  ASSERT_EQ(late.arrangement.size(), 1u);
  // The single scarce seat went to the earlier ticket; the later one got
  // the next-best event instead of overselling.
  EXPECT_EQ(early.arrangement[0], 0);
  EXPECT_NE(late.arrangement[0], 0);

  ASSERT_TRUE(
      service.SubmitBatchedFeedback(early.ticket, Feedback(1, 1)).ok());
  ASSERT_TRUE(
      service.SubmitBatchedFeedback(late.ticket, Feedback(1, 0)).ok());
  EXPECT_EQ(service.pending_batched_rounds(), 0);
}

TEST(BatchedServingTest, RejectedSeatsAreReleasedForLaterRounds) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{},
                             /*seed=*/5);
  service.ConfigureBatching(BatchingOptions{});

  ContextMatrix contexts(3, 3);
  for (std::size_t v = 0; v < 3; ++v) {
    for (std::size_t j = 0; j < 3; ++j) {
      contexts(v, j) = v == 0 ? 0.5 : 0.01;
    }
  }
  auto first = service.ServeUserBatched(1, 1, contexts);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->arrangement, Arrangement{0});
  // Rejected: the reservation on the scarce seat must be released...
  ASSERT_TRUE(
      service.SubmitBatchedFeedback(first->ticket, Feedback(1, 0)).ok());
  // ...so the next user can be offered it again.
  auto second = service.ServeUserBatched(2, 1, contexts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->arrangement, Arrangement{0});
  ASSERT_TRUE(
      service.SubmitBatchedFeedback(second->ticket, Feedback(1, 1)).ok());
  // Accepted: the seat is consumed for real this time.
  auto third = service.ServeUserBatched(3, 1, contexts);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->arrangement, Arrangement{0});
  ASSERT_TRUE(
      service.SubmitBatchedFeedback(third->ticket, Feedback(1, 0)).ok());
}

TEST(BatchedServingTest, OutOfOrderFeedbackCommitsCleanly) {
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  BatchingOptions options;
  service.ConfigureBatching(options);

  std::vector<RoundContext> rounds(2);
  for (int i = 0; i < 2; ++i) {
    rounds[i] = (*world)->provider().NextRound(i + 1);
  }
  std::vector<StatusOr<BatchedRound>> results(
      2, StatusOr<BatchedRound>(UnavailableError("unset")));
  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      results[w] = service.ServeUserBatched(
          rounds[w].user_id, rounds[w].user_capacity, rounds[w].contexts);
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  EXPECT_EQ(service.pending_batched_rounds(), 2);

  // Higher ticket first: commit order defines the round ids, so the WAL
  // stays strictly increasing regardless of feedback arrival order.
  const int hi = results[0]->ticket > results[1]->ticket ? 0 : 1;
  FeedbackResult fb_hi, fb_lo;
  ASSERT_TRUE(service
                  .SubmitBatchedFeedback(
                      results[hi]->ticket,
                      Feedback(results[hi]->arrangement.size(), 1), &fb_hi)
                  .ok());
  ASSERT_TRUE(service
                  .SubmitBatchedFeedback(
                      results[1 - hi]->ticket,
                      Feedback(results[1 - hi]->arrangement.size(), 1),
                      &fb_lo)
                  .ok());
  EXPECT_EQ(fb_hi.round, 1);
  EXPECT_EQ(fb_lo.round, 2);
  EXPECT_EQ(service.rounds_served(), 2);
  const auto* base = dynamic_cast<const LinearPolicyBase*>(&service.policy());
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->ridge().num_observations(),
            static_cast<std::int64_t>(results[0]->arrangement.size() +
                                      results[1]->arrangement.size()));
  EXPECT_EQ(service.pending_batched_rounds(), 0);
}

TEST(BatchedServingTest, UnknownTicketAndSizeMismatchAreRejected) {
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  service.ConfigureBatching(BatchingOptions{});

  EXPECT_EQ(service.SubmitBatchedFeedback(41, Feedback(1, 1)).code(),
            StatusCode::kNotFound);

  RoundContext round = (*world)->provider().NextRound(1);
  auto result = service.ServeUserBatched(round.user_id, round.user_capacity,
                                         round.contexts);
  ASSERT_TRUE(result.ok());
  const Feedback wrong(result->arrangement.size() + 1, 1);
  EXPECT_EQ(service.SubmitBatchedFeedback(result->ticket, wrong).code(),
            StatusCode::kInvalidArgument);
  // The round stays pending and can still be completed correctly.
  EXPECT_EQ(service.pending_batched_rounds(), 1);
  EXPECT_TRUE(service
                  .SubmitBatchedFeedback(
                      result->ticket,
                      Feedback(result->arrangement.size(), 1))
                  .ok());
}

TEST(BatchedServingTest, ExpiredDeadlinesFailFastOnEveryEntryPoint) {
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  const Deadline expired = Deadline::AfterNanos(0);

  ArrangementService sequential(&(*world)->instance(), PolicyKind::kUcb,
                                PolicyParams{}, /*seed=*/7);
  RoundContext round = (*world)->provider().NextRound(1);
  EXPECT_EQ(sequential
                .ServeUser(round.user_id, round.user_capacity,
                           round.contexts, expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);

  ArrangementService batched(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  batched.ConfigureBatching(BatchingOptions{});
  EXPECT_EQ(batched
                .ServeUserBatched(round.user_id, round.user_capacity,
                                  round.contexts, expired)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);

  auto result = batched.ServeUserBatched(round.user_id, round.user_capacity,
                                         round.contexts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(batched
                .SubmitBatchedFeedback(
                    result->ticket, Feedback(result->arrangement.size(), 1),
                    nullptr, expired)
                .code(),
            StatusCode::kDeadlineExceeded);
  // The pending round survives the failed attempt.
  EXPECT_TRUE(batched
                  .SubmitBatchedFeedback(
                      result->ticket,
                      Feedback(result->arrangement.size(), 1))
                  .ok());
}

TEST(BatchedServingTest, MaxPendingShedsUntilFeedbackDrains) {
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  BatchingOptions options;
  options.max_pending = 1;
  service.ConfigureBatching(options);

  RoundContext round = (*world)->provider().NextRound(1);
  auto first = service.ServeUserBatched(round.user_id, round.user_capacity,
                                        round.contexts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service
                .ServeUserBatched(round.user_id, round.user_capacity,
                                  round.contexts)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(service
                  .SubmitBatchedFeedback(
                      first->ticket, Feedback(first->arrangement.size(), 1))
                  .ok());
  EXPECT_TRUE(service
                  .ServeUserBatched(round.user_id, round.user_capacity,
                                    round.contexts)
                  .ok());
}

TEST(BatchedServingTest, SnapshotEpochTracksObservations) {
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  EXPECT_EQ(service.CurrentSnapshot(), nullptr);
  service.ConfigureBatching(BatchingOptions{});

  auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch, 0);

  std::int64_t observations = 0;
  for (int t = 1; t <= 5; ++t) {
    RoundContext round = (*world)->provider().NextRound(t);
    auto result = service.ServeUserBatched(
        round.user_id, round.user_capacity, round.contexts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->epoch, observations);
    ASSERT_TRUE(service
                    .SubmitBatchedFeedback(
                        result->ticket,
                        Feedback(result->arrangement.size(), 1))
                    .ok());
    observations += static_cast<std::int64_t>(result->arrangement.size());
    snapshot = service.CurrentSnapshot();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->epoch, observations);
    double sum = 0.0;
    for (double v : snapshot->theta_hat.span()) sum += v;
    EXPECT_DOUBLE_EQ(snapshot->theta_checksum, sum);
  }
}

TEST(BatchedServingTest, ResolveWaitExcludesScoring) {
  // fasea.batch.wait_ns is the resolve wait (DESIGN.md §8): from the end
  // of scoring to the start of capacity resolution. Scoring dominates
  // each serve here (|V| = 2000, d = 64), and a lone arrival's resolve
  // turn comes at once, so its recorded wait must be a small fraction of
  // its serve latency.
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FASEA_DISABLE_METRICS";
  SyntheticConfig config;
  config.num_events = 2000;
  config.dim = 64;
  config.horizon = 10;
  config.conflict_ratio = 0.0;  // Skips sampling ~5·10⁵ conflict pairs.
  config.seed = 31;
  auto world = SyntheticWorld::Create(config);
  ASSERT_TRUE(world.ok());
  ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                             PolicyParams{}, /*seed=*/7);
  service.ConfigureBatching(BatchingOptions{});
  const Histogram* wait_hist = Metrics()->GetHistogram("fasea.batch.wait_ns");
  const Histogram* serve_hist =
      Metrics()->GetHistogram("fasea.serve.latency_ns");
  for (int t = 1; t <= 3; ++t) {
    const RoundContext round = (*world)->provider().NextRound(t);
    const HistogramSnapshot wait0 = wait_hist->Snapshot();
    const HistogramSnapshot serve0 = serve_hist->Snapshot();
    auto result = service.ServeUserBatched(round.user_id,
                                           round.user_capacity,
                                           round.contexts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const HistogramSnapshot wait = wait_hist->Snapshot().DeltaSince(wait0);
    const HistogramSnapshot serve =
        serve_hist->Snapshot().DeltaSince(serve0);
    ASSERT_EQ(wait.count, 1);
    ASSERT_EQ(serve.count, 1);
    EXPECT_LT(wait.sum * 10, serve.sum)
        << "round " << t << ": wait " << wait.sum << " ns, serve "
        << serve.sum << " ns";
    ASSERT_TRUE(service
                    .SubmitBatchedFeedback(
                        result->ticket,
                        Feedback(result->arrangement.size(), 1))
                    .ok());
  }
}

TEST(BatchedServingTest, WalSpansCarryTheCommittedRound) {
  // wal.append / wal.fsync spans are tagged with the round their record
  // commits as, in both modes: a trace dump must group a round's WAL
  // time with that round's feedback.
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FASEA_DISABLE_METRICS";
  auto world = SyntheticWorld::Create(WorldConfig());
  ASSERT_TRUE(world.ok());
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "sequential");
    const std::string dir = ::testing::TempDir() + "fasea_wal_spans_" +
                            (batched ? "batched" : "sequential");
    Env* env = Env::Default();
    if (auto names = env->ListDir(dir); names.ok()) {
      for (const std::string& file : *names) {
        (void)env->DeleteFile(JoinPath(dir, file));
      }
    }
    ASSERT_TRUE(env->CreateDir(dir).ok());
    auto wal = WalWriter::Open(env, dir);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();

    ArrangementService service(&(*world)->instance(), PolicyKind::kUcb,
                               PolicyParams{}, /*seed=*/7);
    service.AttachWal(std::move(wal).value());
    if (batched) service.ConfigureBatching(BatchingOptions{});
    for (int t = 1; t <= 3; ++t) {
      const RoundContext round = (*world)->provider().NextRound(t);
      std::int64_t ticket = 0;
      Arrangement arrangement;
      if (batched) {
        auto served = service.ServeUserBatched(
            round.user_id, round.user_capacity, round.contexts);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        ticket = served->ticket;
        arrangement = served->arrangement;
      } else {
        auto served = service.ServeUser(round.user_id, round.user_capacity,
                                        round.contexts);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        arrangement = *served;
      }
      TraceRing::Global()->Clear();
      FeedbackResult result;
      const Feedback feedback(arrangement.size(), 1);
      const Status st =
          batched ? service.SubmitBatchedFeedback(ticket, feedback, &result)
                  : service.SubmitFeedback(feedback, &result);
      ASSERT_TRUE(st.ok()) << st.ToString();
      ASSERT_TRUE(result.durable);
      int appends = 0;
      for (const TraceEvent& event : TraceRing::Global()->Events()) {
        const std::string_view name = event.name;
        if (name != "wal.append" && name != "wal.fsync") continue;
        appends += name == "wal.append" ? 1 : 0;
        EXPECT_EQ(event.round, result.round) << name << " at round " << t;
      }
      EXPECT_EQ(appends, 1) << "round " << t;
    }
  }
}

TEST(BatchedServingDeathTest, BoltzmannIsRejected) {
  // The sequential softmax draw has no per-row snapshot rule, so batched
  // scoring would silently serve Exploit's arrangements.
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kBoltzmann,
                             PolicyParams{}, /*seed=*/1);
  EXPECT_DEATH(service.ConfigureBatching(BatchingOptions{}),
               "per-row snapshot rule");
}

}  // namespace
}  // namespace fasea
