#include "ebsn/arrangement_service.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "ebsn/event_catalog.h"
#include "oracle/oracle.h"
#include "rng/distributions.h"

namespace fasea {
namespace {

ProblemInstance MakeInstance() {
  EventCatalog catalog;
  EventSpec a{"concert", 3, 19.0, 21.0, {"music"}};
  EventSpec b{"opera", 2, 20.0, 22.0, {"music"}};    // Conflicts concert.
  EventSpec c{"football", 5, 14.0, 16.0, {"sport"}};
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

TEST(ArrangementServiceTest, ServeAndFeedbackHappyPath) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(1);

  auto arrangement = service.ServeUser(/*user_id=*/0, /*user_capacity=*/2,
                                       MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  EXPECT_TRUE(IsFeasibleArrangement(*arrangement, instance.conflicts(),
                                    service.state(), 2));
  EXPECT_TRUE(service.AwaitingFeedback());

  Feedback feedback(arrangement->size(), 1);
  ASSERT_TRUE(service.SubmitFeedback(feedback).ok());
  EXPECT_FALSE(service.AwaitingFeedback());
  EXPECT_EQ(service.rounds_served(), 1);
  // Every arranged event was accepted: one seat each, one observation
  // each.
  for (EventId v = 0; v < 3; ++v) {
    const bool arranged = std::find(arrangement->begin(), arrangement->end(),
                                    v) != arrangement->end();
    EXPECT_EQ(service.state().remaining(v),
              instance.capacity(v) - (arranged ? 1 : 0));
  }
  const auto* base = dynamic_cast<const LinearPolicyBase*>(&service.policy());
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->ridge().num_observations(),
            static_cast<std::int64_t>(arrangement->size()));
}

TEST(ArrangementServiceTest, EnforcesFeedbackBeforeNextUser) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(2);
  ASSERT_TRUE(service.ServeUser(0, 1, MakeContexts(rng)).ok());
  // Second user before feedback: protocol violation.
  EXPECT_FALSE(service.ServeUser(1, 1, MakeContexts(rng)).ok());
  ASSERT_TRUE(service.SubmitFeedback(Feedback(1, 0)).ok());
  EXPECT_TRUE(service.ServeUser(1, 1, MakeContexts(rng)).ok());
}

TEST(ArrangementServiceTest, RejectsFeedbackWithoutServe) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  EXPECT_FALSE(service.SubmitFeedback({}).ok());
}

TEST(ArrangementServiceTest, RejectsMalformedFeedback) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(3);
  auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  ASSERT_GT(arrangement->size(), 0u);
  EXPECT_FALSE(service.SubmitFeedback(Feedback(9, 1)).ok());   // Wrong size.
  EXPECT_FALSE(
      service.SubmitFeedback(Feedback(arrangement->size(), 7)).ok());
  // Valid submission still possible after rejections.
  EXPECT_TRUE(
      service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
}

TEST(ArrangementServiceTest, RejectsMalformedRound) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  EXPECT_FALSE(service.ServeUser(0, 0, ContextMatrix(3, 3)).ok());  // c_u.
  EXPECT_FALSE(service.ServeUser(0, 1, ContextMatrix(2, 3)).ok());  // Shape.
  // A failed serve leaves the service ready for a valid one.
  Pcg64 rng(4);
  EXPECT_TRUE(service.ServeUser(0, 1, MakeContexts(rng)).ok());
}

TEST(ArrangementServiceTest, AcceptedEventsConsumeCapacity) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kExploit, PolicyParams{},
                             1);
  Pcg64 rng(5);
  std::int64_t accepted_football = 0;
  for (int round = 0; round < 20; ++round) {
    auto arrangement = service.ServeUser(0, 3, MakeContexts(rng));
    ASSERT_TRUE(arrangement.ok());
    Feedback feedback(arrangement->size(), 0);
    for (std::size_t i = 0; i < arrangement->size(); ++i) {
      if ((*arrangement)[i] == 2 && accepted_football < 5) {
        feedback[i] = 1;  // Accept football until its capacity is gone.
        ++accepted_football;
      }
    }
    ASSERT_TRUE(service.SubmitFeedback(feedback).ok());
  }
  EXPECT_EQ(service.state().remaining(2), 0);
  // Once full, football must never be proposed again.
  auto arrangement = service.ServeUser(0, 3, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  for (EventId v : *arrangement) EXPECT_NE(v, 2u);
  ASSERT_TRUE(
      service.SubmitFeedback(Feedback(arrangement->size(), 0)).ok());
}

TEST(ArrangementServiceTest, CheckpointRestoreKeepsLearnedState) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(6);
  for (int round = 0; round < 15; ++round) {
    auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
    ASSERT_TRUE(arrangement.ok());
    Feedback feedback(arrangement->size());
    for (auto& f : feedback) f = Bernoulli(rng, 0.5) ? 1 : 0;
    ASSERT_TRUE(service.SubmitFeedback(feedback).ok());
  }
  const std::string blob = service.Checkpoint();
  auto restored = ArrangementService::FromCheckpoint(&instance, blob, 1);
  ASSERT_TRUE(restored.ok());

  // The learner state carries over exactly. (PlatformState intentionally
  // does not: remaining capacities live in the platform's own records.)
  const auto* live =
      dynamic_cast<const LinearPolicyBase*>(&service.policy());
  const auto* rebuilt =
      dynamic_cast<const LinearPolicyBase*>(&(*restored)->policy());
  ASSERT_NE(live, nullptr);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_LT(rebuilt->ridge().Y().MaxAbsDiff(live->ridge().Y()), 1e-15);
  EXPECT_LT(MaxAbsDiff(rebuilt->ridge().b(), live->ridge().b()), 1e-15);
  EXPECT_LT(MaxAbsDiff(rebuilt->ridge().ThetaHat(),
                       live->ridge().ThetaHat()),
            1e-9);
  EXPECT_EQ(rebuilt->ridge().num_observations(),
            live->ridge().num_observations());
}

TEST(ArrangementServiceTest, FromCheckpointRejectsGarbage) {
  const ProblemInstance instance = MakeInstance();
  EXPECT_FALSE(
      ArrangementService::FromCheckpoint(&instance, "nonsense", 1).ok());
}

/// Everything a protocol violation must leave untouched.
struct ServiceSnapshot {
  Matrix y;
  Vector b;
  std::vector<std::int64_t> remaining;
  std::string checkpoint;  // Learner state and its observation count.
  std::int64_t rounds_served;
  bool awaiting_feedback;

  static ServiceSnapshot Of(const ArrangementService& service) {
    const auto* base =
        dynamic_cast<const LinearPolicyBase*>(&service.policy());
    FASEA_CHECK(base != nullptr);
    ServiceSnapshot snap{base->ridge().Y(),
                         base->ridge().b(),
                         {},
                         service.Checkpoint(),
                         service.rounds_served(),
                         service.AwaitingFeedback()};
    for (EventId v = 0; v < 3; ++v) {
      snap.remaining.push_back(service.state().remaining(v));
    }
    return snap;
  }

  void ExpectUnchanged(const ArrangementService& service) const {
    const auto* base =
        dynamic_cast<const LinearPolicyBase*>(&service.policy());
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base->ridge().Y().MaxAbsDiff(y), 0.0);
    EXPECT_EQ(MaxAbsDiff(base->ridge().b(), b), 0.0);
    for (EventId v = 0; v < 3; ++v) {
      EXPECT_EQ(service.state().remaining(v), remaining[v]);
    }
    EXPECT_EQ(service.Checkpoint(), checkpoint);
    EXPECT_EQ(service.rounds_served(), rounds_served);
    EXPECT_EQ(service.AwaitingFeedback(), awaiting_feedback);
  }
};

TEST(ArrangementServiceTest, DoubleFeedbackIsRejectedWithoutSideEffects) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(21);
  auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  ASSERT_TRUE(service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());

  const ServiceSnapshot snapshot = ServiceSnapshot::Of(service);
  EXPECT_FALSE(
      service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
  snapshot.ExpectUnchanged(service);
  // The protocol proceeds normally after the rejected resubmission.
  EXPECT_TRUE(service.ServeUser(1, 1, MakeContexts(rng)).ok());
}

TEST(ArrangementServiceTest, MismatchedFeedbackLeavesStateUntouched) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(22);
  auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());
  ASSERT_GT(arrangement->size(), 0u);

  const ServiceSnapshot snapshot = ServiceSnapshot::Of(service);
  EXPECT_FALSE(
      service.SubmitFeedback(Feedback(arrangement->size() + 1, 1)).ok());
  snapshot.ExpectUnchanged(service);
  EXPECT_FALSE(
      service.SubmitFeedback(Feedback(arrangement->size(), 3)).ok());
  snapshot.ExpectUnchanged(service);
  EXPECT_TRUE(service.AwaitingFeedback());  // The round is still open...
  ASSERT_TRUE(
      service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
}

TEST(ArrangementServiceTest, ServeWhileAwaitingFeedbackLeavesRoundIntact) {
  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(24);
  auto arrangement = service.ServeUser(0, 2, MakeContexts(rng));
  ASSERT_TRUE(arrangement.ok());

  const ServiceSnapshot snapshot = ServiceSnapshot::Of(service);
  EXPECT_FALSE(service.ServeUser(1, 2, MakeContexts(rng)).ok());
  snapshot.ExpectUnchanged(service);
  // The original round's feedback is still accepted afterwards.
  ASSERT_TRUE(
      service.SubmitFeedback(Feedback(arrangement->size(), 0)).ok());
  EXPECT_EQ(service.rounds_served(), 1);
  EXPECT_FALSE(service.AwaitingFeedback());
  const auto* base = dynamic_cast<const LinearPolicyBase*>(&service.policy());
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->ridge().num_observations(),
            static_cast<std::int64_t>(arrangement->size()));
}

TEST(ArrangementServiceTest, ReServingAnAbortedRoundRepeatsItsArrangement) {
  // An abort hands the round id back, and every draw is keyed by it, so
  // the re-served round gets the same draw.
  SyntheticConfig config;
  config.num_events = 20;
  config.dim = 4;
  config.horizon = 30;
  config.seed = 31;
  auto world = SyntheticWorld::Create(config);
  ASSERT_TRUE(world.ok());
  PolicyParams params;
  params.epsilon = 0.5;
  for (PolicyKind kind :
       {PolicyKind::kUcb, PolicyKind::kTs, PolicyKind::kEpsGreedy,
        PolicyKind::kExploit, PolicyKind::kRandom, PolicyKind::kBoltzmann}) {
    ArrangementService service(&(*world)->instance(), kind, params, 3);
    Pcg64 fb_rng(11);
    for (std::int64_t t = 1; t <= config.horizon; ++t) {
      const RoundContext round = (*world)->provider().NextRound(t);
      auto first =
          service.ServeUser(round.user_id, round.user_capacity, round.contexts);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      ASSERT_TRUE(service.AbortPendingRound().ok());
      auto again =
          service.ServeUser(round.user_id, round.user_capacity, round.contexts);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(*again, *first) << PolicyKindName(kind) << " round " << t;
      ASSERT_TRUE(service
                      .SubmitFeedback((*world)->feedback().Sample(
                          t, round.contexts, *again, fb_rng))
                      .ok());
    }
  }
}

/// True iff `a` and `b` hold the same doubles, bit for bit.
bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(std::span<const double>(a.data(), a.rows() * a.cols()),
                  std::span<const double>(b.data(), b.rows() * b.cols()));
}

TEST(ArrangementServiceTest, PeerDeltaMergeMatchesRankOneUpdatesBitForBit) {
  // AbsorbPeerObservations folds a delta as one rank-k block. The
  // reference folds the same observations one rank-1 Update at a time,
  // in delta order, then re-derives the inverse and TS's factor from Y:
  // the merged learner must equal it bit for bit.
  const ProblemInstance instance = MakeInstance();
  for (PolicyKind kind : {PolicyKind::kUcb, PolicyKind::kTs}) {
    SCOPED_TRACE(std::string(PolicyKindName(kind)));
    ArrangementService service(&instance, kind, PolicyParams{}, 1);
    Pcg64 rng(77);
    for (int round = 0; round < 6; ++round) {
      auto arrangement = service.ServeUser(round, 2, MakeContexts(rng));
      ASSERT_TRUE(arrangement.ok());
      Feedback feedback(arrangement->size());
      for (auto& f : feedback) f = Bernoulli(rng, 0.5) ? 1 : 0;
      ASSERT_TRUE(service.SubmitFeedback(feedback).ok());
    }
    const auto* base =
        dynamic_cast<const LinearPolicyBase*>(&service.policy());
    ASSERT_NE(base, nullptr);

    std::vector<PeerObservation> delta(11);
    for (PeerObservation& obs : delta) {
      obs.context.resize(3);
      for (double& x : obs.context) x = UniformReal(rng, -0.5, 0.5);
      obs.reward = Bernoulli(rng, 0.5) ? 1.0 : 0.0;
    }
    RidgeState reference = base->ridge();
    for (const PeerObservation& obs : delta) {
      reference.Update(obs.context, obs.reward);
    }
    reference.Refactorize();

    ASSERT_TRUE(service.AbsorbPeerObservations(delta).ok());
    const RidgeState& merged = base->ridge();
    EXPECT_EQ(merged.num_observations(), reference.num_observations());
    EXPECT_TRUE(SameBits(merged.Y(), reference.Y()));
    EXPECT_TRUE(SameBits(merged.b().span(), reference.b().span()));
    EXPECT_TRUE(SameBits(merged.YInverse(), reference.YInverse()));
    EXPECT_TRUE(
        SameBits(merged.ThetaHat().span(), reference.ThetaHat().span()));
    ASSERT_EQ(merged.keeps_factor(), kind == PolicyKind::kTs);
    if (merged.keeps_factor()) {
      EXPECT_TRUE(merged.factor_healthy());
      EXPECT_TRUE(SameBits(merged.Factor().L(), reference.Factor().L()));
    }
  }
}

TEST(ArrangementServiceTest, TelemetryCountsServesFeedbacksAndErrors) {
  if (!kMetricsEnabled) GTEST_SKIP() << "built with FASEA_DISABLE_METRICS";
  MetricsRegistry* metrics = Metrics();
  const std::int64_t serves0 =
      metrics->GetCounter("fasea.serve.rounds")->value();
  const std::int64_t serve_errors0 =
      metrics->GetCounter("fasea.serve.errors")->value();
  const std::int64_t proposed0 =
      metrics->GetCounter("fasea.serve.proposed_events")->value();
  const std::int64_t feedbacks0 =
      metrics->GetCounter("fasea.feedback.rounds")->value();
  const std::int64_t feedback_errors0 =
      metrics->GetCounter("fasea.feedback.errors")->value();
  const std::int64_t accepted0 =
      metrics->GetCounter("fasea.feedback.accepted_events")->value();
  const std::int64_t serve_lat0 =
      metrics->GetHistogram("fasea.serve.latency_ns")->Snapshot().count;
  const std::int64_t feedback_lat0 =
      metrics->GetHistogram("fasea.feedback.latency_ns")->Snapshot().count;

  const ProblemInstance instance = MakeInstance();
  ArrangementService service(&instance, PolicyKind::kUcb, PolicyParams{}, 1);
  Pcg64 rng(11);
  std::int64_t proposed = 0;
  std::int64_t accepted = 0;
  for (int round = 0; round < 3; ++round) {
    auto arrangement = service.ServeUser(round, 2, MakeContexts(rng));
    ASSERT_TRUE(arrangement.ok());
    proposed += static_cast<std::int64_t>(arrangement->size());
    // All-ones feedback: every proposed event is accepted.
    accepted += static_cast<std::int64_t>(arrangement->size());
    ASSERT_TRUE(
        service.SubmitFeedback(Feedback(arrangement->size(), 1)).ok());
  }
  // One protocol violation on each side of the round trip.
  EXPECT_FALSE(service.SubmitFeedback(Feedback(1, 0)).ok());
  auto fourth = service.ServeUser(9, 2, MakeContexts(rng));
  ASSERT_TRUE(fourth.ok());
  proposed += static_cast<std::int64_t>(fourth->size());
  EXPECT_FALSE(service.ServeUser(10, 2, MakeContexts(rng)).ok());

  EXPECT_EQ(metrics->GetCounter("fasea.serve.rounds")->value() - serves0, 4);
  EXPECT_EQ(
      metrics->GetCounter("fasea.serve.errors")->value() - serve_errors0, 1);
  EXPECT_EQ(metrics->GetCounter("fasea.serve.proposed_events")->value() -
                proposed0,
            proposed);
  EXPECT_EQ(
      metrics->GetCounter("fasea.feedback.rounds")->value() - feedbacks0, 3);
  EXPECT_EQ(metrics->GetCounter("fasea.feedback.errors")->value() -
                feedback_errors0,
            1);
  EXPECT_EQ(metrics->GetCounter("fasea.feedback.accepted_events")->value() -
                accepted0,
            accepted);
  // Only calls that served or acknowledged a round record a latency
  // sample; the rejected ones do not.
  EXPECT_EQ(
      metrics->GetHistogram("fasea.serve.latency_ns")->Snapshot().count -
          serve_lat0,
      4);
  EXPECT_EQ(
      metrics->GetHistogram("fasea.feedback.latency_ns")->Snapshot().count -
          feedback_lat0,
      3);
  // Health gauges reflect the live service.
  EXPECT_EQ(metrics->GetGauge("fasea.service.learner_healthy")->value(),
            1.0);
  EXPECT_EQ(metrics->GetGauge("fasea.service.rounds_served")->value(), 4.0);
}

}  // namespace
}  // namespace fasea
