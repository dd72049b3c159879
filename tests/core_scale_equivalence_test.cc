// Bounded-scale equivalence: the lazy context pipeline (static per-event
// source + ContextCache + LazyScorer) reproduces the eager dense pipeline
// bit for bit.
//  * Static worlds with lazy_contexts on/off produce identical
//    trajectories for all six policies under the exact, epoch-64 and
//    sketch learners.
//  * The combination epoch learner + lazy contexts at epoch_length 1 is
//    bit-identical to the exact eager run.
//  * Lazy runs are thread-count invariant (mirrors the 1-vs-N invariance
//    of core_batch_equivalence_test).
//  * The cache actually skips work: a lazy UCB run rescored fewer rows
//    than the eager run scored.
#include <gtest/gtest.h>

#include <vector>

#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "core/ucb_policy.h"
#include "sim/experiment.h"

namespace fasea {
namespace {

/// Every deterministic field of a trajectory.
void ExpectSameTrajectory(const TrajectoryResult& a,
                          const TrajectoryResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.cum_rewards, b.cum_rewards);
  EXPECT_EQ(a.cum_arranged, b.cum_arranged);
  EXPECT_EQ(a.accept_ratio, b.accept_ratio);
  EXPECT_EQ(a.total_regret, b.total_regret);
  EXPECT_EQ(a.final_reward, b.final_reward);
  EXPECT_EQ(a.final_arranged, b.final_arranged);
  EXPECT_EQ(a.final_regret, b.final_regret);
}

void ExpectSameResult(const SimulationResult& a, const SimulationResult& b) {
  ExpectSameTrajectory(a.reference, b.reference);
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    ExpectSameTrajectory(a.policies[i], b.policies[i]);
  }
}

SyntheticExperiment StaticExperiment() {
  SyntheticExperiment exp;
  exp.data.num_events = 200;
  exp.data.dim = 10;
  exp.data.horizon = 400;
  exp.data.event_capacity_mean = 20.0;
  exp.data.event_capacity_stddev = 5.0;
  exp.data.seed = 20170514;
  exp.data.static_contexts = true;
  exp.run_seed = 42;
  // All five paper policies plus the softmax explorer.
  exp.kinds = AllPolicyKinds();
  exp.kinds.push_back(PolicyKind::kBoltzmann);
  return exp;
}

/// Runs `exp` with dense and with lazy contexts; the trajectories must
/// be identical.
void ExpectLazyMatchesEager(SyntheticExperiment exp) {
  const SimulationResult eager = RunSyntheticExperiment(exp);
  exp.data.lazy_contexts = true;
  const SimulationResult lazy = RunSyntheticExperiment(exp);
  ExpectSameResult(eager, lazy);
}

TEST(ScaleEquivalenceTest, LazyIsBitIdenticalToEagerStaticBatched) {
  ExpectLazyMatchesEager(StaticExperiment());
}

TEST(ScaleEquivalenceTest, LazyIsBitIdenticalToEagerEpoch64) {
  // One learner version spans many rounds: exact scores carry over.
  SyntheticExperiment exp = StaticExperiment();
  exp.params.learner.mode = LearnerMode::kEpoch;
  exp.params.learner.epoch_length = 64;
  ExpectLazyMatchesEager(exp);
}

TEST(ScaleEquivalenceTest, LazyIsBitIdenticalToEagerSketch) {
  // Sketch widths can grow, so bounds fall back to the a-priori width.
  // m < d: the sketch shrinks.
  SyntheticExperiment exp = StaticExperiment();
  exp.params.learner.mode = LearnerMode::kSketch;
  exp.params.learner.sketch_size = 4;
  ExpectLazyMatchesEager(exp);
}

TEST(ScaleEquivalenceTest, UnitEpochLazyMatchesExactEager) {
  SyntheticExperiment exp = StaticExperiment();
  const SimulationResult exact_eager = RunSyntheticExperiment(exp);
  exp.data.lazy_contexts = true;
  exp.params.learner.mode = LearnerMode::kEpoch;
  exp.params.learner.epoch_length = 1;
  const SimulationResult epoch_lazy = RunSyntheticExperiment(exp);
  ExpectSameResult(exact_eager, epoch_lazy);
}

TEST(ScaleEquivalenceTest, LazyRunIsThreadCountInvariant) {
  SyntheticExperiment exp = StaticExperiment();
  exp.data.lazy_contexts = true;
  exp.threads = 1;
  const SimulationResult sequential = RunSyntheticExperiment(exp);
  exp.threads = 4;
  const SimulationResult parallel = RunSyntheticExperiment(exp);
  ExpectSameResult(sequential, parallel);
}

TEST(ScaleEquivalenceTest, LazyCacheBudgetDoesNotChangeTrajectories) {
  SyntheticExperiment exp = StaticExperiment();
  exp.data.lazy_contexts = true;
  exp.params.cache_budget = 8;  // Tiny hot partition: heavy cold traffic.
  const SimulationResult tiny = RunSyntheticExperiment(exp);
  exp.params.cache_budget = 200;  // Everything hot.
  const SimulationResult all_hot = RunSyntheticExperiment(exp);
  ExpectSameResult(tiny, all_hot);
}

TEST(ScaleEquivalenceTest, LazyUcbRescoresFewerRowsThanEagerScores) {
  // Drive one UCB policy directly through a lazy static world and check
  // the lazy scorer's work counter: with a warm cache and stable top
  // scores it must stay below the eager Theta(T * |V|) row count.
  SyntheticConfig data;
  data.num_events = 300;
  data.dim = 8;
  data.horizon = 300;
  data.event_capacity_mean = 50.0;
  data.event_capacity_stddev = 0.0;
  data.seed = 7;
  data.static_contexts = true;
  data.lazy_contexts = true;
  auto world = SyntheticWorld::Create(data);
  ASSERT_TRUE(world.ok());

  UcbParams params;
  UcbPolicy ucb(&(*world)->instance(), params);
  PlatformState state((*world)->instance());
  Pcg64 feedback_rng(99);
  for (std::int64_t t = 1; t <= data.horizon; ++t) {
    const RoundContext& round = (*world)->provider().NextRound(t);
    ASSERT_TRUE(round.IsLazy());
    const Arrangement arrangement = ucb.Propose(t, round, state);
    const Feedback feedback = (*world)->feedback().Sample(
        t, round.contexts, arrangement, feedback_rng);
    for (std::size_t i = 0; i < arrangement.size(); ++i) {
      if (feedback[i]) state.ConsumeOne(arrangement[i]);
    }
    ucb.Learn(t, round, arrangement, feedback);
  }

  ASSERT_NE(ucb.lazy_scorer(), nullptr);
  ASSERT_NE(ucb.context_cache(), nullptr);
  const std::int64_t eager_rows =
      data.horizon * static_cast<std::int64_t>(data.num_events);
  EXPECT_LT(ucb.lazy_scorer()->num_rescores(), eager_rows / 2);
  EXPECT_GT(ucb.context_cache()->hits(), 0);
  EXPECT_FALSE(ucb.context_cache()->dense_built());
}

}  // namespace
}  // namespace fasea
