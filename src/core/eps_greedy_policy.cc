#include "core/eps_greedy_policy.h"

#include <algorithm>

#include "obs/trace.h"

namespace fasea {

namespace {

// An exploration row: its "scores" only mark availability for the
// random oracle.
void ExplorationRow(const RoundContext& round, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  ApplyAvailabilityMask(round, out);
}

}  // namespace

EpsGreedyPolicy::EpsGreedyPolicy(const ProblemInstance* instance,
                                 const EpsGreedyParams& params,
                                 std::uint64_t salt)
    : LinearPolicyBase(instance, LearnerReads::kMean, params.lambda,
                       params.learner, salt),
      params_(params) {
  FASEA_CHECK(params.epsilon >= 0.0 && params.epsilon <= 1.0);
}

bool EpsGreedyPolicy::Explores(std::int64_t round) const {
  return params_.epsilon > 0.0 &&
         KeyedEngine(salt_, "coin", round).NextDouble() <= params_.epsilon;
}

RowResolve EpsGreedyPolicy::ScoreArrival(const LearnerView& view,
                                         const SnapshotRound& arrival,
                                         std::span<double> out) const {
  if (Explores(arrival.ticket)) {
    ExplorationRow(*arrival.round, out);
    return RowResolve::kRandom;
  }
  ScoreMean(view, *arrival.round, arrival.round->contexts, out);
  return RowResolve::kGreedy;
}

Arrangement EpsGreedyPolicy::Propose(std::int64_t t,
                                     const RoundContext& round,
                                     const PlatformState& state) {
  // Lazy rounds carry no dense contexts; exploration only needs the
  // availability mask over all |V| events, so either way the score
  // buffer spans the full event set.
  const std::size_t n = round.IsLazy() ? instance_->num_events()
                                       : round.contexts.rows();
  std::span<double> scores = Scores(n);
  if (Explores(t)) {
    // Exploration: a random feasible arrangement.
    ExplorationRow(round, scores);
    const std::int64_t random_start = SpanStart();
    Pcg64 rng = ExplorationEngine(t);
    Arrangement arrangement = SelectRandom(
        rng, scores, conflicts(), state, round.user_capacity,
        &explore_scratch_);
    RecordSpanSince("oracle.random", t, random_start);
    return arrangement;
  }
  if (round.IsLazy()) {
    // Exploitation on a lazy round: α = 0 lazy top-k on x ᵀ θ̂ — the
    // arrangement is bit-identical to the eager path below.
    const std::int64_t lazy_start = SpanStart();
    Arrangement arrangement = ProposeLazy(t, round, state, /*alpha=*/0.0);
    RecordSpanSince("policy.lazy_propose", t, lazy_start);
    return arrangement;
  }
  // Exploitation: greedy on estimated expected rewards.
  const std::int64_t score_start = SpanStart();
  ScoreMean(ridge_, round, round.contexts, scores);
  RecordSpanSince("policy.score", t, score_start);
  const std::int64_t greedy_start = SpanStart();
  Arrangement arrangement =
      greedy_.Select(scores, conflicts(), state, round.user_capacity);
  RecordSpanSince("oracle.greedy", t, greedy_start);
  return arrangement;
}

double EpsGreedyPolicy::PropensityOf(std::int64_t t, const RoundContext& round,
                                     const PlatformState& state,
                                     const Arrangement& arrangement) {
  // Exploit component: deterministic greedy on x ᵀ θ̂ — exact. Lazy
  // rounds fall back to the cache's materialize-once dense matrix (the
  // propensity needs every event's score, not a top-k).
  const ContextMatrix& contexts = RoundContexts(round);
  std::span<double> scores = Scores(contexts.rows());
  ScoreMean(ridge_, round, contexts, scores);
  const bool greedy_match =
      greedy_.Select(scores, conflicts(), state, round.user_capacity) ==
      arrangement;
  double p = greedy_match ? 1.0 - params_.epsilon : 0.0;
  if (params_.epsilon > 0.0) {
    // Exploration component: the same availability-only row the
    // exploration branch of Propose selects over at random.
    ExplorationRow(round, scores);
    p += params_.epsilon *
         McRandomArrangementMass(KeyedEngine(salt_, "propensity", t), scores,
                                 conflicts(), state, round.user_capacity,
                                 arrangement);
  }
  return p;
}

double EpsGreedyPolicy::ServedPropensity(std::int64_t t,
                                         const RoundContext& round,
                                         const PlatformState& state,
                                         const Arrangement& served) {
  if (params_.epsilon == 0.0) return 1.0;
  return PropensityOf(t, round, state, served);
}

std::unique_ptr<EpsGreedyPolicy> MakeExploitPolicy(
    const ProblemInstance* instance, double lambda,
    const LearnerConfig& learner) {
  EpsGreedyParams params;
  params.lambda = lambda;
  params.epsilon = 0.0;
  params.learner = learner;
  // ε = 0 never draws; the salt is unused.
  return std::make_unique<EpsGreedyPolicy>(instance, params, /*salt=*/0);
}

}  // namespace fasea
