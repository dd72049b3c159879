#include "core/boltzmann_policy.h"

#include <cmath>
#include <limits>

#include "obs/trace.h"

namespace fasea {

BoltzmannPolicy::BoltzmannPolicy(const ProblemInstance* instance,
                                 const BoltzmannParams& params,
                                 std::uint64_t salt)
    : LinearPolicyBase(instance, LearnerReads::kMean, params.lambda,
                       params.learner, salt),
      params_(params) {
  FASEA_CHECK(params.temperature > 0.0);
}

std::span<double> BoltzmannPolicy::ScoreRound(const RoundContext& round) {
  // Softmax sampling needs every event's weight, which defeats cached
  // score bounds — lazy rounds read the cache's materialize-once dense
  // matrix instead.
  const ContextMatrix& contexts = RoundContexts(round);
  std::span<double> scores = Scores(contexts.rows());
  ScoreMean(ridge_, round, contexts, scores);
  return scores;
}

double BoltzmannPolicy::FeasibleSoftmax(std::span<const double> scores,
                                        const PlatformState& state) {
  feasible_.clear();
  double max_score = -std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < scores.size(); ++v) {
    if (std::isinf(scores[v]) && scores[v] < 0) continue;  // Excluded.
    if (picked_[v]) continue;
    if (!state.HasCapacity(static_cast<EventId>(v))) continue;
    if (conflicts().ConflictsWithAny(v, chosen_)) continue;
    feasible_.push_back(static_cast<EventId>(v));
    if (scores[v] > max_score) max_score = scores[v];
  }
  weights_.resize(feasible_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < feasible_.size(); ++i) {
    weights_[i] =
        std::exp((scores[feasible_[i]] - max_score) / params_.temperature);
    total += weights_[i];
  }
  return total;
}

Arrangement BoltzmannPolicy::Propose(std::int64_t t,
                                     const RoundContext& round,
                                     const PlatformState& state) {
  const std::int64_t score_start = SpanStart();
  std::span<double> scores = ScoreRound(round);
  RecordSpanSince("policy.score", t, score_start);

  const std::size_t n = scores.size();
  picked_.assign(n, 0);
  if (chosen_.size() != n) chosen_ = EventBitset(n);
  chosen_.Reset();

  const std::int64_t sample_start = SpanStart();
  Pcg64 rng = KeyedEngine(salt_, "softmax", t);
  Arrangement result;
  result.reserve(static_cast<std::size_t>(round.user_capacity));
  while (static_cast<std::int64_t>(result.size()) < round.user_capacity) {
    const double total = FeasibleSoftmax(scores, state);
    if (feasible_.empty()) break;
    // Inverse-CDF draw over the feasible weights; the final clamp absorbs
    // float round-off in the cumulative sum.
    const double u = rng.NextDouble() * total;
    double cumulative = 0.0;
    std::size_t pick = feasible_.size() - 1;
    for (std::size_t i = 0; i < feasible_.size(); ++i) {
      cumulative += weights_[i];
      if (u < cumulative) {
        pick = i;
        break;
      }
    }
    const EventId v = feasible_[pick];
    picked_[v] = 1;
    chosen_.Set(v);
    result.push_back(v);
  }
  RecordSpanSince("oracle.softmax", t, sample_start);
  return result;
}

double BoltzmannPolicy::PropensityOf(std::int64_t /*t*/,
                                     const RoundContext& round,
                                     const PlatformState& state,
                                     const Arrangement& arrangement) {
  if (static_cast<std::int64_t>(arrangement.size()) > round.user_capacity) {
    return 0.0;
  }
  std::span<double> scores = ScoreRound(round);
  const std::size_t n = scores.size();
  picked_.assign(n, 0);
  if (chosen_.size() != n) chosen_ = EventBitset(n);
  chosen_.Reset();

  double prob = 1.0;
  for (EventId v : arrangement) {
    const double total = FeasibleSoftmax(scores, state);
    std::size_t pick = feasible_.size();
    for (std::size_t i = 0; i < feasible_.size(); ++i) {
      if (feasible_[i] == v) {
        pick = i;
        break;
      }
    }
    if (pick == feasible_.size()) return 0.0;  // Infeasible position.
    prob *= weights_[pick] / total;
    picked_[v] = 1;
    chosen_.Set(v);
  }
  if (static_cast<std::int64_t>(arrangement.size()) < round.user_capacity) {
    // Propose only stops early when nothing is feasible; a shorter
    // arrangement with feasible events remaining has zero mass.
    FeasibleSoftmax(scores, state);
    if (!feasible_.empty()) return 0.0;
  }
  return prob;
}

}  // namespace fasea
