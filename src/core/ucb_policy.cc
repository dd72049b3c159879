#include "core/ucb_policy.h"

#include <cmath>
#include <vector>

#include "linalg/kernels.h"
#include "obs/trace.h"

namespace fasea {

UcbPolicy::UcbPolicy(const ProblemInstance* instance, const UcbParams& params)
    : LinearPolicyBase(instance, params.lambda, params.learner),
      params_(params) {
  FASEA_CHECK(params.alpha >= 0.0);
}

void UcbPolicy::ScoreBatchSnapshot(const LearnerSnapshot& snapshot,
                                   std::span<const SnapshotRound> rows,
                                   Matrix* scores,
                                   std::span<RowResolve> resolve) const {
  FASEA_CHECK(snapshot.healthy);
  FASEA_CHECK(scores->rows() == rows.size() &&
              resolve.size() == rows.size());
  // Each user's context matrix is scored straight into its score row by
  // the same two kernels a lone PredictBatch + ConfidenceWidthSqBatch
  // run, and the combine mirrors the sequential batched Propose term for
  // term, so each row's bits match a lone propose against this state.
  std::vector<double> width(scores->cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ContextMatrix& contexts = rows[i].round->contexts;
    std::span<double> row = scores->Row(i);
    GemvRows(contexts, snapshot.theta_hat.span(), row);
    BatchedQuadFormPre(contexts, snapshot.y_inverse_t, width);
    for (std::size_t v = 0; v < row.size(); ++v) {
      row[v] = row[v] + params_.alpha * std::sqrt(width[v]);
    }
    ApplyAvailabilityMask(*rows[i].round, row);
  }
}

double UcbPolicy::UpperConfidenceBound(std::span<const double> x) const {
  return ridge_.PredictedReward(x) +
         params_.alpha * std::sqrt(ridge_.ConfidenceWidthSq(x));
}

Arrangement UcbPolicy::Propose(std::int64_t t, const RoundContext& round,
                               const PlatformState& state) {
  if (round.IsLazy()) {
    // Cached-context round: lazy top-k over drift-bounded cached scores;
    // the arrangement is bit-identical to the eager path below.
    const std::int64_t lazy_start = SpanStart();
    Arrangement arrangement = ProposeLazy(t, round, state, params_.alpha);
    RecordSpanSince("policy.lazy_propose", t, lazy_start);
    return arrangement;
  }
  const std::size_t n = round.contexts.rows();
  std::span<double> scores = Scores(n);
  const std::int64_t score_start = SpanStart();
  if (scoring_mode() == ScoringMode::kBatched) {
    // One GEMV + one width-kernel call for the whole round; the combine
    // loop mirrors UpperConfidenceBound term for term, so the scores are
    // bit-identical to the scalar path.
    pred_.resize(n);
    width_.resize(n);
    ridge_.PredictBatch(round.contexts, pred_);
    ridge_.ConfidenceWidthSqBatch(round.contexts, width_);
    for (std::size_t v = 0; v < n; ++v) {
      scores[v] = pred_[v] + params_.alpha * std::sqrt(width_[v]);
    }
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      scores[v] = UpperConfidenceBound(round.contexts.Row(v));
    }
  }
  ApplyAvailabilityMask(round, scores);
  RecordSpanSince("policy.score", t, score_start);
  const std::int64_t greedy_start = SpanStart();
  Arrangement arrangement =
      greedy_.Select(scores, conflicts(), state, round.user_capacity);
  RecordSpanSince("oracle.greedy", t, greedy_start);
  return arrangement;
}

}  // namespace fasea
