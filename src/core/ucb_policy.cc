#include "core/ucb_policy.h"

#include <cmath>
#include <vector>

#include "linalg/kernels.h"
#include "obs/trace.h"

namespace fasea {

UcbPolicy::UcbPolicy(const ProblemInstance* instance, const UcbParams& params)
    : LinearPolicyBase(instance, LearnerReads::kWidths, params.lambda,
                       params.learner),
      params_(params) {
  FASEA_CHECK(params.alpha >= 0.0);
}

void UcbPolicy::ScoreUpperBounds(const LearnerView& view,
                                 const RoundContext& round,
                                 std::vector<double>* width,
                                 std::span<double> out) const {
  width->resize(out.size());
  GemvRows(round.contexts, view.ThetaHat().span(), out);
  view.ConfidenceWidthSqBatch(round.contexts, *width);
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = out[v] + params_.alpha * std::sqrt((*width)[v]);
  }
  ApplyAvailabilityMask(round, out);
}

RowResolve UcbPolicy::ScoreArrival(const LearnerView& view,
                                   const SnapshotRound& arrival,
                                   std::span<double> out) const {
  std::vector<double> width;
  ScoreUpperBounds(view, *arrival.round, &width, out);
  return RowResolve::kGreedy;
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
  std::span<double> scores = Scores(round.contexts.rows());
  const std::int64_t score_start = SpanStart();
  ScoreUpperBounds(ridge_, round, &width_, scores);
  RecordSpanSince("policy.score", t, score_start);
  const std::int64_t greedy_start = SpanStart();
  Arrangement arrangement =
      greedy_.Select(scores, conflicts(), state, round.user_capacity);
  RecordSpanSince("oracle.greedy", t, greedy_start);
  return arrangement;
}

}  // namespace fasea
