#include "core/ts_policy.h"

#include <cmath>

#include "linalg/kernels.h"
#include "obs/trace.h"

namespace fasea {

TsPolicy::TsPolicy(const ProblemInstance* instance, const TsParams& params,
                   std::uint64_t salt)
    : LinearPolicyBase(instance, LearnerReads::kPosterior, params.lambda,
                       params.learner, salt),
      params_(params),
      sampled_theta_(instance->dim()) {
  FASEA_CHECK(params.delta > 0.0 && params.delta < 1.0);
  FASEA_CHECK(params.r_scale >= 0.0);
}

bool TsPolicy::ScorePosteriorDraw(const LearnerView& view, Pcg64& rng,
                                  std::int64_t t, const RoundContext& round,
                                  const ContextMatrix& contexts,
                                  Vector* theta, std::span<double> out,
                                  bool trace) const {
  // Posterior scale q = R sqrt(9 d ln(t / δ)) from [2]; ln(t/δ) > 0 for
  // every t >= 1 since δ < 1.
  const double q =
      params_.r_scale *
      std::sqrt(9.0 * static_cast<double>(ridge_.dim()) *
                std::log(static_cast<double>(t) / params_.delta));
  // The draw goes through the maintained Cholesky factor of Y (or a
  // sketch's Woodbury square root, core/epoch_ridge.h) — O(d²), not the
  // paper's per-round O(d³) factorization.
  static Histogram* const sample_hist =
      Metrics()->GetHistogram("fasea.policy.ts_sample_ns");
  const std::int64_t sample_start = trace ? SpanStart() : 0;
  const bool sampled = view.SamplePosterior(rng, q, theta);
  if (!sampled) *theta = view.ThetaHat();
  if (trace) {
    RecordSpanSince("policy.sample_theta", t, sample_start, sample_hist);
  }
  const std::int64_t score_start = trace ? SpanStart() : 0;
  GemvRows(contexts, theta->span(), out);
  ApplyAvailabilityMask(round, out);
  if (trace) RecordSpanSince("policy.score", t, score_start);
  return sampled;
}

Arrangement TsPolicy::Propose(std::int64_t t, const RoundContext& round,
                              const PlatformState& state) {
  // TS scores every event against a fresh per-round θ̃, which defeats
  // cached score bounds — lazy rounds read the cache's materialize-once
  // dense matrix instead.
  const ContextMatrix& contexts = RoundContexts(round);
  std::span<double> scores = Scores(contexts.rows());
  Pcg64 rng = KeyedEngine(salt_, "theta", t);
  if (!ScorePosteriorDraw(ridge_, rng, t, round, contexts, &sampled_theta_,
                          scores, /*trace=*/true)) {
    ++num_degraded_samples_;
    sample_factor_failures_metric_->Increment();
  }
  const std::int64_t greedy_start = SpanStart();
  Arrangement arrangement =
      greedy_.Select(scores, conflicts(), state, round.user_capacity);
  RecordSpanSince("oracle.greedy", t, greedy_start);
  return arrangement;
}

RowResolve TsPolicy::ScoreArrival(const LearnerView& view,
                                  const SnapshotRound& arrival,
                                  std::span<double> out) const {
  FASEA_CHECK(arrival.ticket >= 1);
  Pcg64 rng = KeyedEngine(salt_, "theta", arrival.ticket);
  Vector theta;
  if (!ScorePosteriorDraw(view, rng, arrival.ticket, *arrival.round,
                          arrival.round->contexts, &theta, out,
                          /*trace=*/false)) {
    sample_factor_failures_metric_->Increment();
  }
  return RowResolve::kGreedy;
}

double TsPolicy::PropensityOf(std::int64_t t, const RoundContext& round,
                              const PlatformState& state,
                              const Arrangement& arrangement) {
  // The behavior draw's own distribution: MC draws through the same
  // routine Propose scores with, on round t's own stream.
  const ContextMatrix& contexts = RoundContexts(round);
  std::span<double> scores = Scores(contexts.rows());
  Pcg64 mc = KeyedEngine(salt_, "propensity", t);
  Vector theta;
  int hits = 0;
  for (int k = 0; k < kPropensityMcDraws; ++k) {
    const bool sampled = ScorePosteriorDraw(ridge_, mc, t, round, contexts,
                                            &theta, scores, /*trace=*/false);
    const bool match = greedy_.Select(scores, conflicts(), state,
                                      round.user_capacity) == arrangement;
    // Degraded rounds propose deterministically from θ̂ — point mass.
    if (!sampled) return match ? 1.0 : 0.0;
    if (match) ++hits;
  }
  return (hits + 1.0) / (kPropensityMcDraws + 1.0);
}

void TsPolicy::EstimateRewards(const ContextMatrix& contexts,
                               std::span<double> out) const {
  FASEA_CHECK(out.size() == contexts.rows());
  GemvRows(contexts, sampled_theta_.span(), out);
}

}  // namespace fasea
