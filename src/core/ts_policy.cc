#include "core/ts_policy.h"

#include <cmath>
#include <optional>

#include "linalg/cholesky.h"
#include "linalg/kernels.h"
#include "linalg/mvn.h"
#include "obs/trace.h"
#include "rng/seed.h"

namespace fasea {

TsPolicy::TsPolicy(const ProblemInstance* instance, const TsParams& params,
                   Pcg64 rng)
    : LinearPolicyBase(instance, params.lambda, params.learner),
      params_(params),
      rng_(rng),
      propensity_salt_(DeriveSeed(rng.Next(), "ts-propensity")),
      batch_salt_(DeriveSeed(rng.Next(), "ts-batch")),
      sampled_theta_(instance->dim()) {
  FASEA_CHECK(params.delta > 0.0 && params.delta < 1.0);
  FASEA_CHECK(params.r_scale >= 0.0);
}

Arrangement TsPolicy::Propose(std::int64_t t, const RoundContext& round,
                              const PlatformState& state) {
  const std::size_t d = ridge_.dim();
  // Posterior scale q = R sqrt(9 d ln(t / δ)) from [2]; ln(t/δ) > 0 for
  // every t >= 1 since δ < 1.
  const double q =
      params_.r_scale *
      std::sqrt(9.0 * static_cast<double>(d) *
                std::log(static_cast<double>(t) / params_.delta));

  {
    // Sample θ̃ ~ N(θ̂, q² Y⁻¹) through the Cholesky factor of Y — the
    // O(d³)-per-round step of the paper's complexity analysis. The
    // batched path reuses the incrementally maintained O(d²)-per-update
    // factor instead; the scalar path keeps the fresh per-round
    // factorization as the reference. Either way a missing factor (Y
    // corrupt / not SPD) degrades the round instead of aborting.
    static Histogram* const sample_hist =
        Metrics()->GetHistogram("fasea.policy.ts_sample_ns");
    TraceSpan span("policy.sample_theta", t, TraceRing::Global(),
                   sample_hist);
    if (ridge_.mode() == LearnerMode::kSketch) {
      // Sketch learners keep no d×d factor; the draw goes through the
      // sketch's Woodbury square root — an exact N(θ̂, q²Y⁻¹) sample for
      // the sketched Y (core/epoch_ridge.h) — and never degrades.
      const bool ok = ridge_.SamplePosterior(rng_, q, &sampled_theta_);
      FASEA_CHECK(ok);
    } else if (scoring_mode() == ScoringMode::kScalar) {
      auto chol = Cholesky::Factorize(ridge_.Y());
      if (chol.ok()) {
        sampled_theta_ =
            SampleMvnFromPrecision(rng_, ridge_.ThetaHat(), q, chol.value());
      } else {
        DegradedSample();
      }
    } else if (ridge_.factor_healthy()) {
      sampled_theta_ =
          SampleMvnFromPrecision(rng_, ridge_.ThetaHat(), q, ridge_.Factor());
    } else {
      DegradedSample();
    }
  }

  // TS scores every event against a fresh per-round θ̃, which defeats
  // cached score bounds — lazy rounds read the cache's materialize-once
  // dense matrix instead.
  const ContextMatrix& contexts = RoundContexts(round);
  std::span<double> scores = Scores(contexts.rows());
  const std::int64_t score_start = SpanStart();
  if (scoring_mode() == ScoringMode::kBatched) {
    GemvRows(contexts, sampled_theta_.span(), scores);
  } else {
    for (std::size_t v = 0; v < contexts.rows(); ++v) {
      scores[v] = Dot(contexts.Row(v), sampled_theta_.span());
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

void TsPolicy::ScoreBatchSnapshot(const LearnerSnapshot& snapshot,
                                  std::span<const SnapshotRound> rows,
                                  Matrix* scores,
                                  std::span<RowResolve> resolve) const {
  FASEA_CHECK(snapshot.healthy);
  FASEA_CHECK(scores->rows() == rows.size() &&
              resolve.size() == rows.size());
  const std::size_t d = snapshot.theta_hat.size();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SnapshotRound& user = rows[i];
    FASEA_CHECK(user.ticket >= 1);
    const double q =
        params_.r_scale *
        std::sqrt(9.0 * static_cast<double>(d) *
                  std::log(static_cast<double>(user.ticket) /
                           params_.delta));
    Vector theta;
    if (snapshot.factor.has_value()) {
      Pcg64 sample_rng(
          DeriveSeed(batch_salt_, "sample",
                     static_cast<std::uint64_t>(user.ticket)),
          HashTag("ts-batch-sample"));
      theta = SampleMvnFromPrecision(sample_rng, snapshot.theta_hat, q,
                                     *snapshot.factor);
    } else {
      theta = snapshot.theta_hat;
      sample_factor_failures_metric_->Increment();
    }
    // Per-user θ̃: each row's GEMV runs against its own posterior draw.
    GemvRows(user.round->contexts, theta.span(), scores->Row(i));
    ApplyAvailabilityMask(*user.round, scores->Row(i));
  }
}

double TsPolicy::PropensityOf(std::int64_t t, const RoundContext& round,
                              const PlatformState& state,
                              const Arrangement& arrangement) {
  const std::size_t d = ridge_.dim();
  const double q =
      params_.r_scale *
      std::sqrt(9.0 * static_cast<double>(d) *
                std::log(static_cast<double>(t) / params_.delta));

  // Mirror Propose's factor choice per scoring mode, so the propensity
  // model is the distribution the behavior draw actually came from.
  // Sketch learners have no factor at all; their MC draws go through the
  // same Woodbury sampler Propose uses.
  const bool sketch = ridge_.mode() == LearnerMode::kSketch;
  std::optional<StatusOr<Cholesky>> fresh;
  const Cholesky* factor = nullptr;
  if (!sketch) {
    if (scoring_mode() == ScoringMode::kScalar) {
      fresh.emplace(Cholesky::Factorize(ridge_.Y()));
      if (fresh->ok()) factor = &fresh->value();
    } else if (ridge_.factor_healthy()) {
      factor = &ridge_.Factor();
    }
  }

  const ContextMatrix& contexts = RoundContexts(round);
  std::span<double> scores = Scores(contexts.rows());
  const auto score_with = [&](const Vector& theta) {
    if (scoring_mode() == ScoringMode::kBatched) {
      GemvRows(contexts, theta.span(), scores);
    } else {
      for (std::size_t v = 0; v < contexts.rows(); ++v) {
        scores[v] = Dot(contexts.Row(v), theta.span());
      }
    }
    ApplyAvailabilityMask(round, scores);
  };

  if (!sketch && factor == nullptr) {
    // Degraded rounds propose deterministically from θ̂ — point mass.
    score_with(ridge_.ThetaHat());
    return greedy_.Select(scores, conflicts(), state,
                          round.user_capacity) == arrangement
               ? 1.0
               : 0.0;
  }

  Pcg64 mc(DeriveSeed(propensity_salt_, "mc", static_cast<std::uint64_t>(t)),
           HashTag("ts-propensity-mc"));
  int hits = 0;
  Vector sketch_theta;
  for (int k = 0; k < kPropensityMcDraws; ++k) {
    const Vector theta =
        sketch ? (ridge_.SamplePosterior(mc, q, &sketch_theta),
                  sketch_theta)
               : SampleMvnFromPrecision(mc, ridge_.ThetaHat(), q, *factor);
    score_with(theta);
    if (greedy_.Select(scores, conflicts(), state, round.user_capacity) ==
        arrangement) {
      ++hits;
    }
  }
  return (hits + 1.0) / (kPropensityMcDraws + 1.0);
}

void TsPolicy::DegradedSample() {
  sampled_theta_ = ridge_.ThetaHat();
  ++num_degraded_samples_;
  sample_factor_failures_metric_->Increment();
}

void TsPolicy::EstimateRewards(const ContextMatrix& contexts,
                               std::span<double> out) const {
  FASEA_CHECK(out.size() == contexts.rows());
  if (scoring_mode() == ScoringMode::kBatched) {
    GemvRows(contexts, sampled_theta_.span(), out);
    return;
  }
  for (std::size_t v = 0; v < contexts.rows(); ++v) {
    out[v] = Dot(contexts.Row(v), sampled_theta_.span());
  }
}

}  // namespace fasea
