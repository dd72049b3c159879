#include "core/linear_policy_base.h"

#include <algorithm>

#include "linalg/kernels.h"

namespace fasea {

std::shared_ptr<const LearnerSnapshot> LinearPolicyBase::MakeSnapshot()
    const {
  // Sketch learners keep no Y⁻¹/factor to snapshot; the batched serving
  // protocol requires an exact-backed learner. Epoch learners snapshot
  // their APPLIED state — the same state their live Propose scores with,
  // which is exactly the consistency the snapshot protocol needs (a
  // snapshot round and a live round against the same epoch score
  // identically); epoch counts applied observations accordingly.
  FASEA_CHECK(ridge_.mode() != LearnerMode::kSketch);
  auto snap = std::make_shared<LearnerSnapshot>();
  snap->epoch = ridge_.num_observations();
  snap->healthy = ridge_.healthy();
  snap->theta_hat = ridge_.ThetaHat();
  // Only what the policy reads: UCB's width operand, TS's factor (only
  // TS's learner keeps one).
  if (reads_ == LearnerReads::kWidths) {
    TransposeInto(ridge_.YInverse(), &snap->y_inverse_t);
  }
  if (ridge_.factor_healthy()) snap->factor.emplace(ridge_.Factor());
  double checksum = 0.0;
  for (double v : snap->theta_hat.span()) checksum += v;
  snap->theta_checksum = checksum;
  return snap;
}

void LinearPolicyBase::ScoreBatchSnapshot(
    const LearnerSnapshot& snapshot, std::span<const SnapshotRound> rows,
    Matrix* scores, std::span<RowResolve> resolve) const {
  FASEA_CHECK(snapshot.healthy);
  FASEA_CHECK(scores->rows() == rows.size() &&
              resolve.size() == rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    resolve[i] = ScoreArrival(snapshot, rows[i], scores->Row(i));
  }
}

RowResolve LinearPolicyBase::ScoreArrival(const LearnerView& view,
                                          const SnapshotRound& arrival,
                                          std::span<double> out) const {
  ScoreMean(view, *arrival.round, arrival.round->contexts, out);
  return RowResolve::kGreedy;
}

void LinearPolicyBase::ScoreMean(const LearnerView& view,
                                 const RoundContext& round,
                                 const ContextMatrix& contexts,
                                 std::span<double> out) {
  GemvRows(contexts, view.ThetaHat().span(), out);
  ApplyAvailabilityMask(round, out);
}

void LinearPolicyBase::Learn(std::int64_t /*t*/, const RoundContext& round,
                             const Arrangement& arrangement,
                             const Feedback& feedback) {
  FASEA_CHECK(arrangement.size() == feedback.size());
  const std::int64_t refactors_before = ridge_.num_refactorizations();
  const std::int64_t failures_before = ridge_.num_refactor_failures();
  const bool lazy = round.IsLazy();
  ContextCache* cache = lazy ? EnsureCache(round.source) : nullptr;
  for (std::size_t i = 0; i < arrangement.size(); ++i) {
    // Lazy rounds learn from cache rows: events arranged by the lazy
    // propose are still stashed from this round, and rows an exploration
    // oracle picked without scoring materialize here on demand.
    std::span<const double> x = lazy
                                    ? cache->Row(arrangement[i])
                                    : round.contexts.Row(arrangement[i]);
    ridge_.Update(x, static_cast<double>(feedback[i]));
  }
  // The lazy scorer's cached scores stay exact until the learner's
  // scoring-visible state changes; one drift note per Learn is sound
  // because scoring only ever happens between Learn calls.
  if (lazy_scorer_ != nullptr) {
    lazy_scorer_->NoteLearn(ridge_.ThetaHat(), ridge_.scoring_version());
  }
  // One batched sync per Learn call keeps the per-observation hot loop
  // free of atomics.
  sm_updates_metric_->Add(static_cast<std::int64_t>(arrangement.size()));
  refactorizations_metric_->Add(ridge_.num_refactorizations() -
                                refactors_before);
  refactor_failures_metric_->Add(ridge_.num_refactor_failures() -
                                 failures_before);
  epoch_applies_metric_->Add(ridge_.num_epoch_applies() -
                             synced_epoch_applies_);
  synced_epoch_applies_ = ridge_.num_epoch_applies();
  if (cache_ != nullptr) {
    cache_hits_metric_->Add(cache_->hits() - synced_cache_hits_);
    cache_misses_metric_->Add(cache_->misses() - synced_cache_misses_);
    cache_evictions_metric_->Add(cache_->evictions() -
                                 synced_cache_evictions_);
    synced_cache_hits_ = cache_->hits();
    synced_cache_misses_ = cache_->misses();
    synced_cache_evictions_ = cache_->evictions();
  }
}

ContextCache* LinearPolicyBase::EnsureCache(const ContextSource* source) {
  FASEA_CHECK(source != nullptr);
  if (cache_ == nullptr) {
    const std::size_t budget =
        cache_budget_ > 0
            ? cache_budget_
            : std::max<std::size_t>(64, instance_->num_events() / 8);
    cache_ = std::make_unique<ContextCache>(source, budget);
  }
  return cache_.get();
}

const ContextMatrix& LinearPolicyBase::RoundContexts(
    const RoundContext& round) {
  if (!round.IsLazy()) return round.contexts;
  return EnsureCache(round.source)->Dense();
}

Arrangement LinearPolicyBase::ProposeLazy(std::int64_t /*t*/,
                                          const RoundContext& round,
                                          const PlatformState& state,
                                          double alpha) {
  ContextCache* cache = EnsureCache(round.source);
  cache->BeginRound();
  if (lazy_scorer_ == nullptr) {
    // width0 = 1/λ: xᵀY⁻¹x ≤ ‖x‖²/λ at Y = λI and widths only shrink —
    // except under a sketch, whose shrinks can grow them (lazy_scorer.h).
    lazy_scorer_ = std::make_unique<LazyScorer>(
        instance_->num_events(), 1.0 / ridge_.lambda(), alpha,
        /*widths_monotone=*/ridge_.mode() != LearnerMode::kSketch);
  }
  FASEA_DCHECK(alpha == lazy_scorer_->alpha());
  // Rescores must reproduce the eager scores bit for bit: they run the
  // same view reads and kernels on a 1-row matrix, whose per-row results
  // are batch-size-invariant. The width read reuses the learner's cached
  // (Y⁻¹)ᵀ, so all rescores under one learner version share a transpose.
  if (lazy_row_.rows() != 1) lazy_row_ = Matrix(1, instance_->dim());
  const auto rescore = [&](EventId v) {
    std::span<const double> x = cache->Row(v);
    std::copy(x.begin(), x.end(), lazy_row_.Row(0).begin());
    LazyEventScore s;
    GemvRows(lazy_row_, ridge_.ThetaHat().span(),
             std::span<double>(&s.pred, 1));
    if (alpha > 0.0) {
      ridge_.ConfidenceWidthSqBatch(lazy_row_,
                                    std::span<double>(&s.width_sq, 1));
    }
    return s;
  };
  return lazy_scorer_->Select(rescore, round, conflicts(), state,
                              round.user_capacity);
}

void LinearPolicyBase::EstimateRewards(const ContextMatrix& contexts,
                                       std::span<double> out) const {
  FASEA_CHECK(out.size() == contexts.rows());
  GemvRows(contexts, ridge_.ThetaHat().span(), out);
}

std::size_t LinearPolicyBase::MemoryBytes() const {
  std::size_t bytes = ridge_.MemoryBytes() + scores_.capacity() * sizeof(double);
  if (cache_ != nullptr) bytes += cache_->MemoryBytes();
  if (lazy_scorer_ != nullptr) bytes += lazy_scorer_->MemoryBytes();
  return bytes;
}

}  // namespace fasea
