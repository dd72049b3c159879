// EpochRidgeState: the bounded-scale learner behind every linear policy.
//
// A facade with RidgeState's scoring surface and three maintenance modes
// (learner_config.h, after Bento et al., arXiv:1207.3024):
//
//  * kExact — forwards every observation to the inner RidgeState
//    immediately. Bit-identical to the pre-existing learner.
//  * kEpoch — observations buffer into epochs of `epoch_length` and are
//    applied at the boundary as one rank-k block (RidgeState::ApplyBlock:
//    Y += XᵀX by GEMM + exact refactorization). Scoring between
//    boundaries reads the state of the last applied epoch — bounded
//    staleness of < epoch_length observations, the regret-preserving
//    delay the epoch analysis allows. epoch_length == 1 routes through
//    the exact rank-1 path and is bit-identical to kExact.
//  * kSketch — no d×d state at all: a frequent-directions sketch (V, s²)
//    of Σ x xᵀ plus the exact b. θ̂, widths and posterior samples come
//    from the Woodbury identity
//
//        Y⁻¹ = (1/λ)(I − Vᵀ diag(s²/(λ+s²)) V),
//
//    in O(m·d) per score and O(m·d) memory. Y()/YInverse()/Factor()/
//    exact() are unavailable (checked), so sketch learners cannot be
//    checkpointed or snapshotted — they are a scoring-scale tool, not a
//    durability tier.
//
// The exact-backed modes keep a Cholesky factor of Y only when built
// with `keep_factor`, as only TS's learner is (core/ridge.h).
#ifndef FASEA_CORE_EPOCH_RIDGE_H_
#define FASEA_CORE_EPOCH_RIDGE_H_

#include <cstdint>
#include <optional>

#include "core/learner_config.h"
#include "core/ridge.h"
#include "linalg/frequent_directions.h"
#include "rng/pcg64.h"

namespace fasea {

/// The three reads every linear policy scores through: θ̂, the batched
/// confidence widths xᵀY⁻¹x, and a posterior draw θ̃ ~ N(θ̂, q²·Y⁻¹).
/// The live learner (EpochRidgeState) and a published LearnerSnapshot
/// both provide them, so each policy writes its scoring rule once.
class LearnerView {
 public:
  virtual const Vector& ThetaHat() const = 0;
  virtual void ConfidenceWidthSqBatch(const Matrix& contexts,
                                      std::span<double> out) const = 0;
  /// False, drawing nothing, when the view has no usable factor of Y;
  /// the caller then scores with θ̂ (a degraded round).
  virtual bool SamplePosterior(Pcg64& rng, double q, Vector* out) const = 0;
};

class EpochRidgeState final : public LearnerView {
 public:
  /// `keep_factor` asks the exact-backed modes for a maintained
  /// Cholesky factor of Y (SamplePosterior); a sketch needs none.
  EpochRidgeState(std::size_t dim, double lambda,
                  const LearnerConfig& config = {}, bool keep_factor = false);

  std::size_t dim() const { return dim_; }
  double lambda() const { return lambda_; }
  LearnerMode mode() const { return config_.mode; }
  const LearnerConfig& config() const { return config_; }

  /// Folds one observation in. kExact applies it immediately; kEpoch
  /// buffers until the epoch boundary; kSketch appends to the sketch
  /// stream and to the exact b.
  void Update(std::span<const double> x, double reward);

  /// Applies any buffered epoch observations now (kEpoch; no-op
  /// otherwise). The simulator never needs this — boundaries fire inside
  /// Update — but tests and shutdown paths do.
  void Flush();

  // ---- Scoring surface (identical semantics to RidgeState) ----
  const Vector& ThetaHat() const override;
  double PredictedReward(std::span<const double> x) const;
  double ConfidenceWidthSq(std::span<const double> x) const;
  void ConfidenceWidthSqBatch(const Matrix& contexts,
                              std::span<double> out) const override;

  /// Draws θ̃ ~ N(θ̂, q²·Y⁻¹) for Thompson sampling. Exact-backed modes
  /// use the maintained Cholesky factor and return false when it is
  /// unhealthy or was never kept (a learner built without
  /// `keep_factor`); the caller falls back to its degraded proposal.
  /// kSketch samples through the Woodbury square root and always
  /// succeeds.
  bool SamplePosterior(Pcg64& rng, double q, Vector* out) const override;

  // ---- Exact-backed state (CHECK-fails under kSketch) ----
  const Cholesky& Factor() const { return exact_ref().Factor(); }
  const Matrix& Y() const { return exact_ref().Y(); }
  const Matrix& YInverse() const { return exact_ref().YInverse(); }
  const Vector& b() const;

  /// Whether the exact-backed state keeps a Cholesky factor.
  bool keeps_factor() const {
    return inner_.has_value() && inner_->keeps_factor();
  }
  bool factor_healthy() const {
    return inner_.has_value() && inner_->factor_healthy();
  }
  bool healthy() const { return !inner_.has_value() || inner_->healthy(); }

  /// Observations visible to scoring (applied epochs). Under kEpoch this
  /// lags total_observations() by up to epoch_length − 1.
  std::int64_t num_observations() const;
  /// Observations ever folded in, including any still buffered.
  std::int64_t total_observations() const { return total_observations_; }

  /// Bumps whenever the scoring-visible state (θ̂ / widths) may have
  /// changed; mid-epoch updates do not bump it. The lazy top-k scorer
  /// keys its cached-score validity on this.
  std::int64_t scoring_version() const { return scoring_version_; }

  /// Epoch-boundary block applications so far (kEpoch; with
  /// epoch_length == 1 every observation is its own boundary).
  std::int64_t num_epoch_applies() const { return num_epoch_applies_; }

  std::int64_t num_refactorizations() const {
    return inner_ ? inner_->num_refactorizations() : 0;
  }
  std::int64_t num_refactor_failures() const {
    return inner_ ? inner_->num_refactor_failures() : 0;
  }
  std::int64_t num_factor_refactorizations() const {
    return inner_ ? inner_->num_factor_refactorizations() : 0;
  }
  std::int64_t num_factor_failures() const {
    return inner_ ? inner_->num_factor_failures() : 0;
  }

  /// Exact re-derivation (exact-backed) / forced sketch compression.
  void Refactorize();

  /// The inner exact learner, for checkpointing, delta-merging and the
  /// serving layers that predate the facade. CHECK-fails under kSketch.
  const RidgeState& exact() const { return exact_ref(); }
  RidgeState& mutable_exact();
  /// Replaces the exact state; `state` must keep a factor iff this
  /// learner does (checked), so a restore never changes what it learns.
  void RestoreExact(RidgeState state);
  bool has_exact() const { return inner_.has_value(); }

  const FrequentDirections& sketch() const;

  /// Test hooks (exact-backed).
  void SetUnhealthyForTesting() { mutable_exact().SetUnhealthyForTesting(); }
  void CorruptYForTesting() { mutable_exact().CorruptYForTesting(); }

  std::size_t MemoryBytes() const;

 private:
  const RidgeState& exact_ref() const;
  void ApplyPending();
  /// Rebuilds the cached Woodbury coefficients after a sketch shrink.
  void RefreshSketch() const;

  std::size_t dim_;
  double lambda_;
  LearnerConfig config_;

  // kExact / kEpoch: the applied state. Disengaged under kSketch so a
  // sketch learner never allocates O(d²).
  std::optional<RidgeState> inner_;
  Matrix pending_;    // epoch_length × d buffered contexts.
  Vector pending_r_;  // Matching rewards.
  std::size_t pending_count_ = 0;

  // kSketch state.
  std::optional<FrequentDirections> fd_;
  Vector b_;  // Exact Σ r·x (kSketch only; exact modes keep b in inner_).
  mutable std::int64_t seen_shrinks_ = -1;
  mutable Matrix vt_;       // dim × rank transpose of the directions.
  mutable Vector coeff_;    // cᵢ = s²ᵢ / (λ + s²ᵢ).
  mutable Vector samp_;     // dᵢ = 1 − √(λ / (λ + s²ᵢ)) (sampling).
  mutable Vector theta_hat_;
  mutable bool theta_dirty_ = true;
  mutable Vector proj_;     // Scratch: V·x / V·b / V·z.
  mutable Matrix batch_g_;  // Scratch: X · Vᵀ for batched widths.
  mutable Vector z_;        // Scratch: the standard-normal draw.

  std::int64_t total_observations_ = 0;
  std::int64_t scoring_version_ = 0;
  std::int64_t num_epoch_applies_ = 0;
};

}  // namespace fasea

#endif  // FASEA_CORE_EPOCH_RIDGE_H_
