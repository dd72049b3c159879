// RidgeState: the shared learning state of every linear-payoff policy.
//
// All four learners of the paper (TS, UCB, eGreedy, Exploit) maintain the
// same sufficient statistics (Algorithms 1, 3, 4 lines 1-2 and 13-14):
//
//     Y = λ I + Σ x xᵀ      over all arranged events so far,
//     b = Σ r x             over all arranged events so far,
//     θ̂ = Y⁻¹ b             (ridge regression, [26]).
//
// RidgeState tracks Y exactly, keeps Y⁻¹ current via Sherman–Morrison
// rank-1 updates (with periodic re-factorization for numerical hygiene),
// and caches θ̂ lazily. A state built with `keep_factor` also maintains
// the Cholesky factor of Y the same way (rank-1 updates, same
// re-factorization cadence) so TS never pays a per-round O(d³)
// factorization. Only TS samples from N(θ̂, q²Y⁻¹), so only TS's learner
// asks for the factor; every other state has none and pays none of its
// updates, re-derivations or bytes.
#ifndef FASEA_CORE_RIDGE_H_
#define FASEA_CORE_RIDGE_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "core/learner_config.h"
#include "linalg/cholesky.h"
#include "linalg/sherman_morrison.h"
#include "linalg/vector.h"

namespace fasea {

class RidgeState {
 public:
  /// `lambda` is the ridge regularizer (Y starts at λI, must be > 0).
  /// `refactor_every` controls the periodic exact re-inversion cadence;
  /// 0 disables it (pure incremental mode, used by the ablation bench).
  /// `keep_factor` maintains the Cholesky factor of Y (Factor()).
  RidgeState(std::size_t dim, double lambda,
             std::int64_t refactor_every = kDefaultRefactorEvery,
             bool keep_factor = false);

  /// Restores a state from previously accumulated components (checkpoint
  /// loading). `y` must be SPD and shaped like `b`; with `keep_factor`
  /// the factor is derived fresh from `y`.
  static StatusOr<RidgeState> FromComponents(
      double lambda, Matrix y, Vector b, std::int64_t num_observations,
      std::int64_t refactor_every = kDefaultRefactorEvery,
      bool keep_factor = false);

  std::size_t dim() const { return b_.size(); }
  double lambda() const { return lambda_; }

  /// Folds one observation (context x, reward r ∈ {0,1}) into Y and b.
  void Update(std::span<const double> x, double reward);

  /// Folds a k×d block of observations in one amortized rank-k step:
  /// Y += XᵀX by register-tiled GEMM, b += Σ rᵢ xᵢ, then an exact
  /// re-factorization of the inverse and of any kept Cholesky factor (the
  /// epoch boundary — no incremental drift survives a block). Used by
  /// EpochRidgeState; per-observation cost amortizes to O(d²·k/k + d³/k)
  /// vs k separate O(d²) Sherman–Morrison (+ factor) updates.
  void ApplyBlock(const Matrix& x_block, std::span<const double> rewards);

  /// θ̂ = Y⁻¹ b, cached until the next Update (recomputed in place).
  const Vector& ThetaHat() const;

  /// x ᵀ θ̂ — the estimated expected reward of a context.
  double PredictedReward(std::span<const double> x) const;

  /// xᵀ Y⁻¹ x — squared confidence width of a context (LinUCB bonus).
  double ConfidenceWidthSq(std::span<const double> x) const {
    return inverse_.InverseQuadraticForm(x);
  }

  /// Batched x ᵀ θ̂ over every row of `contexts`: one vectorized GEMV
  /// instead of |V| dots. Bit-identical to PredictedReward per row.
  void PredictBatch(const Matrix& contexts, std::span<double> out) const;

  /// Batched xᵀ Y⁻¹ x over every row of `contexts`: BatchedQuadFormPre
  /// instead of |V| d×d quadratic forms. Bit-identical to
  /// ConfidenceWidthSq per row. The kernel's operand (Y⁻¹)ᵀ is
  /// transposed once per learner change and cached, so a lazy round's
  /// one-row rescores do not each pay an O(d²) transpose. Filling the
  /// cache mutates internal state — a RidgeState was never shareable
  /// across threads without a lock anyway (Update).
  void ConfidenceWidthSqBatch(const Matrix& contexts,
                              std::span<double> out) const;

  /// True iff the state was built with `keep_factor` (TS's learner).
  bool keeps_factor() const { return factor_.has_value(); }

  /// The maintained Cholesky factor of Y: rank-1 updated in O(d²) per
  /// observation and re-derived exactly on the refactor cadence, so it
  /// equals the fresh factor of Y up to rank-1 rounding drift. Only
  /// meaningful while factor_healthy(); CHECK-fails on a state that
  /// keeps no factor.
  const Cholesky& Factor() const {
    FASEA_CHECK(factor_.has_value());
    return *factor_;
  }

  /// False on a state that keeps no factor, and once a rank-1 factor
  /// update or a periodic re-derivation failed (Y numerically corrupt).
  /// A later successful re-derivation restores health. TS falls back to
  /// a degraded proposal while false.
  bool factor_healthy() const { return factor_healthy_; }

  std::int64_t num_factor_refactorizations() const {
    return num_factor_refactorizations_;
  }
  std::int64_t num_factor_failures() const { return num_factor_failures_; }

  /// The tracked Gram matrix Y and maintained inverse.
  const Matrix& Y() const { return inverse_.y(); }
  const Matrix& YInverse() const { return inverse_.inverse(); }
  const Vector& b() const { return b_; }

  /// Number of (x, r) observations folded in so far.
  std::int64_t num_observations() const { return inverse_.num_updates(); }

  /// Full Cholesky re-factorizations performed / failed so far (every
  /// observation also costs one O(d²) Sherman–Morrison update).
  std::int64_t num_refactorizations() const {
    return inverse_.num_refactorizations();
  }
  std::int64_t num_refactor_failures() const {
    return inverse_.num_refactor_failures();
  }

  /// False once a periodic Cholesky refactorization of Y has failed
  /// (numerical corruption). Estimates may then be stale; serving layers
  /// fall back to a stateless proposal (see ArrangementService).
  bool healthy() const { return inverse_.healthy(); }

  /// On-demand exact re-derivation of the inverse and any kept Cholesky
  /// factor from the tracked Y (O(d³)): clears every bit of rank-1
  /// drift and restores health if Y is still SPD. A block fold
  /// (ApplyBlock) ends with the same re-derivation.
  void Refactorize() {
    inverse_.Refactorize();
    RefactorizeFactor();
    Invalidate();
  }

  /// Test hook: simulates numerical corruption of Y.
  void SetUnhealthyForTesting() {
    inverse_.SetUnhealthyForTesting();
    factor_healthy_ = false;
  }

  /// Test hook: corrupts the tracked Y itself (negative diagonal) so every
  /// subsequent factorization attempt fails, and marks the maintained
  /// factor unhealthy — the state a real corruption would be detected in.
  void CorruptYForTesting() {
    inverse_.CorruptYForTesting();
    factor_healthy_ = false;
  }

  std::size_t MemoryBytes() const {
    return inverse_.MemoryBytes() + b_.MemoryBytes() +
           theta_hat_.MemoryBytes() +
           (factor_ ? factor_->L().MemoryBytes() : 0) +
           factor_work_.MemoryBytes() + inverse_t_.MemoryBytes();
  }

 private:
  /// Re-derives a kept factor from the tracked Y (O(d³)); clears rank-1
  /// drift, restores health on success. No-op without a factor.
  void RefactorizeFactor();
  /// Marks θ̂ and (Y⁻¹)ᵀ stale after Y⁻¹ or b changed.
  void Invalidate() {
    theta_dirty_ = true;
    inverse_t_dirty_ = true;
  }

  double lambda_;
  SymmetricInverse inverse_;
  Vector b_;
  std::optional<Cholesky> factor_;  // Engaged iff keep_factor.
  std::int64_t refactor_every_;
  std::int64_t num_factor_refactorizations_ = 0;
  std::int64_t num_factor_failures_ = 0;
  bool factor_healthy_;
  Vector factor_work_;  // Scratch for the rank-1 factor update.
  mutable Vector theta_hat_;
  mutable Matrix inverse_t_;  // (Y⁻¹)ᵀ, the batched widths' operand.
  mutable bool theta_dirty_ = true;
  mutable bool inverse_t_dirty_ = true;
};

}  // namespace fasea

#endif  // FASEA_CORE_RIDGE_H_
