#include "core/ridge.h"

#include "linalg/kernels.h"

namespace fasea {

RidgeState::RidgeState(std::size_t dim, double lambda,
                       std::int64_t refactor_every, bool keep_factor)
    : lambda_(lambda),
      inverse_(dim, lambda, refactor_every),
      b_(dim),
      refactor_every_(refactor_every),
      factor_healthy_(keep_factor),
      theta_hat_(dim) {
  FASEA_CHECK(lambda > 0.0);
  if (keep_factor) {
    factor_ = Cholesky::ScaledIdentity(dim, lambda);
    factor_work_ = Vector(dim);
  }
}

StatusOr<RidgeState> RidgeState::FromComponents(double lambda, Matrix y,
                                                Vector b,
                                                std::int64_t num_observations,
                                                std::int64_t refactor_every,
                                                bool keep_factor) {
  if (lambda <= 0.0) {
    return InvalidArgumentError("RidgeState: lambda must be positive");
  }
  if (y.rows() != b.size()) {
    return InvalidArgumentError("RidgeState: Y and b dimension mismatch");
  }
  auto inverse =
      SymmetricInverse::FromMatrix(std::move(y), num_observations,
                                   refactor_every);
  if (!inverse.ok()) return inverse.status();
  RidgeState state(b.size(), lambda, refactor_every, keep_factor);
  state.inverse_ = std::move(inverse).value();
  state.b_ = std::move(b);
  state.Invalidate();
  if (keep_factor) {
    // FromMatrix already factorized Y once to derive the inverse, so this
    // second factorization cannot fail; it seeds the maintained factor.
    auto factor = Cholesky::Factorize(state.inverse_.y());
    FASEA_CHECK(factor.ok());
    state.factor_ = std::move(factor).value();
  }
  return state;
}

void RidgeState::Update(std::span<const double> x, double reward) {
  FASEA_CHECK(x.size() == dim());
  inverse_.RankOneUpdate(x);
  if (factor_healthy_ && !factor_->RankOneUpdate(x, factor_work_.span())) {
    ++num_factor_failures_;
    factor_healthy_ = false;
  }
  Axpy(reward, x, b_.span());
  Invalidate();
  // Same cadence as the inverse: the periodic exact re-derivation clears
  // rank-1 rounding drift and doubles as the recovery path after a
  // failed update left the factor unusable.
  if (factor_ && refactor_every_ > 0 &&
      inverse_.num_updates() % refactor_every_ == 0) {
    RefactorizeFactor();
  }
}

void RidgeState::ApplyBlock(const Matrix& x_block,
                            std::span<const double> rewards) {
  FASEA_CHECK(x_block.cols() == dim());
  FASEA_CHECK(x_block.rows() == rewards.size());
  if (x_block.rows() == 0) return;
  inverse_.ApplyBlock(x_block);
  for (std::size_t i = 0; i < x_block.rows(); ++i) {
    Axpy(rewards[i], x_block.Row(i), b_.span());
  }
  RefactorizeFactor();
  Invalidate();
}

void RidgeState::RefactorizeFactor() {
  if (!factor_) return;
  auto chol = Cholesky::Factorize(inverse_.y());
  if (!chol.ok()) {
    ++num_factor_failures_;
    factor_healthy_ = false;
    return;
  }
  factor_ = std::move(chol).value();
  ++num_factor_refactorizations_;
  factor_healthy_ = true;
}

const Vector& RidgeState::ThetaHat() const {
  if (theta_dirty_) {
    inverse_.inverse().MatVec(b_.span(), theta_hat_.span());
    theta_dirty_ = false;
  }
  return theta_hat_;
}

double RidgeState::PredictedReward(std::span<const double> x) const {
  return Dot(ThetaHat().span(), x);
}

void RidgeState::PredictBatch(const Matrix& contexts,
                              std::span<double> out) const {
  FASEA_CHECK(out.size() == contexts.rows());
  GemvRows(contexts, ThetaHat().span(), out);
}

void RidgeState::ConfidenceWidthSqBatch(const Matrix& contexts,
                                        std::span<double> out) const {
  FASEA_CHECK(out.size() == contexts.rows());
  if (inverse_t_dirty_) {
    TransposeInto(inverse_.inverse(), &inverse_t_);
    inverse_t_dirty_ = false;
  }
  BatchedQuadFormPre(contexts, inverse_t_, out);
}

}  // namespace fasea
