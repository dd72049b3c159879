#include "core/epoch_ridge.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "linalg/mvn.h"

namespace fasea {

EpochRidgeState::EpochRidgeState(std::size_t dim, double lambda,
                                 const LearnerConfig& config,
                                 bool keep_factor)
    : dim_(dim), lambda_(lambda), config_(config) {
  FASEA_CHECK(dim > 0);
  FASEA_CHECK(lambda > 0.0);
  FASEA_CHECK(config.epoch_length >= 1);
  FASEA_CHECK(config.sketch_size >= 1);
  if (config_.mode == LearnerMode::kSketch) {
    fd_.emplace(dim, config_.sketch_size);
    b_ = Vector(dim);
    theta_hat_ = Vector(dim);
  } else {
    inner_.emplace(dim, lambda, config_.refactor_every, keep_factor);
    if (config_.mode == LearnerMode::kEpoch && config_.epoch_length > 1) {
      pending_ = Matrix(static_cast<std::size_t>(config_.epoch_length), dim);
      pending_r_ = Vector(static_cast<std::size_t>(config_.epoch_length));
    }
  }
}

void EpochRidgeState::Update(std::span<const double> x, double reward) {
  FASEA_CHECK(x.size() == dim_);
  ++total_observations_;
  switch (config_.mode) {
    case LearnerMode::kExact:
      inner_->Update(x, reward);
      ++scoring_version_;
      return;
    case LearnerMode::kEpoch:
      if (config_.epoch_length <= 1) {
        // Degenerate epoch: every observation is its own boundary, and
        // the rank-1 path keeps this bit-identical to kExact.
        inner_->Update(x, reward);
        ++num_epoch_applies_;
        ++scoring_version_;
        return;
      }
      std::copy(x.begin(), x.end(), pending_.Row(pending_count_).begin());
      pending_r_[pending_count_] = reward;
      ++pending_count_;
      if (pending_count_ ==
          static_cast<std::size_t>(config_.epoch_length)) {
        ApplyPending();
      }
      return;
    case LearnerMode::kSketch:
      fd_->Append(x);
      Axpy(reward, x, b_.span());
      theta_dirty_ = true;
      ++scoring_version_;
      return;
  }
}

void EpochRidgeState::Flush() {
  if (config_.mode == LearnerMode::kEpoch) ApplyPending();
}

void EpochRidgeState::ApplyPending() {
  if (pending_count_ == 0) return;
  if (pending_count_ == 1) {
    inner_->Update(pending_.Row(0), pending_r_[0]);
  } else if (pending_count_ == pending_.rows()) {
    inner_->ApplyBlock(pending_,
                       pending_r_.span().first(pending_count_));
  } else {
    // Partial flush (shutdown / test boundary): the block kernel wants
    // exactly-sized operands, and partial epochs are rare enough that a
    // copy beats threading a row-count through every kernel.
    Matrix block(pending_count_, dim_);
    for (std::size_t i = 0; i < pending_count_; ++i) {
      std::span<const double> src = pending_.Row(i);
      std::copy(src.begin(), src.end(), block.Row(i).begin());
    }
    inner_->ApplyBlock(block, pending_r_.span().first(pending_count_));
  }
  pending_count_ = 0;
  ++num_epoch_applies_;
  ++scoring_version_;
}

void EpochRidgeState::RefreshSketch() const {
  if (seen_shrinks_ == fd_->num_shrinks()) return;
  const std::size_t rank = fd_->rank();
  const Matrix& v = fd_->directions();
  std::span<const double> s2 = fd_->weights_sq();
  vt_ = Matrix(dim_, rank);
  coeff_.Resize(rank);
  samp_.Resize(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    coeff_[i] = s2[i] / (lambda_ + s2[i]);
    samp_[i] = 1.0 - std::sqrt(lambda_ / (lambda_ + s2[i]));
    std::span<const double> row = v.Row(i);
    for (std::size_t j = 0; j < dim_; ++j) vt_(j, i) = row[j];
  }
  seen_shrinks_ = fd_->num_shrinks();
  theta_dirty_ = true;
}

const Vector& EpochRidgeState::ThetaHat() const {
  if (config_.mode != LearnerMode::kSketch) return inner_->ThetaHat();
  RefreshSketch();
  if (theta_dirty_) {
    // Woodbury: θ̂ = Y⁻¹ b = (1/λ)(b − Vᵀ diag(c) V b).
    const std::size_t rank = fd_->rank();
    const Matrix& v = fd_->directions();
    proj_.Resize(rank);
    for (std::size_t i = 0; i < rank; ++i) {
      proj_[i] = Dot(v.Row(i), b_.span());
    }
    theta_hat_ = b_;
    for (std::size_t i = 0; i < rank; ++i) {
      Axpy(-coeff_[i] * proj_[i], v.Row(i), theta_hat_.span());
    }
    theta_hat_.Scale(1.0 / lambda_);
    theta_dirty_ = false;
  }
  return theta_hat_;
}

double EpochRidgeState::PredictedReward(std::span<const double> x) const {
  if (config_.mode != LearnerMode::kSketch) {
    return inner_->PredictedReward(x);
  }
  return Dot(ThetaHat().span(), x);
}

double EpochRidgeState::ConfidenceWidthSq(std::span<const double> x) const {
  if (config_.mode != LearnerMode::kSketch) {
    return inner_->ConfidenceWidthSq(x);
  }
  RefreshSketch();
  const std::size_t rank = fd_->rank();
  const Matrix& v = fd_->directions();
  double w = Dot(x, x);
  for (std::size_t i = 0; i < rank; ++i) {
    const double p = Dot(v.Row(i), x);
    w -= coeff_[i] * p * p;
  }
  // Bessel guarantees w ≥ 0 in exact arithmetic (c < 1, V orthonormal);
  // clamp the last-ulp negatives so UCB's sqrt stays defined.
  return std::max(w, 0.0) / lambda_;
}

void EpochRidgeState::ConfidenceWidthSqBatch(const Matrix& contexts,
                                             std::span<double> out) const {
  if (config_.mode != LearnerMode::kSketch) {
    inner_->ConfidenceWidthSqBatch(contexts, out);
    return;
  }
  FASEA_CHECK(out.size() == contexts.rows());
  RefreshSketch();
  const std::size_t rank = fd_->rank();
  if (rank == 0) {
    for (std::size_t r = 0; r < contexts.rows(); ++r) {
      std::span<const double> row = contexts.Row(r);
      out[r] = Dot(row, row) / lambda_;
    }
    return;
  }
  // G = X · Vᵀ — the O(n·m·d) bulk — then O(m) per row to combine.
  Gemm(contexts, vt_, &batch_g_);
  for (std::size_t r = 0; r < contexts.rows(); ++r) {
    std::span<const double> row = contexts.Row(r);
    double w = Dot(row, row);
    std::span<const double> g = batch_g_.Row(r);
    for (std::size_t i = 0; i < rank; ++i) w -= coeff_[i] * g[i] * g[i];
    out[r] = std::max(w, 0.0) / lambda_;
  }
}

bool EpochRidgeState::SamplePosterior(Pcg64& rng, double q,
                                      Vector* out) const {
  if (config_.mode != LearnerMode::kSketch) {
    if (!inner_->factor_healthy()) return false;
    *out = SampleMvnFromPrecision(rng, inner_->ThetaHat(), q,
                                  inner_->Factor());
    return true;
  }
  // θ̃ = θ̂ + (q/√λ)(I − Vᵀ diag(d) V) z with dᵢ = 1 − √(λ/(λ+s²ᵢ))
  // gives cov(θ̃) = q²·(1/λ)(I − Vᵀ diag(c) V) = q²·Y⁻¹ exactly.
  RefreshSketch();
  *out = ThetaHat();
  z_ = StandardNormalVector(rng, dim_);
  const std::size_t rank = fd_->rank();
  const Matrix& v = fd_->directions();
  proj_.Resize(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    proj_[i] = Dot(v.Row(i), z_.span());
  }
  for (std::size_t i = 0; i < rank; ++i) {
    Axpy(-samp_[i] * proj_[i], v.Row(i), z_.span());
  }
  Axpy(q / std::sqrt(lambda_), z_.span(), out->span());
  return true;
}

const Vector& EpochRidgeState::b() const {
  if (config_.mode == LearnerMode::kSketch) return b_;
  return inner_->b();
}

std::int64_t EpochRidgeState::num_observations() const {
  // kSketch keeps b exact, so every observation is "applied" for the
  // observation-count contract even while the sketch lags by a buffer.
  return inner_ ? inner_->num_observations() : total_observations_;
}

void EpochRidgeState::Refactorize() {
  if (inner_) {
    inner_->Refactorize();
  } else {
    fd_->ForceShrink();
  }
  ++scoring_version_;
}

const RidgeState& EpochRidgeState::exact_ref() const {
  FASEA_CHECK(inner_.has_value());  // Unavailable under LearnerMode::kSketch.
  return *inner_;
}

RidgeState& EpochRidgeState::mutable_exact() {
  FASEA_CHECK(inner_.has_value());  // Unavailable under LearnerMode::kSketch.
  // External mutation (delta merges, checkpoint restore, test hooks) can
  // change scoring-visible bits; invalidate any cached lazy scores.
  ++scoring_version_;
  return *inner_;
}

void EpochRidgeState::RestoreExact(RidgeState state) {
  FASEA_CHECK(inner_.has_value());
  FASEA_CHECK(state.dim() == dim_);
  FASEA_CHECK(state.keeps_factor() == inner_->keeps_factor());
  inner_ = std::move(state);
  pending_count_ = 0;
  total_observations_ = inner_->num_observations();
  ++scoring_version_;
}

const FrequentDirections& EpochRidgeState::sketch() const {
  FASEA_CHECK(fd_.has_value());
  return *fd_;
}

std::size_t EpochRidgeState::MemoryBytes() const {
  std::size_t bytes = pending_.MemoryBytes() + pending_r_.MemoryBytes() +
                      b_.MemoryBytes() + vt_.MemoryBytes() +
                      coeff_.MemoryBytes() + samp_.MemoryBytes() +
                      theta_hat_.MemoryBytes() + proj_.MemoryBytes() +
                      batch_g_.MemoryBytes() + z_.MemoryBytes();
  if (inner_) bytes += inner_->MemoryBytes();
  if (fd_) bytes += fd_->MemoryBytes();
  return bytes;
}

}  // namespace fasea
