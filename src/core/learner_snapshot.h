// LearnerSnapshot: one immutable epoch of a linear policy's learning
// state, published RCU-style by the batched serving path.
//
// The FASEA protocol updates the learner on every feedback, so scoring
// against the live RidgeState requires the round mutex. A snapshot
// decouples the two: SubmitBatchedFeedback builds a fresh snapshot after
// each Learn and swaps it in behind a shared_ptr (readers hold the old
// epoch until they drop it — no reader ever sees a half-written state),
// and ServeUserBatched scores each arrival against the snapshot with no
// lock held. Scoring against epoch E while E+1 commits is the
// deliberately accepted staleness (one round of feedback, the same
// slack epoch-based learners tolerate by design); capacities are NOT
// part of the snapshot — they resolve under the short critical section.
//
// A snapshot is a LearnerView (core/epoch_ridge.h): the policies score it
// with the very routine they score the live learner with. What those
// reads need is precomputed here once per commit instead of once per
// request, and only for the policy that reads it (LearnerReads,
// core/linear_policy_base.h): θ̂ for every policy, the transpose of Y⁻¹
// (the confidence-width kernel's operand) for UCB alone, and the
// Cholesky factor of Y for TS alone, while its learner's factor is
// healthy. The reads never mutate, so any number of threads may score
// one snapshot.
#ifndef FASEA_CORE_LEARNER_SNAPSHOT_H_
#define FASEA_CORE_LEARNER_SNAPSHOT_H_

#include <cstdint>
#include <optional>

#include "core/epoch_ridge.h"
#include "linalg/cholesky.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/mvn.h"
#include "linalg/vector.h"

namespace fasea {

struct LearnerSnapshot final : LearnerView {
  /// Observation count at capture (num_observations of the ridge) — the
  /// same monotone version the decision log calls theta_version.
  std::int64_t epoch = 0;

  /// ridge.healthy() at capture; when false the serving layer proposes
  /// statelessly instead of scoring through a corrupt inverse.
  bool healthy = true;

  Vector theta_hat;   // θ̂ = Y⁻¹ b.
  Matrix y_inverse_t; // (Y⁻¹)ᵀ — BatchedQuadFormPre's operand (UCB only).
  /// L with L·Lᵀ = Y, for TS sampling: set iff the policy is TS and its
  /// learner's factor was healthy at capture.
  std::optional<Cholesky> factor;

  /// Σᵢ θ̂ᵢ, computed at capture. A torn read of a mutating θ̂ would
  /// break this identity with overwhelming probability; the staleness
  /// invariant tests recompute it to prove snapshots are never partial.
  double theta_checksum = 0.0;

  const Vector& ThetaHat() const override { return theta_hat; }
  void ConfidenceWidthSqBatch(const Matrix& contexts,
                              std::span<double> out) const override {
    BatchedQuadFormPre(contexts, y_inverse_t, out);
  }
  bool SamplePosterior(Pcg64& rng, double q, Vector* out) const override {
    if (!factor.has_value()) return false;
    *out = SampleMvnFromPrecision(rng, theta_hat, q, *factor);
    return true;
  }
};

}  // namespace fasea

#endif  // FASEA_CORE_LEARNER_SNAPSHOT_H_
