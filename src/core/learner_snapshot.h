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
// Everything a policy's scoring pass needs is precomputed here once per
// commit instead of once per request: θ̂, the transpose of Y⁻¹ (the
// confidence-width kernel's operand), and the Cholesky factor of Y for
// posterior sampling.
#ifndef FASEA_CORE_LEARNER_SNAPSHOT_H_
#define FASEA_CORE_LEARNER_SNAPSHOT_H_

#include <cstdint>
#include <optional>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fasea {

struct LearnerSnapshot {
  /// Observation count at capture (num_observations of the ridge) — the
  /// same monotone version the decision log calls theta_version.
  std::int64_t epoch = 0;

  /// ridge.healthy() at capture; when false the serving layer proposes
  /// statelessly instead of scoring through a corrupt inverse.
  bool healthy = true;
  /// ridge.factor_healthy() at capture; `factor` is set iff true.
  bool factor_healthy = false;

  Vector theta_hat;   // θ̂ = Y⁻¹ b.
  Matrix y_inverse_t; // (Y⁻¹)ᵀ — BatchedQuadFormPre's operand.
  std::optional<Cholesky> factor;  // L with L·Lᵀ = Y, for TS sampling.

  /// Σᵢ θ̂ᵢ, computed at capture. A torn read of a mutating θ̂ would
  /// break this identity with overwhelming probability; the staleness
  /// invariant tests recompute it to prove snapshots are never partial.
  double theta_checksum = 0.0;
};

}  // namespace fasea

#endif  // FASEA_CORE_LEARNER_SNAPSHOT_H_
