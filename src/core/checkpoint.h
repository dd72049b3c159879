// Policy checkpointing: serialize a ridge learner's state so a production
// platform can stop and resume learning across process restarts.
//
// What is saved: the policy kind, its parameters (λ, α, δ, ε, τ), the
// exact Gram matrix Y, the reward vector b, and the observation count —
// the complete sufficient statistics of every ridge learner. A stochastic
// policy keeps no RNG state (its draws are keyed by round), so a policy
// restored with the same seed proposes exactly as the original.
//
// Format: a little-endian binary blob with magic/version header; the
// payload is independent of platform word size. Load validates magic,
// version, kind, dimensions, and the SPD property of Y.
#ifndef FASEA_CORE_CHECKPOINT_H_
#define FASEA_CORE_CHECKPOINT_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/linear_policy_base.h"
#include "core/policy_factory.h"

namespace fasea {

/// The deserialized contents of a checkpoint blob.
struct PolicyCheckpoint {
  PolicyKind kind = PolicyKind::kUcb;
  PolicyParams params;
  Matrix y;
  Vector b;
  std::int64_t num_observations = 0;
};

/// Serializes a ridge learner (UCB, TS, eGreedy, Exploit, Boltzmann).
/// `kind` and `params` must be the values the policy was built with.
std::string SaveCheckpoint(PolicyKind kind, const PolicyParams& params,
                           const LinearPolicyBase& policy);

/// Parses a blob; fails on corrupt/truncated data or version mismatch.
StatusOr<PolicyCheckpoint> ParseCheckpoint(std::string_view data);

/// Rebuilds a policy from a checkpoint: constructs it via MakePolicy with
/// `seed` (which derives a stochastic policy's salt), then restores the
/// learning state. Fails if the checkpoint's dimension does not match the
/// instance or the kind is not a ridge learner.
StatusOr<std::unique_ptr<Policy>> RestorePolicy(
    const PolicyCheckpoint& checkpoint, const ProblemInstance* instance,
    std::uint64_t seed);

}  // namespace fasea

#endif  // FASEA_CORE_CHECKPOINT_H_
