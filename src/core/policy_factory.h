// Convenience constructors: build the paper's five algorithms (plus OPT)
// with their Table 4 default parameters from one spec. The benches and
// examples use this to stay in sync on defaults.
#ifndef FASEA_CORE_POLICY_FACTORY_H_
#define FASEA_CORE_POLICY_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/learner_config.h"
#include "core/policy.h"
#include "model/instance.h"
#include "model/round_provider.h"

namespace fasea {

/// The paper's five algorithms plus the Boltzmann/softmax explorer (a
/// stochastic behavior policy with closed-form propensities; not part of
/// AllPolicyKinds so the paper-figure sweeps are unchanged).
enum class PolicyKind { kUcb, kTs, kEpsGreedy, kExploit, kRandom, kBoltzmann };

std::string_view PolicyKindName(PolicyKind kind);

/// Parameters covering all algorithms; unused fields are ignored by each
/// kind. Defaults are the paper's bold defaults (Table 4).
struct PolicyParams {
  double lambda = 1.0;  // All ridge learners.
  double alpha = 2.0;   // UCB.
  double delta = 0.1;   // TS.
  double epsilon = 0.1; // eGreedy.
  double temperature = 0.2; // Boltzmann softmax τ.
  // Learner maintenance mode for the ridge policies (exact / epoch /
  // sketch; core/learner_config.h). Random ignores it.
  LearnerConfig learner;
  // Hot-partition row budget of the lazy-round ContextCache; 0 picks the
  // default max(64, |V|/8). Only consulted on lazy rounds.
  std::size_t cache_budget = 0;
};

/// Builds one policy. A stochastic kind's salt is DeriveSeed(seed, kind
/// tag); it keys the policy's draws (TS sampling, eGreedy coin, Random
/// order, Boltzmann softmax). Deterministic kinds ignore `seed`.
/// `instance` must outlive the policy.
std::unique_ptr<Policy> MakePolicy(PolicyKind kind,
                                   const ProblemInstance* instance,
                                   const PolicyParams& params,
                                   std::uint64_t seed);

/// All five algorithms in the paper's reporting order:
/// UCB, TS, eGreedy, Exploit, Random.
std::vector<PolicyKind> AllPolicyKinds();

}  // namespace fasea

#endif  // FASEA_CORE_POLICY_FACTORY_H_
