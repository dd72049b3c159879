// Policy: the interface every FASEA arrangement strategy implements.
//
// The simulation engine drives a policy through the online protocol of
// Definition 3: for each arriving user it calls Propose (which must
// return a feasible arrangement for the given platform state), shows the
// arrangement to the ground-truth feedback model, and hands the observed
// 0/1 feedbacks back through Learn.
#ifndef FASEA_CORE_POLICY_H_
#define FASEA_CORE_POLICY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "graph/conflict_graph.h"
#include "model/context.h"
#include "model/platform_state.h"
#include "model/types.h"
#include "rng/pcg64.h"

namespace fasea {

/// Monte-Carlo draws behind the stochastic policies' PropensityOf
/// estimates. The estimates are Laplace-smoothed ((hits+1)/(draws+1)) so a
/// logged action never reports zero behavior propensity — an MC miss would
/// otherwise silently drop the round from every importance-weighted
/// estimator.
inline constexpr int kPropensityMcDraws = 32;

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string_view name() const = 0;

  /// Proposes an arrangement for the user arriving at step t. Must respect
  /// the three constraints of Definition 3 (user capacity, event
  /// capacities in `state`, no conflicting pair) plus the round's
  /// availability mask.
  ///
  /// Randomness: a policy keeps no RNG state between calls. A stochastic
  /// one keys every draw by (salt, purpose, t) through KeyedEngine
  /// (rng/seed.h), so asked twice with nothing learned in between Propose
  /// returns the same arrangement, and no other call shifts its draws.
  virtual Arrangement Propose(std::int64_t t, const RoundContext& round,
                              const PlatformState& state) = 0;

  /// Observes the user's feedback for the proposed arrangement. Called
  /// exactly once after each Propose, with `feedback[i]` the 0/1 response
  /// to `arrangement[i]`.
  virtual void Learn(std::int64_t t, const RoundContext& round,
                     const Arrangement& arrangement,
                     const Feedback& feedback) = 0;

  /// Writes this policy's current estimate of the *expected reward* of
  /// every event under `contexts` into `out` — the quantity whose ranking
  /// Figure 2 correlates with the ground truth. For TS this is the most
  /// recent sampled θ̃ (its ranking noise is the paper's explanation of
  /// TS's poor performance); for the ridge learners it is x ᵀ θ̂; Random
  /// has no estimate and writes zeros.
  virtual void EstimateRewards(const ContextMatrix& contexts,
                               std::span<double> out) const = 0;

  /// Bytes of learner state (the paper's memory metric tracks how state
  /// scales with |V| and d).
  virtual std::size_t MemoryBytes() const = 0;

  /// Probability that this policy, in its CURRENT learner state, would
  /// propose exactly `arrangement` (ordered — the arrangement IS the
  /// action under Definition 3) for this round. This is the behavior
  /// propensity the decision log records and the IPS/DR replay estimators
  /// divide by.
  ///
  /// Contract: the value must be a pure function of (learner state, t,
  /// round, platform state, arrangement), so recording it at serve time
  /// and recomputing it during offline replay (after feeding the same
  /// Learn sequence) yield the identical double. Stochastic policies draw
  /// their Monte-Carlo estimates from round t's "propensity" stream,
  /// which no serving draw reads.
  ///
  /// The default implementation treats the policy as deterministic — a
  /// point mass on whatever Propose returns — which is exact for UCB,
  /// Exploit, and OPT. Stochastic policies (eGreedy, TS, Random,
  /// Boltzmann) override it.
  virtual double PropensityOf(std::int64_t t, const RoundContext& round,
                              const PlatformState& state,
                              const Arrangement& arrangement);

  /// PropensityOf(t, round, state, served) for the arrangement `served`
  /// that Propose just returned for these same (t, round, state), with
  /// nothing learned in between. The serving layer records it in the
  /// decision log. Same contract as PropensityOf: it must return the
  /// same double.
  ///
  /// The default calls PropensityOf, so stochastic policies stay exact.
  /// A point-mass policy (UCB, Exploit, OPT) knows that what it just
  /// proposed has probability 1.0 and returns that without re-running
  /// Propose.
  virtual double ServedPropensity(std::int64_t t, const RoundContext& round,
                                  const PlatformState& state,
                                  const Arrangement& served);
};

/// Shared by the eGreedy and Random overrides: Laplace-smoothed Monte-Carlo
/// estimate of the probability that a RandomOracle (uniform visit order +
/// feasibility filter) emits exactly `arrangement`, in order. `scores` only
/// carry the availability mask (kExcludedScore = skip). The draws come
/// from `rng`.
double McRandomArrangementMass(Pcg64 rng,
                               std::span<const double> scores,
                               const ConflictGraph& conflicts,
                               const PlatformState& state,
                               std::int64_t user_capacity,
                               const Arrangement& arrangement);

/// Overwrites scores of unavailable events with kExcludedScore.
void ApplyAvailabilityMask(const RoundContext& round,
                           std::span<double> scores);

}  // namespace fasea

#endif  // FASEA_CORE_POLICY_H_
