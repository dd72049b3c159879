// Shared machinery of the four ridge learners (TS, UCB, eGreedy, Exploit)
// and the Boltzmann explorer: the learner, the greedy arrangement oracle,
// the score scratch buffer, and the common Learn step (Y ← Y + Σ x xᵀ,
// b ← b + Σ r x).
//
// Each policy turns learner state into a score row in exactly one
// function, written against a LearnerView (core/epoch_ridge.h): the mean
// row x ᵀ θ̂ here (Exploit, eGreedy, Boltzmann), UCB's upper bounds and
// TS's posterior draw in their own classes. Live Propose and PropensityOf
// pass the live learner, ScoreBatchSnapshot passes a LearnerSnapshot, and
// lazy rescores read the same view one row at a time.
#ifndef FASEA_CORE_LINEAR_POLICY_BASE_H_
#define FASEA_CORE_LINEAR_POLICY_BASE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/epoch_ridge.h"
#include "core/lazy_scorer.h"
#include "core/learner_snapshot.h"
#include "core/policy.h"
#include "core/ridge.h"
#include "model/context_cache.h"
#include "model/instance.h"
#include "obs/metrics.h"
#include "oracle/greedy.h"
#include "rng/seed.h"

namespace fasea {

/// One user of a cross-user batch handed to ScoreBatchSnapshot. `ticket`
/// is the arrival-order id the serving layer assigned — the serve-time
/// round id stochastic policies key their draws by, so a batch's scores
/// depend only on (snapshot, tickets, rounds), never on timing.
struct SnapshotRound {
  std::int64_t ticket = 0;
  const RoundContext* round = nullptr;
};

/// Which LearnerView reads a policy's scoring routine makes beyond θ̂,
/// declared by each policy class to its base constructor (a base-class
/// constructor cannot ask a virtual). The learner and its snapshots keep
/// only the state those reads need.
enum class LearnerReads {
  kMean,       // θ̂ alone: Exploit, eGreedy, Boltzmann.
  kWidths,     // θ̂ and the widths xᵀY⁻¹x: UCB.
  kPosterior,  // θ̂ and posterior draws through the factor of Y: TS.
};

/// How the serving layer must turn one scored row into an arrangement:
/// greedily over the row's scores (the normal case), or by a random
/// selection on the policy's ExplorationEngine for the ticket (an eGreedy
/// exploration row — its "scores" are just the availability mask).
enum class RowResolve { kGreedy, kRandom };

class LinearPolicyBase : public Policy {
 public:
  void Learn(std::int64_t t, const RoundContext& round,
             const Arrangement& arrangement,
             const Feedback& feedback) override;

  void EstimateRewards(const ContextMatrix& contexts,
                       std::span<double> out) const override;

  std::size_t MemoryBytes() const override;

  /// The exact learning state, for checkpointing and the serving layers.
  /// CHECK-fails for sketch-mode learners (they have no d×d state; see
  /// core/epoch_ridge.h).
  const RidgeState& ridge() const { return ridge_.exact(); }

  /// Mutable learning state — for recovery tooling and fault-injection
  /// tests; production serving paths only read.
  RidgeState& mutable_ridge() { return ridge_.mutable_exact(); }

  /// Replaces the learning state (checkpoint restore). The new state must
  /// have the instance's dimension.
  void RestoreRidge(RidgeState state) {
    ridge_.RestoreExact(std::move(state));
  }

  /// The bounded-scale learner facade wrapping the exact state.
  const EpochRidgeState& learner() const { return ridge_; }
  EpochRidgeState& mutable_learner() { return ridge_; }

  /// Hot-partition row budget of the lazily created ContextCache; 0 (the
  /// default) picks max(64, |V|/8). Takes effect before the first lazy
  /// round.
  void set_cache_budget(std::size_t budget) { cache_budget_ = budget; }
  /// The context cache, once a lazy round created it (else nullptr).
  const ContextCache* context_cache() const { return cache_.get(); }
  /// The lazy scorer, once a lazy propose created it (else nullptr).
  const LazyScorer* lazy_scorer() const { return lazy_scorer_.get(); }

  /// Captures the current learning state as an immutable epoch snapshot
  /// (see core/learner_snapshot.h) holding only what the policy's reads
  /// need: (Y⁻¹)ᵀ for kWidths, the healthy factor for kPosterior. Caller
  /// must hold whatever lock serializes Learn — the capture itself reads
  /// the live ridge.
  std::shared_ptr<const LearnerSnapshot> MakeSnapshot() const;

  /// The engine that resolves an exploration row (RowResolve::kRandom) of
  /// serve-time round `round` through a random selection, keyed by
  /// (salt, "explore", round): the one eGreedy's Propose explores with at
  /// t = round.
  Pcg64 ExplorationEngine(std::int64_t round) const {
    return KeyedEngine(salt_, "explore", round);
  }

  /// Scores every batch row against `snapshot` — no live learner state is
  /// read, so this runs with no lock held. `scores` must be pre-shaped
  /// rows.size() × |V|; `resolve` (same length) tells the caller how to
  /// turn each row into an arrangement. Each row is ScoreArrival, so it
  /// is bit-identical to what Propose computes from the same learner
  /// state, availability mask included. Requires snapshot.healthy — the
  /// serving layer falls back to stateless proposals otherwise.
  void ScoreBatchSnapshot(const LearnerSnapshot& snapshot,
                          std::span<const SnapshotRound> rows,
                          Matrix* scores,
                          std::span<RowResolve> resolve) const;

 protected:
  /// `instance` must outlive the policy. `reads` is what the policy's
  /// scoring routine reads; only kPosterior builds a learner that keeps a
  /// Cholesky factor. `learner` selects the maintenance mode (exact /
  /// epoch / sketch; learner_config.h). `salt` keys a stochastic policy's
  /// draws; deterministic ones leave it 0.
  LinearPolicyBase(const ProblemInstance* instance, LearnerReads reads,
                   double lambda, const LearnerConfig& learner,
                   std::uint64_t salt = 0)
      : instance_(instance),
        ridge_(instance->dim(), lambda, learner,
               /*keep_factor=*/reads == LearnerReads::kPosterior),
        salt_(salt),
        reads_(reads) {
    FASEA_CHECK(instance != nullptr);
  }

  // Process-wide learner telemetry, shared by every linear policy: how
  // much learning went through the O(d²) incremental path vs the O(d³)
  // full re-solve, and whether any re-solve failed (numerical health).
  Counter* sm_updates_metric_ =
      Metrics()->GetCounter("fasea.policy.sm_updates");
  Counter* refactorizations_metric_ =
      Metrics()->GetCounter("fasea.policy.refactorizations");
  Counter* refactor_failures_metric_ =
      Metrics()->GetCounter("fasea.policy.refactor_failures");
  // Bounded-scale telemetry: context-cache partition behavior and epoch
  // boundary applications (DESIGN.md §8).
  Counter* cache_hits_metric_ = Metrics()->GetCounter("fasea.cache.hits");
  Counter* cache_misses_metric_ =
      Metrics()->GetCounter("fasea.cache.misses");
  Counter* cache_evictions_metric_ =
      Metrics()->GetCounter("fasea.cache.evictions");
  Counter* epoch_applies_metric_ =
      Metrics()->GetCounter("fasea.learner.epoch_applies");

  const ConflictGraph& conflicts() const { return instance_->conflicts(); }

  /// One arrival's score row against `view` through the policy's scoring
  /// routine, with the draws (TS's θ̃, eGreedy's coin) Propose makes at
  /// t = ticket. The default scores the mean row.
  virtual RowResolve ScoreArrival(const LearnerView& view,
                                  const SnapshotRound& arrival,
                                  std::span<double> out) const;

  /// The mean row: x ᵀ θ̂ under `view` for every row of `contexts`, with
  /// the round's availability mask applied.
  static void ScoreMean(const LearnerView& view, const RoundContext& round,
                        const ContextMatrix& contexts, std::span<double> out);

  /// Resizes the scratch score buffer to n and returns it.
  std::span<double> Scores(std::size_t n) {
    scores_.resize(n);
    return scores_;
  }

  /// The policy's context cache for `source`, created on first use.
  ContextCache* EnsureCache(const ContextSource* source);

  /// Dense-context fallback for lazy rounds: TS and Boltzmann score all
  /// |V| events against a per-round θ̃, which defeats cached score
  /// bounds, so they read the cache's materialize-once Dense() matrix.
  /// Returns round.contexts unchanged for dense rounds.
  const ContextMatrix& RoundContexts(const RoundContext& round);

  /// Lazy-round propose for the fixed-θ̂ policies: greedy arrangement
  /// over score(v) = pred(v) + α·√width²(v) through the LazyScorer +
  /// ContextCache, materializing only rescored events. Bit-identical to
  /// scoring all |V| rows and running GreedyOracle (lazy_scorer.h).
  /// `alpha` must be the same on every call: the first lazy round builds
  /// the scorer with it.
  Arrangement ProposeLazy(std::int64_t t, const RoundContext& round,
                          const PlatformState& state, double alpha);

  const ProblemInstance* instance_;
  EpochRidgeState ridge_;
  GreedyOracle greedy_;
  const std::uint64_t salt_;
  const LearnerReads reads_;

 private:
  std::vector<double> scores_;
  std::size_t cache_budget_ = 0;
  std::unique_ptr<ContextCache> cache_;
  std::unique_ptr<LazyScorer> lazy_scorer_;
  // 1×d scratch for lazy rescores: the rescore runs through the same
  // view reads and kernels eager scoring uses, whose per-row results are
  // batch-size-invariant, so a 1-row call reproduces the full-matrix
  // result exactly by construction.
  Matrix lazy_row_;
  // Last-synced cache counter values: Learn publishes deltas to the
  // process-wide metrics so the per-row hot loop stays atomics-free.
  std::int64_t synced_cache_hits_ = 0;
  std::int64_t synced_cache_misses_ = 0;
  std::int64_t synced_cache_evictions_ = 0;
  std::int64_t synced_epoch_applies_ = 0;
};

}  // namespace fasea

#endif  // FASEA_CORE_LINEAR_POLICY_BASE_H_
