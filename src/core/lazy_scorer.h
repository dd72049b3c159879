// Lazy top-k scoring: the arrangement loop that makes propose cost
// sublinear in |V| on cached-context rounds.
//
// GreedyOracle::Select already pops a heap lazily, but every policy
// still SCORES all |V| events first — the Θ(|V|·d) that walls out
// Table 5. On static-context rounds (RoundContext::IsLazy) the exact
// scores of the previous rounds remain useful: between learner changes,
// an event's exact score is unchanged, and across changes it moves by at
// most the accumulated drift of θ̂ (|x·θ − x·θ'| ≤ ‖x‖·‖θ−θ'‖ ≤ ‖θ−θ'‖,
// the paper's ‖x‖ ≤ 1 bound) while its UCB width only shrinks (Y grows
// monotonically, so xᵀY⁻¹x is non-increasing). That yields a per-event
// upper bound
//
//     bound(v) = (pred_cached(v) − drift_cached(v) + α·√width_cached(v)
//                 + slack) + drift_now
//
// requiring no context materialization at all. Every stale event shares
// drift_now, so the stale events' order changes only when one of them is
// rescored: they live in a persistent STALE order keyed by the bracketed
// term, beside a small EXACT order of the events rescored under the
// current learner version. Select walks the two in merged (key desc,
// id asc) order — skipped events stay where they are — re-scoring an
// event (one ContextCache row + O(d²) exact score) only when its bound
// reaches the front, which moves it to the exact order. A front exact
// event is a true maximum over the remaining set (its exact key beats
// every remaining bound, and bounds dominate true scores), so the
// arrangement is IDENTICAL — bit for bit, tie order included — to scoring
// all |V| rows eagerly and running GreedyOracle. The first Select after a
// learner-version change moves the exact events back to the stale order.
// A round therefore costs O((k + m)·log|V|) for k events visited and m
// events re-staled, never Θ(|V|).
//
// The slack term absorbs the floating-point error of the accumulated
// drift sum (each ‖Δθ̂‖ is computed in FP); it only makes bounds looser
// (more rescores), never affects returned scores — arrangement decisions
// compare exact scores only.
//
// Non-finite keys: a NaN bound or score is ordered as +∞. A bound that is
// not a number proves nothing, so its event is rescored before any exact
// event is taken. ±∞ keep their place at either end.
#ifndef FASEA_CORE_LAZY_SCORER_H_
#define FASEA_CORE_LAZY_SCORER_H_

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "graph/conflict_graph.h"
#include "linalg/vector.h"
#include "model/context.h"
#include "model/platform_state.h"
#include "model/types.h"

namespace fasea {

/// An exact (pred, width²) pair for one event, produced on demand by the
/// policy's rescore callback.
struct LazyEventScore {
  double pred = 0.0;
  double width_sq = 0.0;
};

class LazyScorer {
 public:
  /// Scores are pred(v) + α·√width²(v) with a fixed `alpha` ≥ 0. `width0`
  /// is the a-priori width bound (xᵀY⁻¹x ≤ ‖x‖²/λ ≤ 1/λ at Y = λI, and
  /// widths only shrink from there). `widths_monotone` must be false for
  /// sketch-backed learners — a frequent-directions shrink can INCREASE
  /// widths, so their bounds fall back to width0.
  LazyScorer(std::size_t num_events, double width0, double alpha,
             bool widths_monotone = true);

  /// Tells the scorer the learner may have changed. Call once after every
  /// Learn with the current θ̂ and the learner's scoring_version(); a
  /// version it has already seen is a no-op (mid-epoch updates keep every
  /// cached score exact — the epoch learner's staleness is the lazy
  /// scorer's friend). O(d): the orders are only touched by Select.
  void NoteLearn(const Vector& theta_hat, std::int64_t scoring_version);

  /// Runs the greedy arrangement over score(v) = pred(v) + α·√width²(v)
  /// without scoring all |V| events: cached-exact events place directly,
  /// stale events re-score through `rescore` only when their bound
  /// reaches the front. Availability, event capacity and conflicts follow
  /// GreedyOracle::Select exactly.
  Arrangement Select(const std::function<LazyEventScore(EventId)>& rescore,
                     const RoundContext& round,
                     const ConflictGraph& conflicts,
                     const PlatformState& state, std::int64_t user_capacity);

  double alpha() const { return alpha_; }
  std::int64_t num_rescores() const { return num_rescores_; }
  std::int64_t num_selects() const { return num_selects_; }

  std::size_t MemoryBytes() const {
    return (pred_.capacity() + width_.capacity()) * sizeof(double) +
           (stale_.size() + exact_.size()) * kOrderNodeBytes +
           theta_prev_.MemoryBytes();
  }

 private:
  struct Entry {
    double key = 0.0;
    EventId event = 0;
  };
  /// (key desc, id asc): GreedyOracle's visit order.
  struct Before {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key != b.key) return a.key > b.key;
      return a.event < b.event;
    }
  };
  using Order = std::set<Entry, Before>;
  // One tree node: the entry plus the parent/left/right links and color.
  static constexpr std::size_t kOrderNodeBytes =
      sizeof(Entry) + 4 * sizeof(void*);

  // Bounds must only ever err upward; the slack dominates the ~1e-16
  // relative error of the FP drift accumulation at fig1 scales.
  static constexpr double kBoundSlack = 1e-9;

  /// The stale-order key of event v, last rescored while drift_sum_ was
  /// `drift_at`: its bound with the current drift_sum_ left out.
  double StaleKey(EventId v, double drift_at) const;
  /// Moves every exact event back to the stale order.
  void RestaleExact();

  double width0_;
  double alpha_;
  bool widths_monotone_;

  std::vector<double> pred_;   // Last exact prediction.
  std::vector<double> width_;  // Last exact width² (width0 until rescored).

  std::int64_t learner_version_ = 0;
  double drift_sum_ = 0.0;
  Vector theta_prev_;  // θ̂ at the last NoteLearn (starts at 0 = θ̂₀).

  // Every event sits in exactly one order. Stale keys exclude drift_sum_;
  // exact keys are the scores, exact under exact_version_, taken while
  // drift_sum_ was exact_drift_.
  Order stale_;
  Order exact_;
  std::int64_t exact_version_ = 0;
  double exact_drift_ = 0.0;

  std::int64_t num_rescores_ = 0;
  std::int64_t num_selects_ = 0;
};

}  // namespace fasea

#endif  // FASEA_CORE_LAZY_SCORER_H_
