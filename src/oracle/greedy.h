// Oracle-Greedy (Algorithm 2 of the paper).
//
// Visits events in non-increasing order of score; arranges each visited
// event that still has capacity and does not conflict with the events
// already arranged, stopping once the user capacity is reached. Theorem 1:
// over positive scores this is a 1/c_u approximation of the optimal
// arrangement. Note that events with score ≤ 0 ARE arranged when nothing
// better fits — the paper argues this "does no harm" because estimated
// rewards can be pessimistic (§3).
#ifndef FASEA_ORACLE_GREEDY_H_
#define FASEA_ORACLE_GREEDY_H_

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "oracle/oracle.h"

namespace fasea {

class GreedyOracle final : public ArrangementOracle {
 public:
  /// Lazy top-k selection: builds a max-heap over (score desc, id asc) in
  /// O(|V|) and pops only until c_u events are placed — O(|V| + k log|V|)
  /// with k pops, vs the O(|V| log|V|) full sort of SelectBySort. The heap
  /// pops in exactly the sort's total order, so the arrangement is
  /// identical (the tie order is part of the contract: the simulator's
  /// bit-compatibility tests depend on it).
  Arrangement Select(std::span<const double> scores,
                     const ConflictGraph& conflicts,
                     const PlatformState& state,
                     std::int64_t user_capacity) override;

  /// Arrival-order batch resolution over a B × |V| score matrix: row i is
  /// selected against `state` as already mutated by rows 0..i−1 — each
  /// selected event consumes one seat the moment it is placed — so the
  /// batch's users contend for remaining capacity exactly as if they had
  /// been served one at a time in ticket order (`capacities[i]` is row
  /// i's user capacity). The caller passes its reservation view of the
  /// platform state; on return every proposed seat has been consumed
  /// from it. Rows with a non-null entry in `row_oracle` delegate
  /// selection to that oracle instead of the greedy heap (eGreedy
  /// exploration rows bring a RandomOracle on the policy's
  /// ExplorationEngine). Every row is
  /// checked feasible against its pre-consumption state.
  std::vector<Arrangement> SelectBatch(
      const Matrix& scores, const ConflictGraph& conflicts,
      PlatformState* state, std::span<const std::int64_t> capacities,
      std::span<ArrangementOracle* const> row_oracle = {});

  /// Reference implementation: full sort by (score desc, id asc), then a
  /// linear placement scan. Kept for the heap-vs-sort equivalence tests
  /// and the oracle benches; produces the same arrangement as Select.
  Arrangement SelectBySort(std::span<const double> scores,
                           const ConflictGraph& conflicts,
                           const PlatformState& state,
                           std::int64_t user_capacity);

  std::string_view name() const override { return "Oracle-Greedy"; }

 private:
  // Scratch buffers reused across rounds to avoid per-round allocation.
  std::vector<EventId> order_;
  EventBitset arranged_;
};

}  // namespace fasea

#endif  // FASEA_ORACLE_GREEDY_H_
