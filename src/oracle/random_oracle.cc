#include "oracle/random_oracle.h"

#include <cmath>
#include <numeric>

#include "rng/distributions.h"

namespace fasea {

Arrangement SelectRandom(Pcg64& rng, std::span<const double> scores,
                         const ConflictGraph& conflicts,
                         const PlatformState& state,
                         std::int64_t user_capacity,
                         RandomSelectScratch* scratch) {
  const std::size_t n = scores.size();
  FASEA_DCHECK(n == state.num_events());
  FASEA_CHECK(user_capacity >= 0);

  std::vector<EventId>& order = scratch->order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  Shuffle(rng, order);

  EventBitset& arranged = scratch->arranged;
  if (arranged.size() != n) arranged = EventBitset(n);
  arranged.Reset();

  Arrangement result;
  result.reserve(static_cast<std::size_t>(user_capacity));
  for (EventId v : order) {
    if (static_cast<std::int64_t>(result.size()) >= user_capacity) break;
    if (std::isinf(scores[v]) && scores[v] < 0) continue;  // Excluded.
    if (!state.HasCapacity(v)) continue;
    if (conflicts.ConflictsWithAny(v, arranged)) continue;
    arranged.Set(v);
    result.push_back(v);
  }
  return result;
}

}  // namespace fasea
