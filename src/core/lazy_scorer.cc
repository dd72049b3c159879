#include "core/lazy_scorer.h"

#include <cmath>
#include <iterator>
#include <limits>

#include "common/macros.h"

namespace fasea {

namespace {

// NaN orders as +∞ (lazy_scorer.h), which also keeps the orders'
// comparison a strict weak order.
double OrderKey(double key) {
  return std::isnan(key) ? std::numeric_limits<double>::infinity() : key;
}

// True when v is already arranged or conflicts with an arranged event.
// The arrangement holds at most c_u events, so this beats any |V|-sized
// arranged-set bitset.
bool Blocked(EventId v, const Arrangement& arranged,
             const ConflictGraph& conflicts) {
  for (EventId u : arranged) {
    if (u == v || conflicts.Conflicts(v, u)) return true;
  }
  return false;
}

}  // namespace

LazyScorer::LazyScorer(std::size_t num_events, double width0, double alpha,
                       bool widths_monotone)
    : width0_(width0),
      alpha_(alpha),
      widths_monotone_(widths_monotone),
      pred_(num_events, 0.0),
      width_(num_events, width0) {
  FASEA_CHECK(num_events > 0);
  FASEA_CHECK(width0 > 0.0);
  FASEA_CHECK(alpha >= 0.0);
  // Nothing is scored yet: every bound is the same a-priori one, so the
  // stale order starts in id order.
  for (EventId v = 0; v < num_events; ++v) {
    stale_.emplace_hint(stale_.end(), Entry{StaleKey(v, 0.0), v});
  }
}

void LazyScorer::NoteLearn(const Vector& theta_hat,
                           std::int64_t scoring_version) {
  if (scoring_version == learner_version_) return;
  if (theta_prev_.size() != theta_hat.size()) {
    theta_prev_ = Vector(theta_hat.size());  // θ̂₀ = 0.
  }
  double norm_sq = 0.0;
  for (std::size_t j = 0; j < theta_hat.size(); ++j) {
    const double diff = theta_hat[j] - theta_prev_[j];
    norm_sq += diff * diff;
  }
  drift_sum_ += std::sqrt(norm_sq);
  theta_prev_ = theta_hat;
  learner_version_ = scoring_version;
}

double LazyScorer::StaleKey(EventId v, double drift_at) const {
  const double width_bound = widths_monotone_ ? width_[v] : width0_;
  return OrderKey(pred_[v] - drift_at + alpha_ * std::sqrt(width_bound) +
                  kBoundSlack);
}

void LazyScorer::RestaleExact() {
  while (!exact_.empty()) {
    auto node = exact_.extract(exact_.begin());
    node.value().key = StaleKey(node.value().event, exact_drift_);
    stale_.insert(std::move(node));
  }
  exact_version_ = learner_version_;
  exact_drift_ = drift_sum_;
}

Arrangement LazyScorer::Select(
    const std::function<LazyEventScore(EventId)>& rescore,
    const RoundContext& round, const ConflictGraph& conflicts,
    const PlatformState& state, std::int64_t user_capacity) {
  FASEA_DCHECK(pred_.size() == state.num_events());
  FASEA_CHECK(user_capacity >= 0);
  ++num_selects_;
  if (exact_version_ != learner_version_) RestaleExact();

  Arrangement result;
  result.reserve(static_cast<std::size_t>(user_capacity));
  auto stale = stale_.begin();
  auto exact = exact_.begin();
  while (static_cast<std::int64_t>(result.size()) < user_capacity) {
    const bool have_stale = stale != stale_.end();
    const bool have_exact = exact != exact_.end();
    if (!have_stale && !have_exact) break;
    // The exact front goes first only when it STRICTLY beats the stale
    // front's bound. The stale order sorts bounds minus drift_sum_, and
    // adding it back can round two bounds together, so on a tie the
    // stale event is rescored instead of trusting the id order.
    const bool take_exact =
        have_exact &&
        (!have_stale || exact->key > OrderKey(stale->key + drift_sum_));
    const EventId v = take_exact ? exact->event : stale->event;
    // Capacity / conflict / availability skips are final even on a stale
    // bound: a bound comes up no later than the exact score would, so the
    // arranged set here is a subset of what the eager scan would hold on
    // reaching v — an event conflicting with the subset conflicts with
    // the superset, and capacity/availability are round-constants. A
    // skipped event keeps its place in its order.
    const bool skip = !round.IsAvailable(v) || !state.HasCapacity(v) ||
                      Blocked(v, result, conflicts);
    if (take_exact) {
      // Exact and in front: dominates every remaining bound, which
      // dominate every remaining true score — a true maximum.
      if (!skip) result.push_back(v);
      ++exact;
      continue;
    }
    if (skip) {
      ++stale;
      continue;
    }
    const LazyEventScore s = rescore(v);
    ++num_rescores_;
    pred_[v] = s.pred;
    width_[v] = s.width_sq;
    const auto next = std::next(stale);
    auto node = stale_.extract(stale);
    stale = next;
    node.value().key = OrderKey(s.pred + alpha_ * std::sqrt(s.width_sq));
    const auto placed = exact_.insert(std::move(node)).position;
    // A sound bound places v behind every exact event visited so far, so
    // landing ahead of the exact cursor makes it the next one. (Were a
    // bound ever unsound, the cursor would step back over visited events;
    // Blocked() skips the arranged ones, the rest are skipped again.)
    if (!have_exact || Before{}(*placed, *exact)) exact = placed;
  }
  return result;
}

}  // namespace fasea
