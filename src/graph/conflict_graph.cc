#include "graph/conflict_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "rng/distributions.h"

namespace fasea {

std::size_t EventBitset::Count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += std::popcount(w);
  return total;
}

ConflictGraph::ConflictGraph(std::size_t n) : n_(n) {
  rows_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rows_.emplace_back(n);
}

double ConflictGraph::ConflictRatio() const {
  if (n_ < 2) return 0.0;
  const double total_pairs = static_cast<double>(n_) * (n_ - 1) / 2.0;
  return static_cast<double>(edges_.size()) / total_pairs;
}

void ConflictGraph::AddConflict(std::size_t a, std::size_t b) {
  FASEA_CHECK(a < n_ && b < n_ && a != b);
  FASEA_CHECK(!rows_[a].Test(b));
  rows_[a].Set(b);
  rows_[b].Set(a);
  edges_.emplace_back(static_cast<std::uint32_t>(std::min(a, b)),
                      static_cast<std::uint32_t>(std::max(a, b)));
}

bool ConflictGraph::IsIndependentSet(
    const std::vector<std::uint32_t>& events) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (Conflicts(events[i], events[j])) return false;
    }
  }
  return true;
}

std::size_t ConflictGraph::MemoryBytes() const {
  std::size_t total = edges_.capacity() * sizeof(edges_[0]);
  for (const auto& row : rows_) total += row.MemoryBytes();
  return total;
}

ConflictGraph ConflictGraph::Random(std::size_t n, double conflict_ratio,
                                    Pcg64& rng) {
  FASEA_CHECK(conflict_ratio >= 0.0 && conflict_ratio <= 1.0);
  ConflictGraph g(n);
  if (n < 2) return g;
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  const std::uint64_t want = static_cast<std::uint64_t>(
      std::llround(conflict_ratio * static_cast<double>(total_pairs)));
  if (want == total_pairs) return Complete(n);
  // Sample `want` distinct pair indices without replacement, then decode
  // the linear index k into the pair (a, b), a < b. Row a holds the
  // n-1-a pairs that start at a, so the rows before it hold a(2n-a-1)/2
  // pairs, and k's row is the floor of that quadratic's root. The
  // floating-point root is exact here: at a row start it is an integer
  // computed from exact squares, and elsewhere it sits at least ~1/n
  // below the next integer, far above the rounding error for any n a
  // dense graph can hold. The check guards that.
  const std::vector<std::int64_t> picks = SampleWithoutReplacement(
      rng, static_cast<std::int64_t>(total_pairs),
      static_cast<std::int64_t>(want));
  const auto pairs_before_row = [n](std::uint64_t a) {
    return a * (2 * n - a - 1) / 2;
  };
  const double m = 2.0 * static_cast<double>(n) - 1.0;
  for (std::int64_t k : picks) {
    const auto index = static_cast<std::uint64_t>(k);
    const auto a = static_cast<std::uint64_t>(
        (m - std::sqrt(m * m - 8.0 * static_cast<double>(index))) / 2.0);
    FASEA_CHECK(pairs_before_row(a) <= index &&
                index < pairs_before_row(a + 1));
    g.AddConflict(a, a + 1 + (index - pairs_before_row(a)));
  }
  return g;
}

ConflictGraph ConflictGraph::Complete(std::size_t n) {
  ConflictGraph g(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) g.AddConflict(a, b);
  }
  return g;
}

ConflictGraph ConflictGraph::FromIntervals(const std::vector<double>& starts,
                                           const std::vector<double>& ends) {
  FASEA_CHECK(starts.size() == ends.size());
  ConflictGraph g(starts.size());
  for (std::size_t a = 0; a < starts.size(); ++a) {
    FASEA_CHECK(starts[a] <= ends[a]);
    for (std::size_t b = a + 1; b < starts.size(); ++b) {
      const bool overlap = starts[a] < ends[b] && starts[b] < ends[a];
      if (overlap) g.AddConflict(a, b);
    }
  }
  return g;
}

}  // namespace fasea
