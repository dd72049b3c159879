#include "graph/conflict_graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "rng/distributions.h"
#include "rng/pcg64.h"

namespace fasea {
namespace {

TEST(EventBitsetTest, SetTestClear) {
  EventBitset bits(130);  // Spans three words.
  EXPECT_FALSE(bits.Test(0));
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(EventBitsetTest, Intersects) {
  EventBitset a(100), b(100);
  a.Set(3);
  a.Set(77);
  b.Set(4);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(77);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(ConflictGraphTest, AddConflictSymmetric) {
  ConflictGraph g(5);
  g.AddConflict(1, 3);
  EXPECT_TRUE(g.Conflicts(1, 3));
  EXPECT_TRUE(g.Conflicts(3, 1));
  EXPECT_FALSE(g.Conflicts(1, 2));
  EXPECT_EQ(g.num_conflicts(), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(0), 0u);
}

TEST(ConflictGraphTest, EdgesStoredCanonically) {
  ConflictGraph g(5);
  g.AddConflict(4, 2);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].first, 2u);
  EXPECT_EQ(g.edges()[0].second, 4u);
}

TEST(ConflictGraphDeathTest, SelfAndDuplicateConflictsAbort) {
  ConflictGraph g(3);
  EXPECT_DEATH(g.AddConflict(1, 1), "FASEA_CHECK");
  g.AddConflict(0, 1);
  EXPECT_DEATH(g.AddConflict(1, 0), "FASEA_CHECK");
}

TEST(ConflictGraphTest, ConflictsWithAny) {
  ConflictGraph g(6);
  g.AddConflict(0, 1);
  g.AddConflict(2, 3);
  EventBitset arranged(6);
  arranged.Set(0);
  EXPECT_TRUE(g.ConflictsWithAny(1, arranged));
  EXPECT_FALSE(g.ConflictsWithAny(2, arranged));
  arranged.Set(3);
  EXPECT_TRUE(g.ConflictsWithAny(2, arranged));
}

TEST(ConflictGraphTest, IsIndependentSet) {
  ConflictGraph g(4);
  g.AddConflict(0, 1);
  EXPECT_TRUE(g.IsIndependentSet({0, 2, 3}));
  EXPECT_FALSE(g.IsIndependentSet({0, 1}));
  EXPECT_TRUE(g.IsIndependentSet({}));
  EXPECT_TRUE(g.IsIndependentSet({2}));
  // Duplicate handling belongs to IsFeasibleArrangement; the graph
  // predicate only checks pairwise edges and Conflicts(v, v) is false.
  EXPECT_FALSE(g.Conflicts(2, 2));
}

TEST(ConflictGraphTest, ConflictRatio) {
  ConflictGraph g(5);  // 10 possible pairs.
  EXPECT_DOUBLE_EQ(g.ConflictRatio(), 0.0);
  g.AddConflict(0, 1);
  g.AddConflict(2, 3);
  EXPECT_DOUBLE_EQ(g.ConflictRatio(), 0.2);
  EXPECT_DOUBLE_EQ(ConflictGraph(1).ConflictRatio(), 0.0);
  EXPECT_DOUBLE_EQ(ConflictGraph(0).ConflictRatio(), 0.0);
}

TEST(ConflictGraphTest, RandomHitsExactConflictCount) {
  Pcg64 rng(7);
  for (double cr : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    const ConflictGraph g = ConflictGraph::Random(40, cr, rng);
    const std::uint64_t total = 40 * 39 / 2;
    EXPECT_EQ(g.num_conflicts(),
              static_cast<std::size_t>(std::llround(cr * total)))
        << "cr=" << cr;
  }
}

TEST(ConflictGraphTest, RandomEdgesAreValidAndDistinct) {
  Pcg64 rng(8);
  const ConflictGraph g = ConflictGraph::Random(30, 0.3, rng);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const auto& e : g.edges()) {
    EXPECT_LT(e.first, e.second);
    EXPECT_LT(e.second, 30u);
    EXPECT_TRUE(seen.insert(e).second);
  }
}

TEST(ConflictGraphTest, RandomDecodesEveryPairIndexLikeARowWalk) {
  // Reference: the same sampled pair indices, each decoded by walking
  // the rows of the pair layout one at a time.
  for (const auto& [n, cr] : std::vector<std::pair<std::size_t, double>>{
           {2, 0.0}, {3, 0.67}, {7, 0.9}, {64, 0.999}, {301, 0.9},
           {10000, 0.0001}}) {
    Pcg64 a(11), b(11);
    const ConflictGraph g = ConflictGraph::Random(n, cr, a);
    const std::int64_t total = static_cast<std::int64_t>(n * (n - 1) / 2);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> expected;
    for (std::int64_t k : SampleWithoutReplacement(
             b, total,
             std::llround(cr * static_cast<double>(total)))) {
      std::uint32_t row = 0;
      for (std::uint32_t width = static_cast<std::uint32_t>(n) - 1;
           k >= width; --width) {
        k -= width;
        ++row;
      }
      expected.emplace_back(row, row + 1 + static_cast<std::uint32_t>(k));
    }
    EXPECT_EQ(g.edges(), expected) << "n=" << n << " cr=" << cr;
  }
}

TEST(ConflictGraphTest, RandomIsDeterministicGivenEngineState) {
  Pcg64 a(9), b(9);
  const ConflictGraph ga = ConflictGraph::Random(25, 0.4, a);
  const ConflictGraph gb = ConflictGraph::Random(25, 0.4, b);
  EXPECT_EQ(ga.edges(), gb.edges());
}

TEST(ConflictGraphTest, CompleteGraph) {
  const ConflictGraph g = ConflictGraph::Complete(6);
  EXPECT_EQ(g.num_conflicts(), 15u);
  EXPECT_DOUBLE_EQ(g.ConflictRatio(), 1.0);
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      if (a != b) EXPECT_TRUE(g.Conflicts(a, b));
    }
  }
}

TEST(ConflictGraphTest, RandomWithCrOneIsComplete) {
  Pcg64 rng(10);
  const ConflictGraph g = ConflictGraph::Random(10, 1.0, rng);
  EXPECT_EQ(g.num_conflicts(), 45u);
}

TEST(ConflictGraphTest, FromIntervalsOverlapSemantics) {
  // Event 0: [0, 2), event 1: [1, 3) overlap; event 2: [2, 4) touches
  // event 0 only at the boundary (no overlap), overlaps event 1.
  const ConflictGraph g =
      ConflictGraph::FromIntervals({0.0, 1.0, 2.0}, {2.0, 3.0, 4.0});
  EXPECT_TRUE(g.Conflicts(0, 1));
  EXPECT_TRUE(g.Conflicts(1, 2));
  EXPECT_FALSE(g.Conflicts(0, 2));
}

TEST(ConflictGraphTest, FromIntervalsDisjointDays) {
  // Same clock time on different days (paper's conflict rule).
  const ConflictGraph g = ConflictGraph::FromIntervals(
      {19.0, 24.0 + 19.0}, {21.0, 24.0 + 21.0});
  EXPECT_EQ(g.num_conflicts(), 0u);
}

TEST(ConflictGraphTest, MemoryBytesGrowsWithSize) {
  EXPECT_GT(ConflictGraph(1000).MemoryBytes(),
            ConflictGraph(100).MemoryBytes());
}

}  // namespace
}  // namespace fasea
