// ShardRouter: the static partitioning layer. Ownership must be a pure
// function of (event id, shard count); sub-instances must carry exactly
// the owned events with gathered capacities and the induced conflict
// graph; cross-shard edges must be exactly the edges the sub-instances
// cannot see.
#include "ebsn/shard_router.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graph/conflict_graph.h"
#include "model/instance.h"

namespace fasea {
namespace {

ProblemInstance MakeInstance(std::size_t n) {
  std::vector<std::int64_t> capacities;
  for (std::size_t v = 0; v < n; ++v) {
    capacities.push_back(static_cast<std::int64_t>(v) + 1);
  }
  ConflictGraph conflicts(n);
  // A ring of conflicts: {v, v+1} plus the wrap edge — guarantees both
  // same-shard and cross-shard edges for any multi-shard partition.
  for (std::size_t v = 0; v + 1 < n; ++v) {
    conflicts.AddConflict(v, v + 1);
  }
  if (n > 2) conflicts.AddConflict(0, n - 1);
  auto instance = ProblemInstance::Create(std::move(capacities),
                                          std::move(conflicts), 3);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

TEST(ShardRouterTest, PartitionCoversEveryEventExactlyOnce) {
  const ProblemInstance instance = MakeInstance(24);
  const ShardRouter router(&instance, 4);
  std::set<EventId> seen;
  for (int s = 0; s < router.num_shards(); ++s) {
    EventId prev_local = 0;
    for (std::size_t i = 0; i < router.ShardEvents(s).size(); ++i) {
      const EventId v = router.ShardEvents(s)[i];
      EXPECT_TRUE(seen.insert(v).second) << "event owned twice: " << v;
      EXPECT_EQ(router.OwnerShard(v), s);
      EXPECT_EQ(router.LocalId(v), static_cast<EventId>(i));
      if (i > 0) EXPECT_GT(v, prev_local);  // Ascending global ids.
      prev_local = v;
    }
  }
  EXPECT_EQ(seen.size(), instance.num_events());
}

TEST(ShardRouterTest, OwnershipIsStableAcrossRouters) {
  // Consistent hashing is a pure function: two routers over the same
  // instance agree event-for-event (this is what lets a recovered shard
  // replay its own WAL against its own partition).
  const ProblemInstance instance = MakeInstance(32);
  const ShardRouter a(&instance, 4);
  const ShardRouter b(&instance, 4);
  for (EventId v = 0; v < instance.num_events(); ++v) {
    EXPECT_EQ(a.OwnerShard(v), b.OwnerShard(v));
    EXPECT_EQ(a.LocalId(v), b.LocalId(v));
  }
}

TEST(ShardRouterTest, GrowingShardCountMovesFewEvents) {
  const ProblemInstance instance = MakeInstance(200);
  const ShardRouter before(&instance, 4);
  const ShardRouter after(&instance, 5);
  int moved = 0;
  for (EventId v = 0; v < instance.num_events(); ++v) {
    if (before.OwnerShard(v) != after.OwnerShard(v)) {
      ++moved;
      EXPECT_EQ(after.OwnerShard(v), 4);  // Only into the new shard.
    }
  }
  // ~1/5 of 200 = 40; consistent hashing keeps it well under half.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 100);
}

TEST(ShardRouterTest, SubInstancesGatherCapacitiesAndConflicts) {
  const ProblemInstance instance = MakeInstance(24);
  const ShardRouter router(&instance, 3);
  for (int s = 0; s < router.num_shards(); ++s) {
    const ProblemInstance& sub = router.SubInstance(s);
    const std::vector<EventId>& events = router.ShardEvents(s);
    ASSERT_EQ(sub.num_events(), events.size());
    EXPECT_EQ(sub.dim(), instance.dim());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(sub.capacity(static_cast<EventId>(i)),
                instance.capacity(events[i]));
      for (std::size_t j = 0; j < events.size(); ++j) {
        EXPECT_EQ(sub.conflicts().Conflicts(i, j),
                  instance.conflicts().Conflicts(events[i], events[j]))
            << "induced edge mismatch between " << events[i] << " and "
            << events[j];
      }
    }
  }
}

TEST(ShardRouterTest, CrossShardEdgesAreExactlyTheSplitOnes) {
  const ProblemInstance instance = MakeInstance(24);
  const ShardRouter router(&instance, 4);
  std::set<std::pair<EventId, EventId>> cross(
      router.CrossShardEdges().begin(), router.CrossShardEdges().end());
  std::size_t expected = 0;
  for (const auto& [a, b] : instance.conflicts().edges()) {
    const bool split = router.OwnerShard(a) != router.OwnerShard(b);
    if (split) ++expected;
    EXPECT_EQ(cross.count({a, b}), split ? 1u : 0u)
        << "edge {" << a << ", " << b << "}";
  }
  EXPECT_EQ(cross.size(), expected);
}

TEST(ShardRouterTest, SingleShardOwnsEverything) {
  const ProblemInstance instance = MakeInstance(10);
  const ShardRouter router(&instance, 1);
  for (EventId v = 0; v < instance.num_events(); ++v) {
    EXPECT_EQ(router.OwnerShard(v), 0);
    EXPECT_EQ(router.LocalId(v), v);
  }
  EXPECT_TRUE(router.CrossShardEdges().empty());
  EXPECT_EQ(router.SubInstance(0).num_events(), instance.num_events());
}

TEST(ShardRouterTest, RoundRobinHomesCycle) {
  const ProblemInstance instance = MakeInstance(16);
  const ShardRouter router(&instance, 4);
  for (std::int64_t arrival = 0; arrival < 12; ++arrival) {
    EXPECT_EQ(router.HomeShard(arrival), static_cast<int>(arrival % 4));
  }
}

}  // namespace
}  // namespace fasea
