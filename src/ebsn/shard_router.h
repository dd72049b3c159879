// ShardRouter: the static partitioning layer of sharded serving.
//
// Events are partitioned across N shards by a consistent hash of the
// event id (common/hash.h): shard ownership is a pure function of
// (event id, shard count), so a recovered shard owns exactly the events
// it owned before the crash, and growing the shard count moves only
// ~1/N of the events. Each shard gets a *sub-instance*: its owned
// events remapped to dense local ids 0..m-1, with capacities gathered
// from the global instance and the conflict graph induced on the
// partition. Conflict edges whose endpoints land on different shards —
// the reason shards cannot be naively independent — are enumerated by
// CrossShardEdges() and enforced at serve time by the sharded layer's
// availability masks (see sharded_service.h).
//
// Arriving users are routed to a *home* (coordinator) shard round-robin
// by arrival: the base FASEA setting keeps user_id at 0 for every
// arrival, so a hash of the user id would route every round to one
// shard.
#ifndef FASEA_EBSN_SHARD_ROUTER_H_
#define FASEA_EBSN_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "model/instance.h"
#include "model/types.h"

namespace fasea {

class ShardRouter {
 public:
  /// Partitions `instance` (which must outlive the router) across
  /// `num_shards` >= 1 shards and builds every sub-instance.
  ShardRouter(const ProblemInstance* instance, int num_shards);

  int num_shards() const { return num_shards_; }
  const ProblemInstance& global_instance() const { return *instance_; }

  /// Owner shard of a global event id (pure consistent hash).
  int OwnerShard(EventId v) const {
    FASEA_DCHECK(v < owner_.size());
    return owner_[v];
  }

  /// Home (coordinator) shard for an arrival: round-robin over the
  /// global arrival counter `arrival_index`.
  int HomeShard(std::int64_t arrival_index) const {
    return static_cast<int>(((arrival_index % num_shards_) + num_shards_) %
                            num_shards_);
  }

  /// Local id of global event v within its owner's sub-instance.
  EventId LocalId(EventId v) const {
    FASEA_DCHECK(v < local_id_.size());
    return local_id_[v];
  }

  /// Global ids owned by `shard`, ascending (index = local id).
  const std::vector<EventId>& ShardEvents(int shard) const {
    FASEA_DCHECK(shard >= 0 && shard < num_shards_);
    return shard_events_[static_cast<std::size_t>(shard)];
  }

  /// The shard's sub-instance: ShardEvents(shard) remapped to local ids,
  /// capacities gathered, conflict graph induced on the partition.
  const ProblemInstance& SubInstance(int shard) const {
    FASEA_DCHECK(shard >= 0 && shard < num_shards_);
    return *sub_instances_[static_cast<std::size_t>(shard)];
  }

  /// Conflict edges {a, b} (global ids, a < b) whose endpoints live on
  /// different shards — the edges the two-phase protocol exists for.
  const std::vector<std::pair<EventId, EventId>>& CrossShardEdges() const {
    return cross_shard_edges_;
  }

 private:
  const ProblemInstance* instance_;
  int num_shards_;
  std::vector<int> owner_;        // global event -> shard
  std::vector<EventId> local_id_; // global event -> local id
  std::vector<std::vector<EventId>> shard_events_;
  std::vector<std::unique_ptr<ProblemInstance>> sub_instances_;
  std::vector<std::pair<EventId, EventId>> cross_shard_edges_;
};

}  // namespace fasea

#endif  // FASEA_EBSN_SHARD_ROUTER_H_
