#include "ebsn/shard_router.h"

#include "common/hash.h"

namespace fasea {

ShardRouter::ShardRouter(const ProblemInstance* instance, int num_shards)
    : instance_(instance), num_shards_(num_shards) {
  FASEA_CHECK(instance != nullptr);
  FASEA_CHECK(num_shards >= 1);
  const std::size_t n = instance->num_events();
  owner_.resize(n);
  local_id_.resize(n);
  shard_events_.resize(static_cast<std::size_t>(num_shards));
  for (EventId v = 0; v < n; ++v) {
    const int shard = JumpConsistentHash(Mix64(v), num_shards);
    owner_[v] = shard;
    auto& events = shard_events_[static_cast<std::size_t>(shard)];
    local_id_[v] = static_cast<EventId>(events.size());
    events.push_back(v);
  }

  sub_instances_.reserve(static_cast<std::size_t>(num_shards));
  for (int shard = 0; shard < num_shards; ++shard) {
    const auto& events = shard_events_[static_cast<std::size_t>(shard)];
    std::vector<std::int64_t> capacities;
    capacities.reserve(events.size());
    for (EventId v : events) capacities.push_back(instance->capacity(v));
    ConflictGraph induced(events.size());
    for (const auto& [a, b] : instance->conflicts().edges()) {
      if (owner_[a] == shard && owner_[b] == shard) {
        induced.AddConflict(local_id_[a], local_id_[b]);
      }
    }
    auto sub = ProblemInstance::Create(std::move(capacities),
                                       std::move(induced), instance->dim());
    FASEA_CHECK_OK(sub.status());
    sub_instances_.push_back(
        std::make_unique<ProblemInstance>(std::move(sub).value()));
  }

  for (const auto& [a, b] : instance->conflicts().edges()) {
    if (owner_[a] != owner_[b]) cross_shard_edges_.emplace_back(a, b);
  }
}

}  // namespace fasea
