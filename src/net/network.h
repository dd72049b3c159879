// SimulatedNetwork: a deterministic message-passing fabric on a logical
// clock, with per-link fault injection.
//
// Nodes (shards, plus the arrangement gateway) register a handler; Send
// encodes an Envelope to bytes, rolls the fault dice (drop, delay,
// duplicate, reorder) from a seeded PCG64 stream, and enqueues the bytes
// with a delivery tick. Pump() delivers every message whose tick has
// arrived, in (deliver_at, sequence) order, decoding the bytes back into
// an Envelope at the destination — so the wire codec is exercised on
// every hop and a run is byte-reproducible from (seed, schedule, send
// order).
//
// Partitions are modeled as blocked directed links: PartitionNode(n)
// blocks every link touching n (full partition), BlockLink(a, b) blocks
// only a->b (one-way partition). Blocked messages are counted and
// dropped at send time; messages addressed to an unregistered (crashed)
// node are dropped at delivery time, mirroring a dead peer whose packets
// vanish after the switch.
//
// Faults follow the same declarative spec idiom as io/FaultSchedule:
// NetFaultSchedule::Parse("drop_rate=0.1;dup_rate=0.1;...") so chaos
// configurations stay printable, diffable, and seeded.

#ifndef FASEA_NET_NETWORK_H_
#define FASEA_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/envelope.h"
#include "obs/metrics.h"
#include "rng/pcg64.h"

namespace fasea {

/// Declarative network-fault configuration ("drop_rate=0.1;dup_rate=0.05;
/// reorder_rate=0.1;delay_ticks=2;jitter_ticks=3;seed=7"). All rates are
/// probabilities in [0, 1]; delays are logical ticks.
struct NetFaultSchedule {
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double reorder_rate = 0.0;
  std::int64_t delay_ticks = 0;
  std::int64_t jitter_ticks = 0;
  std::uint64_t seed = 0;

  /// True when any fault can fire.
  bool Armed() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || reorder_rate > 0.0 ||
           delay_ticks > 0 || jitter_ticks > 0;
  }

  static StatusOr<NetFaultSchedule> Parse(std::string_view spec);
  std::string ToString() const;
};

struct NetworkStats {
  std::int64_t sent = 0;             // Envelopes handed to Send.
  std::int64_t delivered = 0;        // Handler invocations.
  std::int64_t dropped = 0;          // Fault-schedule drops.
  std::int64_t duplicated = 0;       // Extra copies enqueued.
  std::int64_t reordered = 0;        // Messages given overtaking skew.
  std::int64_t partition_drops = 0;  // Blocked-link drops.
  std::int64_t dead_node_drops = 0;  // Delivered to an unregistered node.
  std::int64_t decode_failures = 0;  // Wire bytes that failed to decode.
};

class SimulatedNetwork {
 public:
  /// Receives each delivered envelope by value, freshly decoded, so a
  /// handler may move its body out instead of copying it.
  using Handler = std::function<void(Envelope)>;

  explicit SimulatedNetwork(std::uint64_t seed = 1);

  /// Installs (or replaces) the delivery handler for `node`. A node with
  /// no handler is "down": messages addressed to it vanish.
  void RegisterHandler(int node, Handler handler);
  void UnregisterNode(int node);
  bool NodeRegistered(int node) const;

  /// Arms / replaces the fault schedule. The schedule's own seed (when
  /// non-zero) reseeds the fault dice so a re-armed schedule replays
  /// identically regardless of prior traffic.
  void ApplySchedule(const NetFaultSchedule& schedule);
  void DisarmFaults();

  /// Blocks every link to and from `node` (full partition).
  void PartitionNode(int node);
  /// Blocks only src->dst (one-way partition).
  void BlockLink(int src, int dst);
  /// Unblocks every link touching `node`.
  void HealNode(int node);
  void HealAll();

  /// Encodes and enqueues `envelope` toward `envelope.dst`, applying
  /// partitions and the armed fault schedule. Never fails: lost
  /// messages are a normal network outcome, visible only in stats().
  void Send(const Envelope& envelope);

  /// Delivers every message due at the current tick, in deterministic
  /// (deliver_at, sequence) order. Handlers run outside the network
  /// lock and may Send (responses); newly due messages are picked up by
  /// the next Pump. Returns the number of deliveries.
  int Pump();

  /// Advances the clock `ticks` steps, pumping after each. Returns
  /// total deliveries.
  int PumpFor(std::int64_t ticks);

  /// True when no message is queued (in flight).
  bool Idle() const;

  void Tick(std::int64_t ticks = 1);
  std::int64_t now() const;

  NetworkStats stats() const;

 private:
  struct InFlight {
    std::int64_t deliver_at = 0;
    std::uint64_t seq = 0;
    int dst = 0;
    std::string bytes;
  };

  bool LinkBlockedLocked(int src, int dst) const;
  /// Queues `bytes` for `dst` under the next sequence number and returns
  /// the queued copy (valid until Pump takes it).
  const std::string& EnqueueLocked(int dst, std::string bytes,
                                   std::int64_t deliver_at);

  mutable std::mutex mu_;
  std::int64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::map<int, Handler> handlers_;
  std::multimap<std::pair<std::int64_t, std::uint64_t>, InFlight> queue_;
  std::set<int> isolated_;
  std::set<std::pair<int, int>> blocked_links_;
  NetFaultSchedule schedule_;
  Pcg64 rng_;
  NetworkStats stats_;

  Counter* sent_metric_ = Metrics()->GetCounter("fasea.net.sent");
  Counter* dropped_metric_ = Metrics()->GetCounter("fasea.net.dropped");
};

}  // namespace fasea

#endif  // FASEA_NET_NETWORK_H_
