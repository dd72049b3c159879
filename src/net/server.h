// ShardServer: per-node request dispatcher with idempotent replay cache.
//
// A server owns one node id on a SimulatedNetwork and dispatches incoming
// request envelopes to per-kind methods. Every produced response is
// remembered in a bounded FIFO replay cache keyed by (source node,
// request id): when a client's retry of an already-executed request
// arrives (its response was lost, delayed, or duplicated), the cached
// response is re-sent without re-invoking the method. This is what makes
// a retried RESERVE safe — the seat is reserved exactly once no matter
// how many copies of the request the network delivers. Request ids are
// unique per client only (two clients built with the same seed draw the
// same ids), hence the source node in the key.
//
// Methods run inline on the Pump thread and must not issue nested
// transport calls (the protocol is strictly client -> server).

#ifndef FASEA_NET_SERVER_H_
#define FASEA_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"
#include "net/envelope.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace fasea {

struct ShardServerOptions {
  /// Responses remembered for request-id dedup. Old entries fall off
  /// FIFO; a retry older than the window re-executes, so the window
  /// must exceed the client's retry horizon (it comfortably does: the
  /// horizon is a handful of in-flight calls).
  std::size_t replay_cache_capacity = 4096;
};

class ShardServer {
 public:
  /// A method consumes a request and returns the response body, or an
  /// error status to be relayed to the client.
  using Method = std::function<StatusOr<std::string>(const Envelope&)>;

  /// Registers this server as `node`'s handler on `net`. The server
  /// unregisters itself on destruction.
  ShardServer(SimulatedNetwork* net, int node,
              ShardServerOptions options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Installs the method for `kind`. Requests of a kind with no method
  /// are answered with kUnimplemented.
  void Handle(MessageKind kind, Method method);

  int node() const { return node_; }
  std::int64_t dup_suppressed() const;
  std::int64_t requests_served() const;

 private:
  void Dispatch(const Envelope& request);

  using RequestKey = std::pair<int, std::uint64_t>;  // (src, request id).

  SimulatedNetwork* const net_;
  const int node_;
  const ShardServerOptions options_;

  mutable std::mutex mu_;
  std::map<MessageKind, Method> methods_;
  std::map<RequestKey, Envelope> replay_cache_;
  std::deque<RequestKey> replay_order_;
  std::int64_t dup_suppressed_ = 0;
  std::int64_t requests_served_ = 0;

  Counter* dup_suppressed_metric_ =
      Metrics()->GetCounter("fasea.net.dup_suppressed");
};

}  // namespace fasea

#endif  // FASEA_NET_SERVER_H_
