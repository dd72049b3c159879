// ShardClient: synchronous call stub over the simulated network.
//
// Call() assigns one 64-bit request id per logical call and drives the
// network (Pump + Tick) until the matching response arrives or the
// attempt times out. Timed-out attempts are retried with the SAME
// request id under a RetryPolicy (decorrelated-jitter backoff, bounded
// attempts), so the server's replay cache — not re-execution — answers a
// retry whose original did run. The overall call is bounded by a
// Deadline expressed on the network's logical clock: backoff never
// sleeps past it and an expired deadline fails the call with
// kDeadlineExceeded.
//
// Error responses from the server are returned to the caller as-is (the
// upper layer owns application-level retries); only transport silence
// (no response inside attempt_timeout_ticks) is retried here.

#ifndef FASEA_NET_CLIENT_H_
#define FASEA_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/deadline.h"
#include "common/retry.h"
#include "common/status.h"
#include "net/envelope.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace fasea {

struct ShardClientOptions {
  /// Ticks to wait for a response before declaring one attempt lost.
  std::int64_t attempt_timeout_ticks = 16;
  /// Default per-call budget (logical ticks) when the caller passes no
  /// deadline.
  std::int64_t call_timeout_ticks = 160;
  /// Backoff/attempt budget between retries of one call.
  RetryOptions retry;
  std::uint64_t seed = 1;

  ShardClientOptions() {
    retry.max_attempts = 8;
    // Backoff "nanos" are interpreted as logical ticks by the client.
    retry.initial_backoff_ns = 1;
    retry.max_backoff_ns = 4;
  }
};

class ShardClient {
 public:
  /// Registers `node` on `net` as the response sink for this client.
  /// The client unregisters itself on destruction.
  ShardClient(SimulatedNetwork* net, int node, ShardClientOptions options);
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// One logical request/response exchange with node `dst`. `deadline`
  /// is interpreted against the network's logical clock (build it with
  /// Deadline::AtNanos(net->now() + budget_ticks), or pass
  /// Deadline::Infinite() to fall back to call_timeout_ticks).
  StatusOr<Envelope> Call(MessageKind kind, int dst, std::uint64_t txn,
                          std::uint64_t trace_id, std::string body,
                          const Deadline& deadline = Deadline::Infinite());

  int node() const { return node_; }
  std::int64_t timeouts() const;
  std::int64_t retries() const;

 private:
  void OnDelivery(Envelope envelope);

  SimulatedNetwork* const net_;
  const int node_;
  const ShardClientOptions options_;
  RetryPolicy retry_policy_;

  mutable std::mutex mu_;
  std::uint64_t next_request_id_;
  /// Awaited calls: request id -> response slot. A response with no
  /// slot (stale duplicate of a finished call) is dropped.
  std::map<std::uint64_t, std::optional<Envelope>> awaiting_;
  std::int64_t timeouts_ = 0;
  std::int64_t retries_ = 0;

  Counter* timeouts_metric_ = Metrics()->GetCounter("fasea.net.timeouts");
  Counter* retries_metric_ = Metrics()->GetCounter("fasea.net.retries");
};

}  // namespace fasea

#endif  // FASEA_NET_CLIENT_H_
