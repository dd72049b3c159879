#include "net/client.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "rng/seed.h"

namespace fasea {

ShardClient::ShardClient(SimulatedNetwork* net, int node,
                         ShardClientOptions options)
    : net_(net),
      node_(node),
      options_(options),
      retry_policy_(options.retry, DeriveSeed(options.seed, "shard-client")),
      next_request_id_(DeriveSeed(options.seed, "request-id") | 1ULL) {
  net_->RegisterHandler(node_, [this](Envelope envelope) {
    OnDelivery(std::move(envelope));
  });
}

ShardClient::~ShardClient() { net_->UnregisterNode(node_); }

std::int64_t ShardClient::timeouts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timeouts_;
}

std::int64_t ShardClient::retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retries_;
}

void ShardClient::OnDelivery(Envelope envelope) {
  if (!envelope.response) return;  // Clients only consume responses.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = awaiting_.find(envelope.request_id);
  // A missing slot is a stale duplicate of a call that already finished;
  // a filled slot is a duplicate of the response itself. Keep the first.
  if (it == awaiting_.end() || it->second.has_value()) return;
  it->second = std::move(envelope);
}

StatusOr<Envelope> ShardClient::Call(MessageKind kind, int dst,
                                     std::uint64_t txn,
                                     std::uint64_t trace_id, std::string body,
                                     const Deadline& deadline) {
  Envelope request;
  request.kind = kind;
  request.response = false;
  request.src = node_;
  request.dst = dst;
  request.txn = txn;
  request.trace_id = trace_id;
  request.body = std::move(body);

  Deadline call_deadline = deadline;
  if (call_deadline.infinite()) {
    call_deadline =
        Deadline::AtNanos(net_->now() + options_.call_timeout_ticks);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    request.request_id = next_request_id_++;
    awaiting_[request.request_id] = std::nullopt;
  }

  // Ensure the awaiting slot is reclaimed on every exit path.
  const auto finish = [&](StatusOr<Envelope> result) {
    std::lock_guard<std::mutex> lock(mu_);
    awaiting_.erase(request.request_id);
    return result;
  };

  retry_policy_.Reset();
  for (;;) {
    net_->Send(request);
    const std::int64_t attempt_start = net_->now();
    std::optional<Envelope> response;
    for (;;) {
      net_->Pump();
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = awaiting_.find(request.request_id);
        if (it != awaiting_.end() && it->second.has_value()) {
          // The slot stays filled (a later duplicate is still dropped)
          // until finish() erases it.
          response = std::move(it->second);
        }
      }
      if (response.has_value()) break;
      if (net_->now() - attempt_start >= options_.attempt_timeout_ticks) break;
      net_->Tick();
    }
    if (response.has_value()) {
      return finish(std::move(*response));
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      ++timeouts_;
    }
    timeouts_metric_->Increment();
    const Status timeout = UnavailableError(StrFormat(
        "%s to node %d timed out after %lld ticks", MessageKindName(kind),
        dst, static_cast<long long>(options_.attempt_timeout_ticks)));
    // The attempt/backoff budget comes from RetryPolicy; the wall
    // deadline lives on the network's logical clock, so it is checked
    // here with ExpiredAt rather than inside ShouldRetry.
    if (!retry_policy_.ShouldRetry(timeout)) {
      return finish(timeout);
    }
    if (call_deadline.ExpiredAt(net_->now())) {
      return finish(DeadlineExceededError(StrFormat(
          "%s to node %d: call deadline expired after %d attempts",
          MessageKindName(kind), dst, retry_policy_.attempts())));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++retries_;
    }
    retries_metric_->Increment();
    // Backoff in logical ticks, clamped so the retry fires before the
    // deadline rather than oversleeping past it.
    std::int64_t backoff_ticks = retry_policy_.NextDelayNanos();
    const std::int64_t remaining =
        call_deadline.RemainingAtNanos(net_->now());
    backoff_ticks = std::max<std::int64_t>(
        0, std::min(backoff_ticks, remaining));
    net_->PumpFor(backoff_ticks);
  }
}

}  // namespace fasea
