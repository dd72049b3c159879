#include "net/server.h"

#include <optional>
#include <utility>

#include "common/strings.h"

namespace fasea {

ShardServer::ShardServer(SimulatedNetwork* net, int node,
                         ShardServerOptions options)
    : net_(net), node_(node), options_(options) {
  net_->RegisterHandler(node_,
                        [this](Envelope request) { Dispatch(request); });
}

ShardServer::~ShardServer() { net_->UnregisterNode(node_); }

void ShardServer::Handle(MessageKind kind, Method method) {
  std::lock_guard<std::mutex> lock(mu_);
  methods_[kind] = std::move(method);
}

std::int64_t ShardServer::dup_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dup_suppressed_;
}

std::int64_t ShardServer::requests_served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_served_;
}

void ShardServer::Dispatch(const Envelope& request) {
  if (request.response) return;  // Servers only consume requests.

  const RequestKey key{request.src, request.request_id};
  Method method;
  std::optional<Envelope> replay;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto cached = replay_cache_.find(key);
    if (cached != replay_cache_.end()) {
      ++dup_suppressed_;
      dup_suppressed_metric_->Increment();
      replay = cached->second;  // Addressed to request.src already.
    } else {
      auto it = methods_.find(request.kind);
      if (it != methods_.end()) method = it->second;
    }
  }
  if (replay.has_value()) {
    net_->Send(*replay);
    return;
  }

  Envelope response;
  if (!method) {
    response = MakeResponse(
        request,
        UnimplementedError(StrFormat("node %d has no method for %s", node_,
                                     MessageKindName(request.kind))),
        "");
  } else {
    StatusOr<std::string> body = method(request);
    response = body.ok() ? MakeResponse(request, Status::Ok(),
                                        std::move(body.value()))
                         : MakeResponse(request, body.status(), "");
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_served_;
    replay_cache_[key] = response;
    replay_order_.push_back(key);
    while (replay_order_.size() > options_.replay_cache_capacity) {
      replay_cache_.erase(replay_order_.front());
      replay_order_.pop_front();
    }
  }
  net_->Send(response);
}

}  // namespace fasea
