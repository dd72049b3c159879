#include "net/network.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/strings.h"
#include "rng/distributions.h"
#include "rng/seed.h"

namespace fasea {
namespace {

bool ParseDoubleStrict(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseInt64Strict(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

}  // namespace

// --- NetFaultSchedule ----------------------------------------------------

StatusOr<NetFaultSchedule> NetFaultSchedule::Parse(std::string_view spec) {
  NetFaultSchedule schedule;
  for (const std::string& raw : StrSplit(spec, ';')) {
    const std::string_view piece = StripAsciiWhitespace(raw);
    if (piece.empty()) continue;
    const std::size_t eq = piece.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError(StrFormat(
          "net fault schedule: '%s' is not a key=value pair",
          std::string(piece).c_str()));
    }
    const std::string key(StripAsciiWhitespace(piece.substr(0, eq)));
    const std::string value(StripAsciiWhitespace(piece.substr(eq + 1)));
    const auto bad = [&](const char* why) {
      return InvalidArgumentError(StrFormat(
          "net fault schedule: %s '%s' for key '%s'", why, value.c_str(),
          key.c_str()));
    };

    if (key == "drop_rate" || key == "dup_rate" || key == "reorder_rate") {
      double rate = 0.0;
      if (!ParseDoubleStrict(value, &rate) || rate < 0.0 || rate > 1.0) {
        return bad("bad probability");
      }
      if (key == "drop_rate") schedule.drop_rate = rate;
      if (key == "dup_rate") schedule.dup_rate = rate;
      if (key == "reorder_rate") schedule.reorder_rate = rate;
      continue;
    }
    std::int64_t number = 0;
    if (!ParseInt64Strict(value, &number)) return bad("bad integer");
    if (key == "seed") {
      schedule.seed = static_cast<std::uint64_t>(number);
    } else if (key == "delay_ticks") {
      if (number < 0) return bad("negative value");
      schedule.delay_ticks = number;
    } else if (key == "jitter_ticks") {
      if (number < 0) return bad("negative value");
      schedule.jitter_ticks = number;
    } else {
      return InvalidArgumentError(StrFormat(
          "net fault schedule: unknown key '%s'", key.c_str()));
    }
  }
  return schedule;
}

std::string NetFaultSchedule::ToString() const {
  std::string out;
  const auto add = [&](const std::string& piece) {
    if (!out.empty()) out += ';';
    out += piece;
  };
  if (drop_rate > 0.0) add(StrFormat("drop_rate=%g", drop_rate));
  if (dup_rate > 0.0) add(StrFormat("dup_rate=%g", dup_rate));
  if (reorder_rate > 0.0) add(StrFormat("reorder_rate=%g", reorder_rate));
  if (delay_ticks > 0) {
    add(StrFormat("delay_ticks=%lld", static_cast<long long>(delay_ticks)));
  }
  if (jitter_ticks > 0) {
    add(StrFormat("jitter_ticks=%lld", static_cast<long long>(jitter_ticks)));
  }
  if (seed != 0) {
    add(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
  }
  return out;
}

// --- SimulatedNetwork ----------------------------------------------------

SimulatedNetwork::SimulatedNetwork(std::uint64_t seed)
    : rng_(DeriveSeed(seed, "simulated-network"), 0x6e6574) {}

void SimulatedNetwork::RegisterHandler(int node, Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[node] = std::move(handler);
}

void SimulatedNetwork::UnregisterNode(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_.erase(node);
}

bool SimulatedNetwork::NodeRegistered(int node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return handlers_.count(node) != 0;
}

void SimulatedNetwork::ApplySchedule(const NetFaultSchedule& schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_ = schedule;
  if (schedule.seed != 0) {
    rng_ = Pcg64(DeriveSeed(schedule.seed, "simulated-network"), 0x6e6574);
  }
}

void SimulatedNetwork::DisarmFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_ = NetFaultSchedule{};
}

void SimulatedNetwork::PartitionNode(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.insert(node);
}

void SimulatedNetwork::BlockLink(int src, int dst) {
  std::lock_guard<std::mutex> lock(mu_);
  blocked_links_.insert({src, dst});
}

void SimulatedNetwork::HealNode(int node) {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.erase(node);
  for (auto it = blocked_links_.begin(); it != blocked_links_.end();) {
    if (it->first == node || it->second == node) {
      it = blocked_links_.erase(it);
    } else {
      ++it;
    }
  }
}

void SimulatedNetwork::HealAll() {
  std::lock_guard<std::mutex> lock(mu_);
  isolated_.clear();
  blocked_links_.clear();
}

bool SimulatedNetwork::LinkBlockedLocked(int src, int dst) const {
  if (isolated_.count(src) != 0 || isolated_.count(dst) != 0) return true;
  return blocked_links_.count({src, dst}) != 0;
}

const std::string& SimulatedNetwork::EnqueueLocked(int dst, std::string bytes,
                                                   std::int64_t deliver_at) {
  const std::uint64_t seq = next_seq_++;
  InFlight in_flight;
  in_flight.deliver_at = deliver_at;
  in_flight.seq = seq;
  in_flight.dst = dst;
  in_flight.bytes = std::move(bytes);
  return queue_.emplace(std::make_pair(deliver_at, seq), std::move(in_flight))
      ->second.bytes;
}

void SimulatedNetwork::Send(const Envelope& envelope) {
  std::string bytes = EncodeEnvelope(envelope);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.sent;
  sent_metric_->Increment();
  if (LinkBlockedLocked(envelope.src, envelope.dst)) {
    ++stats_.partition_drops;
    dropped_metric_->Increment();
    return;
  }
  if (schedule_.drop_rate > 0.0 && rng_.NextDouble() < schedule_.drop_rate) {
    ++stats_.dropped;
    dropped_metric_->Increment();
    return;
  }
  std::int64_t deliver_at = now_ + 1 + schedule_.delay_ticks;
  if (schedule_.jitter_ticks > 0) {
    deliver_at += UniformInt(rng_, 0, schedule_.jitter_ticks);
  }
  if (schedule_.reorder_rate > 0.0 &&
      rng_.NextDouble() < schedule_.reorder_rate) {
    // Reordering is modeled as extra skew on this message so messages
    // sent after it can overtake it.
    deliver_at += UniformInt(rng_, 1, 3);
    ++stats_.reordered;
  }
  // The bytes move into the queue. A duplicate copies the queued bytes
  // (multimap nodes do not move) and takes the sequence number after the
  // original's.
  const std::string& queued =
      EnqueueLocked(envelope.dst, std::move(bytes), deliver_at);
  if (schedule_.dup_rate > 0.0 && rng_.NextDouble() < schedule_.dup_rate) {
    std::int64_t dup_at = deliver_at + UniformInt(rng_, 0, 2);
    EnqueueLocked(envelope.dst, queued, dup_at);
    ++stats_.duplicated;
  }
}

int SimulatedNetwork::Pump() {
  // Collect the due batch under the lock, dispatch outside it: handlers
  // Send their responses back through this network.
  std::vector<InFlight> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto end = queue_.upper_bound(
        std::make_pair(now_, std::numeric_limits<std::uint64_t>::max()));
    for (auto it = queue_.begin(); it != end; ++it) {
      due.push_back(std::move(it->second));
    }
    queue_.erase(queue_.begin(), end);
  }
  int delivered = 0;
  for (InFlight& in_flight : due) {
    Handler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = handlers_.find(in_flight.dst);
      if (it == handlers_.end()) {
        ++stats_.dead_node_drops;
        dropped_metric_->Increment();
        continue;
      }
      handler = it->second;
    }
    StatusOr<Envelope> decoded = DecodeEnvelope(std::move(in_flight.bytes));
    if (!decoded.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.decode_failures;
      dropped_metric_->Increment();
      continue;
    }
    handler(std::move(decoded).value());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.delivered;
    }
    ++delivered;
  }
  return delivered;
}

int SimulatedNetwork::PumpFor(std::int64_t ticks) {
  int delivered = Pump();
  for (std::int64_t i = 0; i < ticks; ++i) {
    Tick();
    delivered += Pump();
  }
  return delivered;
}

bool SimulatedNetwork::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.empty();
}

void SimulatedNetwork::Tick(std::int64_t ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  now_ += ticks;
}

std::int64_t SimulatedNetwork::now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

NetworkStats SimulatedNetwork::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fasea
