#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

struct OpenSpan {
  const char* name;
  Layer layer;
  std::int64_t start_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t round;
  std::int64_t child_ns;
};

struct Record {
  const char* name;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t round;
};

struct ThreadState {
  std::vector<OpenSpan> stack;
  std::vector<Record> records;
  LayerNanos self{};
};

// Thread states are owned here and never freed, so the thread_local
// pointer into them stays valid for the life of the process even across
// EnableTracing resets.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> threads;
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::int64_t> kept{0};
  std::atomic<std::int64_t> dropped{0};
  std::int64_t max_records = 0;
  std::int64_t epoch_ns = 0;
};

Registry& Reg() {
  static Registry registry;
  return registry;
}

ThreadState& Local() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadState>());
    state = reg.threads.back().get();
  }
  return *state;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEbsn: return "ebsn";
    case Layer::kCore: return "core";
    case Layer::kOracle: return "oracle";
    case Layer::kModel: return "model";
    case Layer::kIo: return "io";
    case Layer::kObs: return "obs";
    case Layer::kNet: return "net";
  }
  return "?";
}

void EnableTracing(std::size_t max_records) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& t : reg.threads) {
    t->records.clear();
    t->self = {};
  }
  reg.kept = 0;
  reg.dropped = 0;
  reg.max_records = static_cast<std::int64_t>(max_records);
  reg.epoch_ns = NowNs();
  reg.enabled.store(true, std::memory_order_release);
}

void DisableTracing() {
  Reg().enabled.store(false, std::memory_order_release);
}

LayerNanos SelfNanos() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  LayerNanos total{};
  for (const auto& t : reg.threads) {
    for (int l = 0; l < kNumLayers; ++l) total[l] += t->self[l];
  }
  return total;
}

void ResetSelfNanos() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& t : reg.threads) t->self = {};
}

std::int64_t WriteSpans(const std::string& path, std::int64_t* dropped) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  *dropped = reg.dropped.load();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fprintf(f, "id\tparent\tlayer\tname\tround\tstart_ns\tend_ns\n");
  std::int64_t written = 0;
  for (const auto& t : reg.threads) {
    for (const Record& r : t->records) {
      std::fprintf(f, "%llu\t%llu\t%s\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   LayerName(r.layer), r.name,
                   static_cast<long long>(r.round),
                   static_cast<long long>(r.start_ns - reg.epoch_ns),
                   static_cast<long long>(r.end_ns - reg.epoch_ns));
      ++written;
    }
  }
  return std::fclose(f) == 0 ? written : -1;
}

Span::Span(Layer layer, const char* name, std::int64_t round) {
  Registry& reg = Reg();
  if (!reg.enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  ThreadState& s = Local();
  const std::uint64_t parent = s.stack.empty() ? 0 : s.stack.back().id;
  if (round < 0) round = s.stack.empty() ? 0 : s.stack.back().round;
  s.stack.push_back(OpenSpan{name, layer, NowNs(),
                             reg.next_id.fetch_add(1, std::memory_order_relaxed),
                             parent, round, 0});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = NowNs();
  Registry& reg = Reg();
  ThreadState& s = Local();
  const OpenSpan open = s.stack.back();
  s.stack.pop_back();
  const std::int64_t duration = end - open.start_ns;
  s.self[static_cast<int>(open.layer)] += duration - open.child_ns;
  if (!s.stack.empty()) s.stack.back().child_ns += duration;
  if (reg.kept.fetch_add(1, std::memory_order_relaxed) < reg.max_records) {
    s.records.push_back(Record{open.name, open.layer, open.start_ns, end,
                               open.id, open.parent, open.round});
  } else {
    reg.dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
