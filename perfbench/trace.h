// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark around its calls into each library
// layer (and by the timing decorators in timing_env.h, which the library
// calls back into). Each thread keeps a stack of open spans, so a span
// knows its parent and, on close, how much of its interval its children
// covered: a layer's self time is its spans' durations minus their
// children's. Self time accumulates for every span; the span records
// themselves are kept up to a fixed budget and written out at the end.
//
// With tracing disabled (the default) a Span costs one relaxed atomic
// load and records nothing, so untraced runs measure the library alone.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

/// The library modules the benchmark attributes time to.
enum class Layer { kEbsn, kCore, kOracle, kModel, kIo, kObs, kNet };
inline constexpr int kNumLayers = 7;
const char* LayerName(Layer layer);

using LayerNanos = std::array<std::int64_t, kNumLayers>;

/// Starts recording: clears all totals and records, keeps at most
/// `max_records` span records (self time is exact regardless).
void EnableTracing(std::size_t max_records);
void DisableTracing();

/// Per-layer self time summed over every closed span so far. Call only
/// while no thread has a span open.
LayerNanos SelfNanos();
/// Clears the self-time totals (records are kept).
void ResetSelfNanos();

/// Writes every kept record as tab-separated
/// `id parent layer name round start_ns end_ns` lines (times relative to
/// EnableTracing) and returns the number written, or -1 on I/O failure.
/// `*dropped` receives the records discarded past the budget.
std::int64_t WriteSpans(const std::string& path, std::int64_t* dropped);

/// RAII span. `round` < 0 inherits the enclosing span's round id.
class Span {
 public:
  Span(Layer layer, const char* name, std::int64_t round = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
