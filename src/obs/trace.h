// Lightweight hot-path tracing: RAII spans recorded into a fixed-size
// in-memory ring, so the last N serve/feedback rounds can always be
// dumped with per-stage timings (context ingest → policy score → oracle
// greedy → WAL append → fsync) without any tracing daemon.
//
// A TraceSpan costs two steady-clock reads plus one short mutex-guarded
// ring write at destruction; with -DFASEA_DISABLE_METRICS it compiles to
// nothing. Spans carry a `round` id (the service/simulator round they
// belong to) so dumps can group stages by round; spans outside any round
// use round 0.
//
// The ring keeps only completed spans and overwrites the oldest once
// full — it is a flight recorder, not a log.
#ifndef FASEA_OBS_TRACE_H_
#define FASEA_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace fasea {

/// One completed span. `name` must be a string with static storage
/// duration (a literal): the ring stores the pointer, not a copy.
struct TraceEvent {
  const char* name = "";
  std::int64_t round = 0;
  std::int64_t start_ns = 0;     // Steady-clock timestamp.
  std::int64_t duration_ns = 0;
  /// Distributed-trace correlation id (0 = none). The sharded serving
  /// layer derives it deterministically from the transaction id, so spans
  /// recorded on different shards for the same cross-shard arrangement
  /// share one id and DumpTransactionTimeline can stitch them together.
  std::uint64_t trace_id = 0;
};

class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TraceRing(std::size_t capacity = kDefaultCapacity);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Record(const TraceEvent& event);

  /// Retained events, oldest first.
  std::vector<TraceEvent> Events() const;

  /// Drops every retained span.
  void Clear();

  std::size_t capacity() const { return capacity_; }
  /// Total spans ever recorded (≥ retained count once the ring wraps).
  std::int64_t total_recorded() const;

  /// Human-readable per-round stage timings for the `last_rounds`
  /// highest round ids still in the ring (0 = everything retained).
  /// Stage start offsets are relative to the round's first span.
  std::string DumpText(std::size_t last_rounds = 0) const;

  /// JSON array [{"name":...,"round":...,"start_ns":...,
  /// "duration_ns":...,"trace_id":...}, ...], same filtering as DumpText.
  std::string ToJson(std::size_t last_rounds = 0) const;

  /// Cross-shard transaction timelines: spans carrying a non-zero
  /// trace_id, grouped by trace id in first-seen order, each span's start
  /// offset relative to the transaction's first span — one dump
  /// reconstructs the full reserve/commit path of every retained
  /// cross-shard arrangement.
  std::string DumpTransactionTimeline() const;

  /// The process-wide flight recorder used by production spans.
  static TraceRing* Global();

 private:
  /// Events, oldest first, restricted to the last `last_rounds` rounds.
  std::vector<TraceEvent> FilteredEvents(std::size_t last_rounds) const;

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> slots_;
  std::size_t next_ = 0;          // Ring cursor once `slots_` is full.
  std::int64_t total_ = 0;
};

/// RAII span: times its scope and records into a ring (and optionally a
/// latency histogram — one scope feeding both the flight recorder and
/// the percentile metrics).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t round = 0,
                     TraceRing* ring = TraceRing::Global(),
                     Histogram* histogram = nullptr,
                     std::uint64_t trace_id = 0)
      : name_(name),
        round_(round),
        trace_id_(trace_id),
        ring_(ring),
        histogram_(histogram) {
    if constexpr (kMetricsEnabled) start_ns_ = Stopwatch::NowNanos();
  }

  ~TraceSpan() {
    if constexpr (kMetricsEnabled) {
      const std::int64_t duration = Stopwatch::NowNanos() - start_ns_;
      if (ring_ != nullptr) {
        ring_->Record(
            TraceEvent{name_, round_, start_ns_, duration, trace_id_});
      }
      if (histogram_ != nullptr) histogram_->Record(duration);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Sets the histogram the duration goes to on exit (nullptr: the ring
  /// only). Lets a call record its latency only once it has succeeded.
  void set_histogram(Histogram* histogram) { histogram_ = histogram; }

 private:
  const char* name_;
  std::int64_t round_;
  std::uint64_t trace_id_;
  std::int64_t start_ns_ = 0;
  TraceRing* ring_;
  Histogram* histogram_;
};

/// Start timestamp for RecordSpanSince. Compiles to nothing (returns 0)
/// under FASEA_DISABLE_METRICS, like TraceSpan.
inline std::int64_t SpanStart() {
  if constexpr (kMetricsEnabled) return Stopwatch::NowNanos();
  return 0;
}

/// Records a completed span that started at `start_ns` (from
/// SpanStart()) into the global ring (and optionally a histogram). Use
/// this instead of a scoped TraceSpan around per-event hot loops: a
/// span object with a non-trivial destructor alive across such a loop —
/// or even the inlined recording code itself — measurably inhibits the
/// loop's optimization (up to ~20% on UCB scoring at -O2). The impl is
/// deliberately out of line so the caller pays one plain call, nothing
/// more (and none at all under FASEA_DISABLE_METRICS).
void RecordSpanSinceImpl(const char* name, std::int64_t round,
                         std::int64_t start_ns, Histogram* histogram,
                         std::uint64_t trace_id);

inline void RecordSpanSince(const char* name, std::int64_t round,
                            std::int64_t start_ns,
                            Histogram* histogram = nullptr,
                            std::uint64_t trace_id = 0) {
  if constexpr (kMetricsEnabled) {
    RecordSpanSinceImpl(name, round, start_ns, histogram, trace_id);
  }
}

}  // namespace fasea

#endif  // FASEA_OBS_TRACE_H_
