// Shared types of the benchmark's workloads: run options, raw latency
// samples, sanity checks and the per-workload result perfbench.cc prints.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-up repetitions per workload run; the reported setup_s is the
/// median over every set-up of the benchmark run.
inline constexpr int kSetups = 5;

/// One measured run of one workload.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;   // Measured phase.
  double warmup_s = 1.0;   // Served before measurement, not reported.
  bool traced = false;     // Decorators + spans on (per-layer numbers).
  std::string scratch_dir; // Private directory for WAL and log files.
};

/// Raw client-side samples, one entry per measured round whose calls all
/// succeeded (a refused or failed call is counted in `failed` and is
/// never a latency sample).
struct Samples {
  std::vector<std::int64_t> at_ns;  // Arrival, from the measured start.
  std::vector<std::int64_t> serve_ns;
  std::vector<std::int64_t> feedback_ns;
  std::vector<std::int64_t> round_ns;
  std::int64_t attempted = 0;  // Public calls made (serve + feedback).
  std::int64_t failed = 0;     // Calls that returned non-OK.
  std::int64_t accepted = 0;   // Accepted events over measured rounds.
  std::int64_t arranged = 0;   // Arranged events over measured rounds.

  void Add(std::int64_t at, std::int64_t serve, std::int64_t feedback,
           std::int64_t round) {
    at_ns.push_back(at);
    serve_ns.push_back(serve);
    feedback_ns.push_back(feedback);
    round_ns.push_back(round);
  }

  void Merge(const Samples& other) {
    at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
    serve_ns.insert(serve_ns.end(), other.serve_ns.begin(),
                    other.serve_ns.end());
    feedback_ns.insert(feedback_ns.end(), other.feedback_ns.begin(),
                       other.feedback_ns.end());
    round_ns.insert(round_ns.end(), other.round_ns.begin(),
                    other.round_ns.end());
    attempted += other.attempted;
    failed += other.failed;
    accepted += other.accepted;
    arranged += other.arranged;
  }
};

/// Nearest-rank percentile of raw samples, in microseconds (0 if empty).
inline double PercentileUs(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Arranged events per round over the first and the last fifth of the
/// measured rounds (in completion order): a drop means events are
/// running out of seats and the workload is no longer steady. The 0.8
/// margin is several standard errors of a fifth's mean at 1000 rounds.
inline void CheckArrangedSteady(const std::vector<std::int32_t>& sizes,
                           std::vector<std::string>* failures) {
  const std::size_t fifth = sizes.size() / 5;
  if (fifth == 0) {
    failures->push_back("too few measured rounds for the seat check");
    return;
  }
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < fifth; ++i) {
    early += sizes[i];
    late += sizes[sizes.size() - 1 - i];
  }
  if (late < 0.8 * early) {
    failures->push_back("arranged events per round fell from " +
                        std::to_string(early / fifth) + " to " +
                        std::to_string(late / fifth) +
                        " (events running out of seats)");
  }
}

/// What one workload run produced.
struct WorkloadResult {
  Samples samples;
  double measured_s = 0.0;        // Wall time of the measured phase.
  std::vector<double> setup_s;    // Seconds of each set-up.
  std::vector<std::string> failures;  // Sanity checks that failed.
  /// Per-layer metrics by name (traced runs); absent means 0.
  std::map<std::string, double> layer;
  std::vector<std::string> notes;  // Extra human-readable lines.
};

/// Adds `<layer>.self_us_per_round` for every layer from the span self
/// time recorded since the last ResetSelfNanos().
inline void AddSelfTimes(double rounds, std::map<std::string, double>* layer) {
  const LayerNanos self = SelfNanos();
  for (int l = 0; l < kNumLayers; ++l) {
    (*layer)[std::string(LayerName(static_cast<Layer>(l))) +
             ".self_us_per_round"] = static_cast<double>(self[l]) / 1e3 / rounds;
  }
}

WorkloadResult RunBatched(const RunOptions& options);
WorkloadResult RunShardedWire(const RunOptions& options);
WorkloadResult RunLazyScale(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
