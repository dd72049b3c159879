// perfbench: one run of one benchmark workload.
//
//   perfbench --workload batched --seed 3 --seconds 10 --trace 0
//             --scratch DIR [--spans DIR]
//
// --trace 0 measures the end-to-end metrics with no decorator and no
// span recording, over three instances derived from --seed. --trace 1
// runs the --seed instance twice for half the time each — untraced, then
// with the timing decorators and spans on — and reports the per-layer
// metrics of the traced half, its overhead against the untraced half,
// and writes the spans to --spans.
//
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 only when every sanity check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "rng/seed.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every value is reported for every workload; keep in sync with
// BENCHMARK.json (run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"rounds_per_s", "1/s"},     {"serve_p50_us", "us"},
    {"serve_p99_us", "us"},      {"feedback_p50_us", "us"},
    {"feedback_p99_us", "us"},   {"round_p50_us", "us"},
    {"round_p99_us", "us"},      {"accept_ratio", "frac"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.score_us_per_user", "us"},
    {"core.snapshot_us", "us"},
    {"core.propose_us", "us"},
    {"core.learn_us", "us"},
    {"core.rescored_frac", "frac"},
    {"core.refactorizations_per_kround", "count"},
    {"oracle.select_us_per_user", "us"},
    {"model.cache_hit_rate", "frac"},
    {"model.cache_evictions_per_round", "count"},
    {"ebsn.batch_size_mean", "users"},
    {"ebsn.batch_wait_mean_us", "us"},
    {"ebsn.rejected_calls", "count"},
    {"ebsn.cross_shard_frac", "frac"},
    {"ebsn.reservations_per_round", "count"},
    {"ebsn.refusals_per_round", "count"},
    {"ebsn.participants_per_round", "count"},
    {"io.appends_per_round", "count"},
    {"io.append_us_per_round", "us"},
    {"io.bytes_per_round", "bytes"},
    {"obs.decision_records_per_round", "count"},
    {"obs.decision_bytes_per_round", "bytes"},
    {"net.messages_per_round", "count"},
    {"net.pump_us_per_round", "us"},
    {"net.retries", "count"},
    {"net.timeouts", "count"},
    {"bench.trace_overhead_frac", "frac"},
    {"ebsn.self_us_per_round", "us"},
    {"core.self_us_per_round", "us"},
    {"oracle.self_us_per_round", "us"},
    {"model.self_us_per_round", "us"},
    {"io.self_us_per_round", "us"},
    {"obs.self_us_per_round", "us"},
    {"net.self_us_per_round", "us"},
};

// An untraced run serves this many instances derived from --seed, one
// after another, each for an equal share of --seconds, so the
// seed-to-seed spread of a single instance (its θ, conflict graph and
// contexts) is averaged within the run.
constexpr int kInstances = 3;
// A p99 is reported only when at least ten samples lie beyond it.
constexpr std::size_t kMinSamples = 1000;
// The measured phase is cut into equal windows of kMinSamples rounds on
// average (at most kMaxWindows); every end-to-end rate and percentile is
// the median of its per-window values, so a short stall elsewhere on the
// host moves one window, not the result. At 30 windows a lazy-scale
// window still holds ~3000 rounds, ~30 of them beyond its p99.
constexpr std::size_t kMaxWindows = 30;
// Span records kept for the span file (self time is exact past it).
constexpr std::size_t kMaxSpanRecords = 200'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string scratch;
  std::string spans;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--spans DIR]\n",
               message);
  return 2;
}

using RunFn = WorkloadResult (*)(const RunOptions&);

RunFn FindWorkload(const std::string& name) {
  if (name == "batched") return RunBatched;
  if (name == "sharded-wire") return RunShardedWire;
  if (name == "lazy-scale") return RunLazyScale;
  return nullptr;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void PrintNotes(const char* phase, const WorkloadResult& r) {
  std::printf("[%s] rounds %lld in %.3f s, calls %lld, failed %lld "
              "(failed_frac %.6f), setup_s %.6f\n",
              phase, static_cast<long long>(r.samples.round_ns.size()),
              r.measured_s,
              static_cast<long long>(r.samples.attempted),
              static_cast<long long>(r.samples.failed),
              r.samples.attempted > 0
                  ? static_cast<double>(r.samples.failed) /
                        static_cast<double>(r.samples.attempted)
                  : 0.0,
              Median(r.setup_s));
  for (const std::string& note : r.notes) {
    std::printf("[%s] %s\n", phase, note.c_str());
  }
  for (const std::string& failure : r.failures) {
    std::printf("[%s] CHECK FAILED: %s\n", phase, failure.c_str());
  }
}

/// End-to-end rates and percentiles as medians over windows of the
/// measured phase (by arrival time).
struct Windowed {
  std::size_t windows = 0;
  double rounds_per_s = 0, serve_p50 = 0, serve_p99 = 0, feedback_p50 = 0,
         feedback_p99 = 0, round_p50 = 0, round_p99 = 0;
};

Windowed WindowMedians(const Samples& s, double seconds) {
  Windowed out;
  out.windows = std::clamp<std::size_t>(s.at_ns.size() / kMinSamples, 1,
                                        kMaxWindows);
  const std::size_t w = out.windows;
  const double window_ns = seconds * 1e9 / static_cast<double>(w);
  std::vector<std::vector<std::int64_t>> serve(w), feedback(w), round(w);
  std::vector<std::int64_t> last_ack(w, 0);
  for (std::size_t i = 0; i < s.at_ns.size(); ++i) {
    const std::size_t k = std::min<std::size_t>(
        w - 1, static_cast<std::size_t>(static_cast<double>(s.at_ns[i]) /
                                        window_ns));
    last_ack[k] = std::max(last_ack[k], s.at_ns[i] + s.round_ns[i]);
    serve[k].push_back(s.serve_ns[i]);
    feedback[k].push_back(s.feedback_ns[i]);
    round[k].push_back(s.round_ns[i]);
  }
  std::vector<double> rate, s50, s99, f50, f99, r50, r99;
  for (std::size_t k = 0; k < w; ++k) {
    // Rounds that arrived in the window over the time from its start to
    // their last ack.
    const double span_ns =
        static_cast<double>(last_ack[k]) - window_ns * static_cast<double>(k);
    rate.push_back(span_ns > 0 ? static_cast<double>(round[k].size()) /
                                     (span_ns / 1e9)
                               : 0.0);
    s50.push_back(PercentileUs(serve[k], 50));
    s99.push_back(PercentileUs(serve[k], 99));
    f50.push_back(PercentileUs(feedback[k], 50));
    f99.push_back(PercentileUs(feedback[k], 99));
    r50.push_back(PercentileUs(round[k], 50));
    r99.push_back(PercentileUs(round[k], 99));
  }
  out.rounds_per_s = Median(rate);
  out.serve_p50 = Median(s50);
  out.serve_p99 = Median(s99);
  out.feedback_p50 = Median(f50);
  out.feedback_p99 = Median(f99);
  out.round_p50 = Median(r50);
  out.round_p99 = Median(r99);
  return out;
}

void CheckSampleCounts(const WorkloadResult& r,
                       std::vector<std::string>* failures) {
  for (const auto* v :
       {&r.samples.serve_ns, &r.samples.feedback_ns, &r.samples.round_ns}) {
    if (v->size() < kMinSamples) {
      failures->push_back("only " + std::to_string(v->size()) +
                          " latency samples; a p99 needs " +
                          std::to_string(kMinSamples));
      return;
    }
  }
}

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<std::pair<const MetricDef*, double>>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", values[i].first->name, values[i].second,
                values[i].first->unit);
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
      have_trace = true;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const RunFn run = FindWorkload(args.workload);
  if (run == nullptr) return Usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1) || args.scratch.empty()) {
    return Usage("--seed, --seconds > 0, --trace 0|1 and --scratch are "
                 "required");
  }
  std::filesystem::create_directories(args.scratch);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("host nproc=%u build=%s native_arch=%d compiler=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_NATIVE_ARCH, PERFBENCH_COMPILER);

  RunOptions options;
  options.seed = args.seed;
  options.scratch_dir = args.scratch;

  if (args.trace == 0) {
    WorkloadResult r;
    const double part = args.seconds / kInstances;
    for (int k = 0; k < kInstances; ++k) {
      options.seed = fasea::DeriveSeed(args.seed, "perfbench-instance",
                                       static_cast<std::uint64_t>(k));
      options.seconds = part;
      options.scratch_dir = args.scratch + "/instance-" + std::to_string(k);
      std::filesystem::create_directories(options.scratch_dir);
      WorkloadResult one = run(options);
      // Lay the instances end to end on one measured time line.
      const auto offset = static_cast<std::int64_t>(k * part * 1e9);
      for (std::int64_t& at : one.samples.at_ns) at += offset;
      r.samples.Merge(one.samples);
      r.measured_s += one.measured_s;
      r.setup_s.insert(r.setup_s.end(), one.setup_s.begin(),
                       one.setup_s.end());
      for (std::string& note : one.notes) {
        r.notes.push_back("instance " + std::to_string(k) + ": " + note);
      }
      for (std::string& failure : one.failures) {
        r.failures.push_back("instance " + std::to_string(k) + ": " + failure);
      }
    }
    CheckSampleCounts(r, &r.failures);
    const Samples& s = r.samples;
    const Windowed win = WindowMedians(s, args.seconds);
    const std::vector<std::pair<const MetricDef*, double>> values = {
        {&kEndToEnd[0], win.rounds_per_s},
        {&kEndToEnd[1], win.serve_p50},
        {&kEndToEnd[2], win.serve_p99},
        {&kEndToEnd[3], win.feedback_p50},
        {&kEndToEnd[4], win.feedback_p99},
        {&kEndToEnd[5], win.round_p50},
        {&kEndToEnd[6], win.round_p99},
        {&kEndToEnd[7], s.arranged > 0 ? static_cast<double>(s.accepted) /
                                             static_cast<double>(s.arranged)
                                       : 0.0},
        {&kEndToEnd[8], Median(r.setup_s)},
    };
    PrintNotes("run", r);
    // Printed, not reported: on sharded-wire the peak swings by a fifth
    // from seed to seed.
    std::printf("peak_rss_mb %.1f MB\n", PeakRssMb());
    std::printf("samples %zu per series, medians over %zu windows; "
                "whole-run p99 serve %.1f feedback %.1f round %.1f us\n",
                s.round_ns.size(), win.windows, PercentileUs(s.serve_ns, 99),
                PercentileUs(s.feedback_ns, 99), PercentileUs(s.round_ns, 99));
    for (const auto& [def, value] : values) {
      std::printf("%-28s %14.4f %s\n", def->name, value, def->unit);
    }
    const bool correct = r.failures.empty();
    PrintJson(correct, s.attempted, s.failed, values);
    return correct ? 0 : 1;
  }

  // Traced: an untraced half for the overhead base, then the traced half.
  options.seconds = args.seconds / 2;
  options.warmup_s = std::min(options.warmup_s, args.seconds / 4);
  for (const char* half : {"untraced", "traced"}) {
    std::filesystem::create_directories(args.scratch + "/" + half);
  }
  options.scratch_dir = args.scratch + "/untraced";
  WorkloadResult base = run(options);
  options.scratch_dir = args.scratch + "/traced";
  options.traced = true;
  EnableTracing(kMaxSpanRecords);
  WorkloadResult traced = run(options);
  DisableTracing();
  const double base_rate =
      WindowMedians(base.samples, options.seconds).rounds_per_s;
  traced.layer["bench.trace_overhead_frac"] =
      base_rate > 0
          ? 1.0 - WindowMedians(traced.samples, options.seconds).rounds_per_s /
                      base_rate
          : 0.0;
  PrintNotes("untraced", base);
  PrintNotes("traced", traced);
  if (!args.spans.empty()) {
    std::filesystem::create_directories(args.spans);
    // One file per workload, replaced by its latest traced run.
    const std::string path = args.spans + "/" + args.workload + ".tsv";
    std::int64_t dropped = 0;
    const std::int64_t written = WriteSpans(path, &dropped);
    std::printf("spans: %lld written to %s, %lld past the budget\n",
                static_cast<long long>(written), path.c_str(),
                static_cast<long long>(dropped));
    if (written < 0) traced.failures.push_back("writing spans failed");
  }
  std::vector<std::pair<const MetricDef*, double>> values;
  for (const MetricDef& def : kPerLayer) {
    const auto it = traced.layer.find(def.name);
    values.emplace_back(&def, it == traced.layer.end() ? 0.0 : it->second);
    std::printf("%-34s %14.4f %s\n", def.name, values.back().second, def.unit);
  }
  const bool correct = base.failures.empty() && traced.failures.empty();
  PrintJson(correct, base.samples.attempted + traced.samples.attempted,
            base.samples.failed + traced.samples.failed, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
