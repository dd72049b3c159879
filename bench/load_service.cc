// Multi-threaded closed-loop load driver for the thread-safe serving
// path (ArrangementService::ServeUser / SubmitFeedback).
//
// N workers hammer ONE shared service: each worker serves a user, samples
// the user's feedback from the synthetic ground truth, and submits it —
// the closed loop of the online protocol. The protocol is sequential by
// definition (one pending arrangement at a time), so a worker whose
// ServeUser lands while another worker's round is mid-flight gets the
// retryable FailedPrecondition and retries; the bench therefore measures
// the serialized pipeline under contention — lock overhead, fairness,
// and the per-call latency distribution — not speedup.
//
// --batched switches the service to the snapshot-read batched protocol
// (ConfigureBatching + ServeUserBatched/SubmitBatchedFeedback): each
// worker scores its own arrival against an immutable learner snapshot
// with no round lock held, capacity resolves in ticket order, and
// workers never contend on a pending round — the concurrency the
// sequential protocol forbids.
//
// Latency percentiles come from the process metrics registry (the same
// `fasea.serve.latency_ns` / `fasea.feedback.latency_ns` histograms
// `fasea_cli stats` exports). Those histograms are process-cumulative,
// so the bench snapshots them after the --warmup phase and reports the
// measured phase's delta (HistogramSnapshot::DeltaSince) — cold-start
// rounds never pollute the percentiles. Throughput comes from a
// wall-clock stopwatch over the measured phase only.
//
//   load_service --threads=8 --rounds=20000 --warmup=2000
//   load_service --threads=8 --rounds=20000 --warmup=2000 --batched
//   load_service --threads=4 --policy=ts --wal_dir=/tmp/load_wal
//
// --shards=N routes the load through ShardedArrangementService instead
// (N=1 degenerates to the full instance, so the 1-vs-N comparison is
// apples-to-apples; --warmup/--batched apply to the unsharded path only).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/sharded_service.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "rng/seed.h"
#include "sim/cli.h"

namespace {

struct WorkerTotals {
  std::int64_t served = 0;
  std::int64_t contention_retries = 0;
  std::int64_t arranged = 0;  // Events proposed across served rounds.
  std::int64_t accepted = 0;
  std::int64_t retries_exhausted = 0;

  void Add(const WorkerTotals& other) {
    served += other.served;
    contention_retries += other.contention_retries;
    arranged += other.arranged;
    accepted += other.accepted;
    retries_exhausted += other.retries_exhausted;
  }
  /// Accepted events per arranged event (perfbench's `accept_ratio`).
  double AcceptRatio() const {
    return arranged > 0 ? static_cast<double>(accepted) /
                              static_cast<double>(arranged)
                        : 0.0;
  }
};

struct PhaseResult {
  WorkerTotals sum;
  bool aborted = false;
  double seconds = 0.0;
};

fasea::HistogramSnapshot HistogramByName(const fasea::RegistrySnapshot& snap,
                                         const char* name) {
  for (const auto& [metric, hist] : snap.histograms) {
    if (metric == name) return hist;
  }
  return fasea::HistogramSnapshot{};
}

// One closed-loop phase: `threads` workers drive `target_rounds` rounds
// through the shared service, sequentially or batched. `phase_salt`
// keeps the feedback/retry rng streams of repeated phases (warmup, then
// measurement) distinct.
PhaseResult RunPhase(fasea::ArrangementService& service,
                     fasea::SyntheticWorld& world,
                     const std::vector<fasea::RoundContext>& rounds,
                     int threads, std::int64_t target_rounds,
                     std::uint64_t phase_salt, bool batched) {
  using namespace fasea;

  std::atomic<std::int64_t> completed{0};
  std::atomic<bool> aborted{false};
  std::vector<WorkerTotals> totals(static_cast<std::size_t>(threads));
  Stopwatch wall;
  wall.Start();
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        WorkerTotals& mine = totals[static_cast<std::size_t>(w)];
        Pcg64 rng(DeriveSeed(phase_salt, "load-feedback",
                             static_cast<std::uint64_t>(w)),
                  static_cast<std::uint64_t>(w));
        RetryPolicy retry(RetryOptions{},
                          DeriveSeed(phase_salt, "load-retry",
                                     static_cast<std::uint64_t>(w)));
        while (!aborted.load(std::memory_order_relaxed) &&
               completed.load(std::memory_order_relaxed) < target_rounds) {
          const RoundContext& round =
              rounds[static_cast<std::size_t>(
                  completed.load(std::memory_order_relaxed)) %
                  rounds.size()];
          Arrangement arrangement;
          std::int64_t ticket = 0;
          if (batched) {
            auto served = service.ServeUserBatched(
                round.user_id, round.user_capacity, round.contexts);
            if (!served.ok()) {
              // Shed (max_pending or overload bounds); back off.
              ++mine.contention_retries;
              std::this_thread::yield();
              continue;
            }
            ticket = served->ticket;
            arrangement = std::move(served->arrangement);
          } else {
            auto served = service.ServeUser(
                round.user_id, round.user_capacity, round.contexts);
            if (!served.ok()) {
              // Another worker's round is mid-flight (the protocol
              // allows one pending arrangement); back off and retry.
              ++mine.contention_retries;
              std::this_thread::yield();
              continue;
            }
            arrangement = std::move(served).value();
          }
          const Feedback feedback = world.feedback().Sample(
              mine.served + 1, round.contexts, arrangement, rng);
          // Bounded, jittered retries instead of a hot-spin: a WAL that
          // keeps failing retryable surfaces here instead of pegging a
          // core forever.
          const Status st = retry.Run([&] {
            return batched
                       ? service.SubmitBatchedFeedback(ticket, feedback)
                       : service.SubmitFeedback(feedback);
          });
          if (!st.ok()) {
            if (IsRetryable(st)) ++mine.retries_exhausted;
            std::fprintf(stderr,
                         "load_service: worker %d abandoning the run, "
                         "feedback failed: %s\n",
                         w, st.ToString().c_str());
            aborted.store(true, std::memory_order_relaxed);
            return;
          }
          ++mine.served;
          mine.arranged += static_cast<std::int64_t>(arrangement.size());
          mine.accepted += NumAccepted(feedback);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  wall.Stop();

  PhaseResult result;
  for (const WorkerTotals& t : totals) result.sum.Add(t);
  result.aborted = aborted.load();
  result.seconds = wall.ElapsedSeconds();
  return result;
}

// The sharded variant of the closed loop: same protocol, but rounds
// route through ShardedArrangementService, and the results block adds
// per-shard throughput plus the max/min skew ratio (how evenly the
// consistent-hash partition spreads the event set's load).
int RunShardedLoad(fasea::SyntheticWorld& world,
                   const fasea::SyntheticConfig& config,
                   fasea::PolicyKind kind, const std::string& wal_dir,
                   int shards, int threads, std::int64_t target_rounds) {
  using namespace fasea;

  ShardedOptions options;
  options.num_shards = shards;
  options.kind = kind;
  options.seed = config.seed;
  ShardedArrangementService service(&world.instance(), options);
  if (!wal_dir.empty()) {
    if (Status st = service.AttachWals(Env::Default(), wal_dir); !st.ok()) {
      std::fprintf(stderr, "load_service: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  const std::size_t ring_size =
      std::min<std::size_t>(256, static_cast<std::size_t>(target_rounds));
  std::vector<RoundContext> rounds(ring_size);
  for (std::size_t i = 0; i < ring_size; ++i) {
    rounds[i] = world.provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }

  std::printf("load_service: %d worker(s), %lld rounds, %d shard(s), "
              "|V|=%zu, d=%zu, wal=%s\n",
              threads, static_cast<long long>(target_rounds), shards,
              config.num_events, config.dim,
              wal_dir.empty() ? "off" : "on");

  std::atomic<std::int64_t> completed{0};
  std::atomic<bool> aborted{false};
  std::vector<WorkerTotals> totals(static_cast<std::size_t>(threads));
  std::vector<std::atomic<std::int64_t>> shard_served(
      static_cast<std::size_t>(shards));
  Stopwatch wall;
  wall.Start();
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        WorkerTotals& mine = totals[static_cast<std::size_t>(w)];
        Pcg64 rng(DeriveSeed(config.seed, "load-feedback",
                             static_cast<std::uint64_t>(w)),
                  static_cast<std::uint64_t>(w));
        RetryPolicy retry(RetryOptions{},
                          DeriveSeed(config.seed, "load-retry",
                                     static_cast<std::uint64_t>(w)));
        while (!aborted.load(std::memory_order_relaxed) &&
               completed.load(std::memory_order_relaxed) < target_rounds) {
          const RoundContext& round =
              rounds[static_cast<std::size_t>(
                  completed.load(std::memory_order_relaxed)) %
                  rounds.size()];
          auto served = service.ServeUser(round.user_id, round.user_capacity,
                                          round.contexts);
          if (!served.ok()) {
            // The home shard's pipeline is busy with another worker's
            // round; back off and try the next arrival.
            ++mine.contention_retries;
            std::this_thread::yield();
            continue;
          }
          const Feedback feedback = world.feedback().Sample(
              mine.served + 1, round.contexts, served->arrangement, rng);
          const Status st = retry.Run(
              [&] { return service.SubmitFeedback(served->txn, feedback); });
          if (!st.ok()) {
            if (IsRetryable(st)) ++mine.retries_exhausted;
            std::fprintf(stderr,
                         "load_service: worker %d abandoning the run, "
                         "feedback failed: %s\n",
                         w, st.ToString().c_str());
            aborted.store(true, std::memory_order_relaxed);
            return;
          }
          ++mine.served;
          mine.arranged +=
              static_cast<std::int64_t>(served->arrangement.size());
          mine.accepted += NumAccepted(feedback);
          shard_served[static_cast<std::size_t>(served->home_shard)]
              .fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  wall.Stop();

  WorkerTotals sum;
  for (const WorkerTotals& t : totals) sum.Add(t);
  if (aborted.load()) {
    std::fprintf(stderr,
                 "load_service: aborted after %lld/%lld rounds "
                 "(%lld retry budget(s) exhausted)\n",
                 static_cast<long long>(sum.served),
                 static_cast<long long>(target_rounds),
                 static_cast<long long>(sum.retries_exhausted));
    return 1;
  }
  FASEA_CHECK(sum.served == service.rounds_completed());
  FASEA_CHECK(sum.served >= target_rounds);

  const double seconds = wall.ElapsedSeconds();
  const ShardedStats stats = service.Stats();
  std::printf("\nresults:\n");
  std::printf("  rounds served              %lld\n",
              static_cast<long long>(sum.served));
  std::printf("  wall seconds               %.3f\n", seconds);
  std::printf("  throughput                 %.0f rounds/s\n",
              seconds > 0 ? static_cast<double>(sum.served) / seconds : 0.0);
  std::printf("  accept ratio               %.4f\n", sum.AcceptRatio());
  std::printf("  contention retries         %lld\n",
              static_cast<long long>(sum.contention_retries));
  std::printf("  retry budgets exhausted    %lld\n",
              static_cast<long long>(sum.retries_exhausted));
  std::printf("  cross-shard rounds         %lld\n",
              static_cast<long long>(stats.cross_shard_rounds));
  std::printf("  reservation refusals       %lld\n",
              static_cast<long long>(stats.reservation_refusals));

  // Per-home-shard throughput: skew is the max/min QPS ratio; 1.00 is a
  // perfectly even consistent-hash spread of arrivals over shards.
  std::int64_t busiest = 0;
  std::int64_t quietest = sum.served;
  for (int s = 0; s < shards; ++s) {
    const std::int64_t count =
        shard_served[static_cast<std::size_t>(s)].load();
    busiest = std::max(busiest, count);
    quietest = std::min(quietest, count);
    std::printf("  shard %-2d throughput        %.0f rounds/s (%lld rounds)\n",
                s, seconds > 0 ? static_cast<double>(count) / seconds : 0.0,
                static_cast<long long>(count));
  }
  if (quietest > 0) {
    std::printf("  shard skew (max/min QPS)   %.2f\n",
                static_cast<double>(busiest) / static_cast<double>(quietest));
  } else {
    std::printf("  shard skew (max/min QPS)   inf (an idle shard)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fasea;

  FlagSet flags;
  flags.DefineInt("threads", 4,
                  "Closed-loop workers driving the shared service "
                  "(<= 0 = one per hardware thread).");
  flags.DefineInt("rounds", 10000, "Measured rounds to serve across workers.");
  flags.DefineInt("warmup", 0,
                  "Rounds served before measurement starts; their latency "
                  "samples are excluded from the reported percentiles.");
  flags.DefineInt("num_events", 100, "|V| of the synthetic workload.");
  flags.DefineInt("dim", 10, "Context dimension d.");
  flags.DefineString("policy", "ucb",
                     "Serving policy: ucb|ts|egreedy|exploit|random.");
  flags.DefineInt("seed", 7, "Workload + policy seed.");
  flags.DefineString("wal_dir", "",
                     "Attach a WAL in this directory (empty = no WAL; "
                     "with --shards, per-shard WALs under shard-NNN/).");
  flags.DefineInt("shards", 0,
                  "0 drives the single ArrangementService path; N>=1 "
                  "drives ShardedArrangementService with N shards "
                  "(1 = full instance through the sharded path).");
  flags.DefineBool("batched", false,
                   "Drive the batched protocol (ConfigureBatching) instead "
                   "of the sequential one.");
  flags.DefineInt("max_pending", 0,
                  "Batched mode: unresolved rounds allowed at once "
                  "(0 = unlimited).");
  flags.DefineBool("help", false, "Show this help.");
  if (Status st = flags.Parse(argc - 1, argv + 1); !st.ok()) {
    std::fprintf(stderr, "load_service: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.HelpText("load_service").c_str(), stdout);
    return 0;
  }
  const int threads = flags.GetInt("threads") <= 0
                          ? ThreadPool::HardwareThreads()
                          : static_cast<int>(flags.GetInt("threads"));
  const std::int64_t target_rounds = flags.GetInt("rounds");
  const std::int64_t warmup_rounds = flags.GetInt("warmup");
  const bool batched = flags.GetBool("batched");
  FASEA_CHECK(target_rounds >= 1);
  FASEA_CHECK(warmup_rounds >= 0);

  SyntheticConfig config;
  config.num_events = static_cast<std::size_t>(flags.GetInt("num_events"));
  config.dim = static_cast<std::size_t>(flags.GetInt("dim"));
  config.horizon = target_rounds + warmup_rounds;
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  if (Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "load_service: %s\n", st.ToString().c_str());
    return 2;
  }
  auto world = SyntheticWorld::Create(config);
  if (!world.ok()) {
    std::fprintf(stderr, "load_service: %s\n",
                 world.status().ToString().c_str());
    return 1;
  }
  auto kinds = ParsePolicyList(flags.GetString("policy"));
  if (!kinds.ok()) {
    std::fprintf(stderr, "load_service: %s\n",
                 kinds.status().ToString().c_str());
    return 2;
  }

  if (const int shards = static_cast<int>(flags.GetInt("shards"));
      shards >= 1) {
    if (batched) {
      std::fprintf(stderr,
                   "load_service: --batched and --shards are mutually "
                   "exclusive\n");
      return 2;
    }
    return RunShardedLoad(**world, config, kinds->front(),
                          flags.GetString("wal_dir"), shards, threads,
                          target_rounds);
  }

  ArrangementService service(&(*world)->instance(), kinds->front(),
                             PolicyParams{},
                             static_cast<std::uint64_t>(flags.GetInt("seed")));
  if (const std::string& wal_dir = flags.GetString("wal_dir");
      !wal_dir.empty()) {
    auto wal = WalWriter::Open(Env::Default(), wal_dir, WalOptions{});
    if (!wal.ok()) {
      std::fprintf(stderr, "load_service: %s\n",
                   wal.status().ToString().c_str());
      return 1;
    }
    service.AttachWal(std::move(wal).value());
  }
  if (batched) {
    BatchingOptions batching;
    batching.max_pending = static_cast<int>(flags.GetInt("max_pending"));
    service.ConfigureBatching(batching);
  }

  // Pre-generate a ring of rounds: the synthetic provider reuses its
  // buffers and is not thread-safe, so workers cycle private copies.
  const std::size_t ring_size = std::min<std::size_t>(
      256, static_cast<std::size_t>(target_rounds + warmup_rounds));
  std::vector<RoundContext> rounds(ring_size);
  for (std::size_t i = 0; i < ring_size; ++i) {
    rounds[i] = (*world)->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }

  std::printf("load_service: %d worker(s), %lld rounds (+%lld warmup), "
              "policy=%s, mode=%s, |V|=%zu, d=%zu, wal=%s\n",
              threads, static_cast<long long>(target_rounds),
              static_cast<long long>(warmup_rounds),
              flags.GetString("policy").c_str(),
              batched ? "batched" : "sequential", config.num_events,
              config.dim, service.wal_attached() ? "on" : "off");

  std::int64_t warmup_served = 0;
  if (warmup_rounds > 0) {
    PhaseResult warm = RunPhase(
        service, **world, rounds, threads, warmup_rounds,
        DeriveSeed(config.seed, "load-warmup"), batched);
    if (warm.aborted) {
      std::fprintf(stderr, "load_service: aborted during warmup\n");
      return 1;
    }
    warmup_served = warm.sum.served;
  }

  // The registry histograms are process-cumulative; the baseline taken
  // here makes the reported percentiles cover the measured phase only.
  const RegistrySnapshot before = Metrics()->Snapshot();
  PhaseResult run =
      RunPhase(service, **world, rounds, threads, target_rounds,
               config.seed, batched);
  const WorkerTotals& sum = run.sum;
  if (run.aborted) {
    std::fprintf(stderr,
                 "load_service: aborted after %lld/%lld rounds "
                 "(%lld retry budget(s) exhausted)\n",
                 static_cast<long long>(sum.served),
                 static_cast<long long>(target_rounds),
                 static_cast<long long>(sum.retries_exhausted));
    return 1;
  }
  const RegistrySnapshot after = Metrics()->Snapshot();

  std::int64_t invariant_violations = 0;
  if (warmup_served + sum.served != service.rounds_served()) {
    ++invariant_violations;
  }
  if (service.batching_enabled() &&
      service.pending_batched_rounds() != 0) {
    ++invariant_violations;
  }
  if (sum.served < target_rounds) ++invariant_violations;

  const double seconds = run.seconds;
  // `unit` follows each value; `label` (default: the metric name) heads
  // the line.
  const auto percentiles = [&](const char* name, const char* unit,
                               const char* label = nullptr) {
    const HistogramSnapshot hist =
        HistogramByName(after, name).DeltaSince(HistogramByName(before, name));
    if (label == nullptr) label = name;
    if (hist.count == 0) {
      std::printf("  %-26s (no samples)\n", label);
      return;
    }
    std::printf("  %-26s p50=%lld%s p95=%lld%s p99=%lld%s max=%lld%s "
                "(n=%lld)\n",
                label, static_cast<long long>(hist.ValueAtPercentile(50)), unit,
                static_cast<long long>(hist.ValueAtPercentile(95)), unit,
                static_cast<long long>(hist.ValueAtPercentile(99)), unit,
                static_cast<long long>(hist.max), unit,
                static_cast<long long>(hist.count));
  };

  std::printf("\nresults:\n");
  std::printf("  rounds served              %lld\n",
              static_cast<long long>(sum.served));
  std::printf("  wall seconds               %.3f\n", seconds);
  std::printf("  throughput                 %.0f rounds/s\n",
              seconds > 0 ? static_cast<double>(sum.served) / seconds : 0.0);
  std::printf("  accept ratio               %.4f\n", sum.AcceptRatio());
  std::printf("  contention retries         %lld\n",
              static_cast<long long>(sum.contention_retries));
  std::printf("  retry budgets exhausted    %lld\n",
              static_cast<long long>(sum.retries_exhausted));
  percentiles("fasea.serve.latency_ns", "ns");
  percentiles("fasea.feedback.latency_ns", "ns");
  if (batched) {
    // fasea.batch.wait_ns: from the end of an arrival's scoring to the
    // start of its capacity resolution (round-mutex acquire + turn wait).
    percentiles("fasea.batch.wait_ns", "ns", "resolve wait");
  }
  std::printf("  invariant violations       %lld\n",
              static_cast<long long>(invariant_violations));
  return invariant_violations == 0 ? 0 : 1;
}
