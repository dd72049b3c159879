// The two serving-stack workloads:
//
//   batched        closed loop, 1 client, batched ArrangementService,
//                  UCB, |V| = 100, d = 16, no WAL.
//   sharded-wire   closed loop, 1 client, ShardedArrangementService with
//                  4 shards over a clean SimulatedNetwork, PumpTransport
//                  between arrivals, UCB, |V| = 48, d = 16, per-shard WALs
//                  and decision logs written but never fsynced.
//
// Every input (instance, rounds, feedback draws) comes from the run seed;
// the services only ever see the generated rounds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "core/linear_policy_base.h"
#include "core/policy_factory.h"
#include "datagen/synthetic.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/sharded_service.h"
#include "io/env.h"
#include "net/network.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "oracle/greedy.h"
#include "oracle/oracle.h"
#include "rng/seed.h"
#include "timing_env.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace fasea;

// Seats per event: far above what any run can accept, so no workload
// runs out of capacity (the seat check in common.h enforces it).
constexpr double kUnlimitedSeats = 1e9;

// Small on purpose. On a shared 4-vCPU host the dense scoring kernels
// ran at one of two speeds, about 1.6x apart, switching every few tens
// of seconds: at |V| = 1500 the serve p50 quartile spread over seven
// seeds was 0.34 with d = 64 and 0.48 with d = 16, and |V| = 200 still
// switched. At |V| = 100, d = 16 the serve p50 stayed within 7% across
// the same switches.
constexpr std::size_t kBatchedEvents = 100;
constexpr std::size_t kBatchedDim = 16;
constexpr std::size_t kBatchedRing = 64;  // Distinct pre-generated rounds.
// One client: every arrival is lone, so it never waits for companions
// and each batch holds one user. With two or more clients the latency
// depends on how the clients' batches overlap — which users share a
// batch and which batch waits on the other's ticket-order resolution —
// and on a shared 4-vCPU host that overlap follows the scheduler: at
// |V| = 1500, d = 64 the p99 quartile spread over ten seeds reached 0.67
// with 2 clients and 0.4-0.8 with 3 or 4.
constexpr int kBatchedClients = 1;

SyntheticConfig WorldConfig(std::size_t num_events, std::size_t dim,
                            std::size_t ring, std::uint64_t seed,
                            std::int64_t user_capacity_max = 5) {
  SyntheticConfig config;
  config.user_capacity_max = user_capacity_max;
  config.num_events = num_events;
  config.dim = dim;
  config.horizon = static_cast<std::int64_t>(ring);
  config.event_capacity_mean = kUnlimitedSeats;
  config.event_capacity_stddev = 0.0;
  config.seed = seed;
  return config;
}

std::vector<RoundContext> MakeRing(SyntheticWorld& world, std::size_t n) {
  std::vector<RoundContext> ring(n);
  for (std::size_t i = 0; i < n; ++i) {
    ring[i] = world.provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }
  return ring;
}

HistogramSnapshot Hist(const char* name) {
  return Metrics()->GetHistogram(name)->Snapshot();
}

std::int64_t CounterValue(const char* name) {
  return Metrics()->GetCounter(name)->value();
}

/// Collects per-thread observations of a run under one lock.
struct SharedTally {
  std::mutex mu;
  Samples samples;
  std::vector<std::pair<std::int64_t, std::int32_t>> sizes;  // (ack, size)
  std::int64_t acks = 0;          // All acknowledged rounds (incl. warmup).
  std::int64_t last_ack_ns = 0;
  std::vector<std::string> failures;

  void Fail(std::string message) {
    std::lock_guard<std::mutex> lock(mu);
    if (failures.size() < 8) failures.push_back(std::move(message));
  }
};

/// Arranged-events-per-round series in acknowledgement order.
std::vector<std::int32_t> SizesInAckOrder(
    std::vector<std::pair<std::int64_t, std::int32_t>> sizes) {
  std::sort(sizes.begin(), sizes.end());
  std::vector<std::int32_t> out;
  out.reserve(sizes.size());
  for (const auto& [ack, size] : sizes) out.push_back(size);
  return out;
}

// ---------------------------------------------------------------------
// batched.

struct BatchedSetup {
  std::unique_ptr<SyntheticWorld> world;
  std::vector<RoundContext> ring;
  std::unique_ptr<ArrangementService> service;
};

std::unique_ptr<BatchedSetup> SetUpBatched(const RunOptions& options) {
  auto setup = std::make_unique<BatchedSetup>();
  BatchedSetup& s = *setup;
  auto world = SyntheticWorld::Create(WorldConfig(
      kBatchedEvents, kBatchedDim, kBatchedRing, options.seed));
  FASEA_CHECK_OK(world.status());
  s.world = std::move(world).value();
  s.ring = MakeRing(*s.world, kBatchedRing);
  s.service = std::make_unique<ArrangementService>(
      &s.world->instance(), PolicyKind::kUcb, PolicyParams{},
      DeriveSeed(options.seed, "perfbench-policy"));
  s.service->ConfigureBatching(BatchingOptions{});
  return setup;
}

/// Replays the workload's rounds through a standalone UCB policy in
/// batches of the observed mean size, timing each library stage the
/// batched service runs: snapshot capture, batch scoring, greedy
/// resolution, learning.
void ReplayBatchedStages(SyntheticWorld& world,
                         const std::vector<RoundContext>& ring,
                         double mean_batch, std::uint64_t seed,
                         std::map<std::string, double>* layer) {
  const ProblemInstance& instance = world.instance();
  auto policy = MakePolicy(PolicyKind::kUcb, &instance, PolicyParams{},
                           DeriveSeed(seed, "perfbench-policy"));
  auto* linear = dynamic_cast<LinearPolicyBase*>(policy.get());
  FASEA_CHECK(linear != nullptr);
  PlatformState state(instance);
  GreedyOracle oracle;
  Pcg64 rng(DeriveSeed(seed, "perfbench-replay"), 0);

  const std::size_t b = static_cast<std::size_t>(
      std::max<long>(1, std::lround(mean_batch)));
  Matrix scores(b, instance.num_events());
  std::vector<SnapshotRound> rows(b);
  std::vector<RowResolve> resolve(b);
  std::vector<std::int64_t> caps(b);
  std::int64_t snapshot_ns = 0, score_ns = 0, select_ns = 0, learn_ns = 0;
  std::int64_t steps = 0, t = 0;
  const std::int64_t stop = NowNs() + 500'000'000;
  while (steps < 2000 && NowNs() < stop) {
    for (std::size_t i = 0; i < b; ++i) {
      rows[i].ticket = t + static_cast<std::int64_t>(i) + 1;
      rows[i].round = &ring[static_cast<std::size_t>(rows[i].ticket) %
                            ring.size()];
      caps[i] = rows[i].round->user_capacity;
    }
    std::fill(resolve.begin(), resolve.end(), RowResolve::kGreedy);
    std::int64_t t0 = NowNs();
    std::shared_ptr<const LearnerSnapshot> snap;
    {
      Span span(Layer::kCore, "LinearPolicyBase::MakeSnapshot", t + 1);
      snap = linear->MakeSnapshot();
    }
    std::int64_t t1 = NowNs();
    {
      Span span(Layer::kCore, "LinearPolicyBase::ScoreBatchSnapshot", t + 1);
      linear->ScoreBatchSnapshot(*snap, rows, &scores,
                                 std::span<RowResolve>(resolve));
    }
    std::int64_t t2 = NowNs();
    std::vector<Arrangement> arrangements;
    {
      Span span(Layer::kOracle, "GreedyOracle::SelectBatch", t + 1);
      arrangements = oracle.SelectBatch(scores, instance.conflicts(), &state,
                                        caps);
    }
    std::int64_t t3 = NowNs();
    snapshot_ns += t1 - t0;
    score_ns += t2 - t1;
    select_ns += t3 - t2;
    for (std::size_t i = 0; i < b; ++i) {
      ++t;
      const Feedback fb = world.feedback().Sample(
          t, rows[i].round->contexts, arrangements[i], rng);
      for (std::size_t k = 0; k < fb.size(); ++k) {
        if (!fb[k]) state.ReleaseOne(arrangements[i][k]);
      }
      const std::int64_t l0 = NowNs();
      {
        Span span(Layer::kCore, "Policy::Learn", t);
        policy->Learn(t, *rows[i].round, arrangements[i], fb);
      }
      learn_ns += NowNs() - l0;
    }
    ++steps;
  }
  const double users = static_cast<double>(steps) * static_cast<double>(b);
  (*layer)["core.snapshot_us"] = snapshot_ns / 1e3 / steps;
  (*layer)["core.score_us_per_user"] = score_ns / 1e3 / users;
  (*layer)["oracle.select_us_per_user"] = select_ns / 1e3 / users;
  (*layer)["core.learn_us"] = learn_ns / 1e3 / users;
}

void AddIoMetrics(const TimingEnv& env, double rounds,
                  std::map<std::string, double>* layer) {
  const IoTotals io = env.Totals();
  (*layer)["io.appends_per_round"] = io.appends / rounds;
  (*layer)["io.append_us_per_round"] = io.write_ns / 1e3 / rounds;
  (*layer)["io.bytes_per_round"] = io.bytes / rounds;
}

}  // namespace

WorkloadResult RunBatched(const RunOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;
  std::unique_ptr<BatchedSetup> setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    setup.reset();  // Tear the previous one down before timing.
    const std::int64_t t0 = NowNs();
    setup = SetUpBatched(options);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  result.setup_s = std::move(setup_s);
  BatchedSetup& s = *setup;

  SyntheticWorld& world = *s.world;
  ArrangementService& service = *s.service;
  const ProblemInstance& instance = world.instance();
  // Seats are unlimited, so a fresh state checks size, range,
  // distinctness and conflicts; running out is checked at the end.
  const PlatformState fresh(instance);
  const HistogramSnapshot batch_size0 = Hist("fasea.batch.size");
  const HistogramSnapshot batch_wait0 = Hist("fasea.batch.wait_ns");

  if (options.traced) ResetSelfNanos();
  SharedTally tally;
  std::atomic<std::int64_t> next{0};
  const std::int64_t measure_from =
      NowNs() + static_cast<std::int64_t>(options.warmup_s * 1e9);
  const std::int64_t stop_at =
      measure_from + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int w = 0; w < kBatchedClients; ++w) {
    threads.emplace_back([&, w] {
      Pcg64 rng(DeriveSeed(options.seed, "perfbench-feedback",
                           static_cast<std::uint64_t>(w)),
                static_cast<std::uint64_t>(w));
      Samples mine;
      std::vector<std::pair<std::int64_t, std::int32_t>> sizes;
      std::int64_t acks = 0, last_ack = 0;
      for (;;) {
        const std::int64_t arrival = NowNs();
        if (arrival >= stop_at) break;
        const std::int64_t i = next.fetch_add(1);
        const bool measured = arrival >= measure_from;
        const RoundContext& round =
            s.ring[static_cast<std::size_t>(i) % s.ring.size()];
        StatusOr<BatchedRound> served = [&] {
          Span span(Layer::kEbsn, "ArrangementService::ServeUserBatched",
                    i + 1);
          return service.ServeUserBatched(round.user_id, round.user_capacity,
                                          round.contexts);
        }();
        const std::int64_t s1 = NowNs();
        if (measured) ++mine.attempted;
        if (!served.ok()) {
          if (measured) ++mine.failed;
          continue;  // Refused: never a latency sample.
        }
        const Arrangement& arrangement = served->arrangement;
        if (!IsFeasibleArrangement(arrangement, instance.conflicts(), fresh,
                                   round.user_capacity)) {
          tally.Fail("infeasible proposal for arrival " + std::to_string(i));
        }
        const Feedback feedback =
            world.feedback().Sample(i + 1, round.contexts, arrangement, rng);
        FeedbackResult ack;
        Status st;
        const std::int64_t f0 = NowNs();
        for (int attempt = 0;; ++attempt) {
          if (measured) ++mine.attempted;
          {
            Span span(Layer::kEbsn, "ArrangementService::SubmitBatchedFeedback",
                      i + 1);
            st = service.SubmitBatchedFeedback(served->ticket, feedback, &ack);
          }
          if (st.ok()) break;
          if (measured) ++mine.failed;
          if (!IsRetryable(st) || attempt >= 100) break;
        }
        const std::int64_t f1 = NowNs();
        if (!st.ok()) {
          tally.Fail("feedback failed: " + st.ToString());
          break;
        }
        ++acks;
        last_ack = std::max(last_ack, f1);
        if (!measured) continue;
        mine.Add(arrival - measure_from, s1 - arrival, f1 - f0, f1 - arrival);
        mine.accepted += NumAccepted(feedback);
        mine.arranged += static_cast<std::int64_t>(arrangement.size());
        sizes.emplace_back(f1, static_cast<std::int32_t>(arrangement.size()));
      }
      std::lock_guard<std::mutex> lock(tally.mu);
      tally.samples.Merge(mine);
      tally.sizes.insert(tally.sizes.end(), sizes.begin(), sizes.end());
      tally.acks += acks;
      tally.last_ack_ns = std::max(tally.last_ack_ns, last_ack);
    });
  }
  for (std::thread& t : threads) t.join();

  result.samples = std::move(tally.samples);
  result.measured_s = (tally.last_ack_ns - measure_from) / 1e9;
  result.failures = std::move(tally.failures);

  // End state: nothing pending, every acknowledged round counted once,
  // no event out of seats.
  if (service.pending_batched_rounds() != 0) {
    result.failures.push_back("batched rounds still pending at exit");
  }
  if (tally.acks != service.rounds_served()) {
    result.failures.push_back(
        "acks (" + std::to_string(tally.acks) + ") != rounds_served (" +
        std::to_string(service.rounds_served()) + ")");
  }
  if (service.state().NumAvailableEvents() !=
      static_cast<std::int64_t>(instance.num_events())) {
    result.failures.push_back("an event ran out of seats");
  }
  CheckArrangedSteady(SizesInAckOrder(std::move(tally.sizes)),
                      &result.failures);

  const HistogramSnapshot batch_size =
      Hist("fasea.batch.size").DeltaSince(batch_size0);
  const HistogramSnapshot batch_wait =
      Hist("fasea.batch.wait_ns").DeltaSince(batch_wait0);
  const double mean_batch = batch_size.Mean();
  result.notes.push_back("batch size mean " + std::to_string(mean_batch) +
                         " users over " + std::to_string(batch_size.count) +
                         " batches");
  if (options.traced) {
    const double acks =
        static_cast<double>(std::max<std::int64_t>(tally.acks, 1));
    result.layer["ebsn.batch_size_mean"] = mean_batch;
    result.layer["ebsn.batch_wait_mean_us"] = batch_wait.Mean() / 1e3;
    result.layer["ebsn.rejected_calls"] =
        static_cast<double>(result.samples.failed);
    AddSelfTimes(acks, &result.layer);
    ReplayBatchedStages(world, s.ring, mean_batch, options.seed,
                        &result.layer);
  }
  return result;
}

namespace {

// ---------------------------------------------------------------------
// sharded-wire.

constexpr std::size_t kShardedEvents = 48;
constexpr std::size_t kShardedDim = 16;
constexpr std::size_t kShardedRing = 256;
constexpr int kShards = 4;
// Users want up to 8 events, more than a 12-event home partition with
// conflicts can usually place, so rounds spill over to other shards.
constexpr std::int64_t kShardedUserCapacityMax = 8;
// Band of cross-shard rounds recorded for this configuration; outside
// it the workload no longer exercises the reserve/commit protocol the
// way it was chosen to.
constexpr double kCrossShardMin = 0.15;
constexpr double kCrossShardMax = 0.60;

struct ShardedSetup {
  std::unique_ptr<SyntheticWorld> world;
  std::vector<RoundContext> ring;
  // Declared before the service so they are destroyed after it: the
  // WAL files call back into the envs, and shard servers unregister
  // from the network on destruction.
  std::unique_ptr<TimingEnv> wal_env;  // Traced runs only.
  std::unique_ptr<TimingEnv> obs_env;
  std::unique_ptr<SimulatedNetwork> net;
  std::unique_ptr<ShardedArrangementService> service;
};

std::unique_ptr<ShardedSetup> SetUpSharded(const RunOptions& options,
                                           int rep) {
  auto setup = std::make_unique<ShardedSetup>();
  ShardedSetup& s = *setup;
  auto world = SyntheticWorld::Create(
      WorldConfig(kShardedEvents, kShardedDim, kShardedRing, options.seed,
                  kShardedUserCapacityMax));
  FASEA_CHECK_OK(world.status());
  s.world = std::move(world).value();
  s.ring = MakeRing(*s.world, kShardedRing);

  ShardedOptions sharded;
  sharded.num_shards = kShards;
  sharded.kind = PolicyKind::kUcb;
  sharded.seed = DeriveSeed(options.seed, "perfbench-policy");
  s.service = std::make_unique<ShardedArrangementService>(
      &s.world->instance(), sharded);
  Env* wal_env = Env::Default();
  Env* obs_env = Env::Default();
  if (options.traced) {
    s.wal_env = std::make_unique<TimingEnv>(Env::Default(), Layer::kIo);
    s.obs_env = std::make_unique<TimingEnv>(Env::Default(), Layer::kObs);
    wal_env = s.wal_env.get();
    obs_env = s.obs_env.get();
  }
  WalOptions never;
  never.sync_mode = WalSyncMode::kNever;
  const std::string dir = options.scratch_dir + "/shards-" + std::to_string(rep);
  FASEA_CHECK_OK(s.service->AttachWals(wal_env, dir, never));
  DecisionLogHeader header;
  header.num_events = kShardedEvents;
  header.dim = kShardedDim;
  header.workload_seed = options.seed;
  header.policy_id = "UCB";
  header.policy_seed = sharded.seed;
  FASEA_CHECK_OK(s.service->AttachDecisionLogs(obs_env, dir, header, never));
  s.net = std::make_unique<SimulatedNetwork>(
      DeriveSeed(options.seed, "perfbench-net"));
  FASEA_CHECK_OK(s.service->ConfigureTransport(s.net.get()));
  return setup;
}

}  // namespace

WorkloadResult RunShardedWire(const RunOptions& options) {
  WorkloadResult result;
  std::vector<double> setup_s;
  std::unique_ptr<ShardedSetup> setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    setup.reset();
    const std::int64_t t0 = NowNs();
    setup = SetUpSharded(options, rep);
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  result.setup_s = std::move(setup_s);
  ShardedSetup& s = *setup;

  SyntheticWorld& world = *s.world;
  ShardedArrangementService& service = *s.service;
  const ProblemInstance& instance = world.instance();
  const PlatformState fresh(instance);  // As in RunBatched.
  const ShardedStats stats0 = service.Stats();
  const NetworkStats net0 = s.net->stats();
  const std::int64_t retries0 = service.TransportRetries();
  const std::int64_t timeouts0 = service.TransportTimeouts();
  const std::int64_t records0 = CounterValue("fasea.decision.records");

  if (options.traced) ResetSelfNanos();
  Pcg64 rng(DeriveSeed(options.seed, "perfbench-feedback"), 0);
  Samples& samples = result.samples;
  std::vector<std::int32_t> sizes;
  std::int64_t acks = 0, participants = 0, pump_ns = 0, last_ack = 0;
  const std::int64_t measure_from =
      NowNs() + static_cast<std::int64_t>(options.warmup_s * 1e9);
  const std::int64_t stop_at =
      measure_from + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::int64_t i = 0;; ++i) {
    const std::int64_t arrival = NowNs();
    if (arrival >= stop_at) break;
    const bool measured = arrival >= measure_from;
    const RoundContext& round = s.ring[static_cast<std::size_t>(i) % kShardedRing];
    StatusOr<ShardedServeResult> served = [&] {
      Span span(Layer::kEbsn, "ShardedArrangementService::ServeUser", i + 1);
      return service.ServeUser(round.user_id, round.user_capacity,
                               round.contexts);
    }();
    const std::int64_t s1 = NowNs();
    if (measured) ++samples.attempted;
    if (!served.ok()) {
      if (measured) ++samples.failed;
      continue;
    }
    if (!IsFeasibleArrangement(served->arrangement, instance.conflicts(),
                               fresh, round.user_capacity)) {
      result.failures.push_back("infeasible proposal for arrival " +
                                std::to_string(i));
      break;
    }
    const Feedback feedback = world.feedback().Sample(
        i + 1, round.contexts, served->arrangement, rng);
    ShardedFeedbackResult ack;
    const std::int64_t f0 = NowNs();
    Status st;
    {
      Span span(Layer::kEbsn, "ShardedArrangementService::SubmitFeedback",
                i + 1);
      st = service.SubmitFeedback(served->txn, feedback, &ack);
    }
    const std::int64_t f1 = NowNs();
    if (measured) ++samples.attempted;
    if (!st.ok()) {
      if (measured) ++samples.failed;
      result.failures.push_back("feedback failed: " + st.ToString());
      break;
    }
    ++acks;
    participants += ack.participant_shards;
    last_ack = f1;
    if (measured) {
      samples.Add(arrival - measure_from, s1 - arrival, f1 - f0,
                  f1 - arrival);
      samples.accepted += NumAccepted(feedback);
      samples.arranged +=
          static_cast<std::int64_t>(served->arrangement.size());
      sizes.push_back(static_cast<std::int32_t>(served->arrangement.size()));
    }
    // Background transport work between arrivals.
    const std::int64_t p0 = NowNs();
    Status pumped;
    {
      Span span(Layer::kNet, "ShardedArrangementService::PumpTransport",
                i + 1);
      pumped = service.PumpTransport();
    }
    pump_ns += NowNs() - p0;
    if (!pumped.ok()) {
      result.failures.push_back("PumpTransport failed: " + pumped.ToString());
      break;
    }
  }
  result.measured_s = (last_ack - measure_from) / 1e9;

  const ShardedStats stats = service.Stats();
  const double n = static_cast<double>(std::max<std::int64_t>(acks, 1));
  const double cross_frac =
      (stats.cross_shard_rounds - stats0.cross_shard_rounds) / n;
  if (service.OpenReservations() != 0) {
    result.failures.push_back("open reservations at exit");
  }
  if (service.UndeliveredPortions() != 0) {
    result.failures.push_back("undelivered portions at exit");
  }
  if (acks != service.rounds_completed()) {
    result.failures.push_back("acks != rounds_completed");
  }
  if (cross_frac < kCrossShardMin || cross_frac > kCrossShardMax) {
    result.failures.push_back("cross-shard fraction " +
                              std::to_string(cross_frac) +
                              " outside the recorded band");
  }
  for (int shard = 0; shard < kShards; ++shard) {
    const ArrangementService* inner = service.shard_service(shard);
    if (inner == nullptr ||
        inner->state().NumAvailableEvents() !=
            static_cast<std::int64_t>(inner->state().num_events())) {
      result.failures.push_back("shard " + std::to_string(shard) +
                                " ran out of seats or died");
    }
  }
  CheckArrangedSteady(sizes, &result.failures);
  if (Status st = service.CloseDecisionLogs(); !st.ok()) {
    result.failures.push_back("closing decision logs: " + st.ToString());
  }
  result.notes.push_back("cross-shard rounds " + std::to_string(cross_frac) +
                         " of " + std::to_string(acks));

  if (options.traced) {
    const NetworkStats net = s.net->stats();
    result.layer["ebsn.rejected_calls"] = static_cast<double>(samples.failed);
    result.layer["ebsn.cross_shard_frac"] = cross_frac;
    result.layer["ebsn.reservations_per_round"] =
        (stats.reservations_made - stats0.reservations_made) / n;
    result.layer["ebsn.refusals_per_round"] =
        (stats.reservation_refusals - stats0.reservation_refusals) / n;
    result.layer["ebsn.participants_per_round"] = participants / n;
    result.layer["net.messages_per_round"] = (net.sent - net0.sent) / n;
    result.layer["net.pump_us_per_round"] = pump_ns / 1e3 / n;
    result.layer["net.retries"] =
        static_cast<double>(service.TransportRetries() - retries0);
    result.layer["net.timeouts"] =
        static_cast<double>(service.TransportTimeouts() - timeouts0);
    result.layer["obs.decision_records_per_round"] =
        (CounterValue("fasea.decision.records") - records0) / n;
    result.layer["obs.decision_bytes_per_round"] =
        s.obs_env->Totals().bytes / n;
    AddIoMetrics(*s.wal_env, n, &result.layer);
    AddSelfTimes(n, &result.layer);
  }
  return result;
}

}  // namespace perfbench
