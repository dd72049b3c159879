#include "ebsn/chaos_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/retry.h"
#include "common/strings.h"
#include "ebsn/arrangement_service.h"
#include "ebsn/recovery_manager.h"
#include "ebsn/sharded_service.h"
#include "net/network.h"
#include "rng/seed.h"

namespace fasea {

namespace {

// The breaker's logical clock: one tick per completed round, shared
// process-wide. Only tick *differences* matter (cooldowns), so the
// absence of a reset keeps concurrent harnesses safe while leaving
// single-threaded runs bit-reproducible.
std::atomic<std::int64_t> g_chaos_clock{1};

std::int64_t ChaosClockNow() {
  return g_chaos_clock.load(std::memory_order_relaxed);
}

void TickChaosClock() {
  g_chaos_clock.fetch_add(1, std::memory_order_relaxed);
}

void SleepNanos(std::int64_t nanos) {
  if (nanos > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
  }
}

constexpr std::uint64_t kPerCycleStride = 1024;  // threads < stride.

/// Mutable state one chaos run threads through its phases.
struct ChaosRun {
  const ChaosOptions* options = nullptr;
  SyntheticWorld* world = nullptr;
  FaultInjectionEnv* env = nullptr;
  std::unique_ptr<ArrangementService> service;
  std::vector<RoundContext> ring;  // Pre-generated round contexts.
  std::uint64_t policy_seed = 0;

  // The run-level truth: every acknowledged round keyed by t. A round id
  // re-served after a crash lost its non-durable predecessor — the new
  // record overwrites it, exactly as the recovered world re-decided it.
  std::map<std::int64_t, InteractionRecord> truth;
  std::set<std::int64_t> durable;  // Round ids acked durable.
  std::mutex ledger_mu;

  std::atomic<bool> stop{false};
  ChaosReport report;
  std::mutex report_mu;

  void Violation(std::string message) {
    std::lock_guard<std::mutex> lock(report_mu);
    report.violations.push_back(std::move(message));
    stop.store(true, std::memory_order_relaxed);
  }
};

RetryOptions ChaosRetryOptions(const ChaosOptions& options) {
  RetryOptions retry;
  // Enough budget that consecutive failures trip the breaker before the
  // budget runs out (the open breaker then acknowledges non-durably, so
  // every submit loop terminates).
  retry.max_attempts = options.breaker_failure_threshold + 5;
  retry.initial_backoff_ns = 50'000;   // 50 µs
  retry.max_backoff_ns = 1'000'000;    // 1 ms
  return retry;
}

/// Submits `feedback` until acknowledged; counts exhausted retry budgets.
/// Returns false (with a violation recorded) on a non-retryable failure.
bool SubmitUntilAcked(ChaosRun* run, RetryPolicy* retry,
                      const Feedback& feedback, FeedbackResult* result) {
  retry->Reset();
  Status st = run->service->SubmitFeedback(feedback, result);
  while (!st.ok()) {
    if (!IsRetryable(st)) {
      run->Violation("feedback failed non-retryably: " + st.ToString());
      return false;
    }
    if (retry->ShouldRetry(st)) {
      SleepNanos(retry->NextDelayNanos());
    } else {
      // Budget spent with the round still pending: report it, then keep
      // going — abandoning the round would wedge the protocol, and the
      // breaker guarantees forward progress (consecutive failures trip
      // it, and an open breaker acknowledges non-durably).
      std::lock_guard<std::mutex> lock(run->report_mu);
      ++run->report.retries_exhausted;
      retry->Reset();
    }
    st = run->service->SubmitFeedback(feedback, result);
  }
  return true;
}

/// Records the acknowledged round in the truth ledger. The record is
/// rebuilt from the worker's own round/arrangement/feedback — exactly
/// the fields the service encodes — rather than read back from the
/// shared log, which other workers may append to between this worker's
/// acknowledgement and the read.
void RecordAck(ChaosRun* run, const FeedbackResult& result,
               const RoundContext& round, const Arrangement& arrangement,
               const Feedback& feedback) {
  InteractionRecord record;
  record.t = result.round;
  record.user_id = round.user_id;
  record.user_capacity = round.user_capacity;
  record.arrangement = arrangement;
  record.feedback = feedback;
  for (EventId v : arrangement) {
    const auto row = round.contexts.Row(v);
    record.contexts.emplace_back(row.begin(), row.end());
  }
  std::lock_guard<std::mutex> lock(run->ledger_mu);
  run->truth[result.round] = std::move(record);
  if (result.durable) {
    run->durable.insert(result.round);
  }
}

/// Closed-loop drive: `threads` workers complete `target` rounds.
void DrivePhase(ChaosRun* run, int cycle, int threads,
                std::int64_t target) {
  std::atomic<std::int64_t> completed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([run, cycle, w, target, &completed] {
      const std::uint64_t lane =
          static_cast<std::uint64_t>(cycle) * kPerCycleStride +
          static_cast<std::uint64_t>(w);
      Pcg64 fb_rng(DeriveSeed(run->options->seed, "chaos-fb", lane),
                   static_cast<std::uint64_t>(w));
      RetryPolicy retry(ChaosRetryOptions(*run->options),
                        DeriveSeed(run->options->seed, "chaos-retry", lane));
      while (!run->stop.load(std::memory_order_relaxed) &&
             completed.load(std::memory_order_relaxed) < target) {
        const RoundContext& round =
            run->ring[static_cast<std::size_t>(
                          completed.load(std::memory_order_relaxed)) %
                      run->ring.size()];
        auto arrangement = run->service->ServeUser(
            round.user_id, round.user_capacity, round.contexts);
        if (!arrangement.ok()) {
          const StatusCode code = arrangement.status().code();
          if (code == StatusCode::kFailedPrecondition) {
            std::lock_guard<std::mutex> lock(run->report_mu);
            ++run->report.contention_rejects;
          } else if (code == StatusCode::kResourceExhausted) {
            std::lock_guard<std::mutex> lock(run->report_mu);
            ++run->report.rounds_shed;
          } else {
            run->Violation("serve failed unexpectedly: " +
                           arrangement.status().ToString());
            return;
          }
          std::this_thread::yield();
          continue;
        }
        const Feedback feedback = run->world->feedback().Sample(
            1, round.contexts, *arrangement, fb_rng);
        FeedbackResult result;
        if (!SubmitUntilAcked(run, &retry, feedback, &result)) return;
        RecordAck(run, result, round, *arrangement, feedback);
        TickChaosClock();
        {
          std::lock_guard<std::mutex> lock(run->report_mu);
          ++run->report.rounds_acked;
          if (result.durable) {
            ++run->report.durable_acked;
          } else {
            ++run->report.nondurable_acked;
          }
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

/// Step 2: faults are disarmed; drive single-threaded until the breaker
/// is closed and a durable acknowledgement proves the WAL is live again.
void DriveUntilReclosed(ChaosRun* run, int cycle) {
  RetryPolicy retry(
      ChaosRetryOptions(*run->options),
      DeriveSeed(run->options->seed, "chaos-reclose",
                 static_cast<std::uint64_t>(cycle)));
  Pcg64 fb_rng(DeriveSeed(run->options->seed, "chaos-reclose-fb",
                          static_cast<std::uint64_t>(cycle)),
               /*stream=*/7);
  for (std::int64_t i = 0; i < run->options->reclose_budget; ++i) {
    if (run->stop.load(std::memory_order_relaxed)) return;
    const RoundContext& round =
        run->ring[static_cast<std::size_t>(i) % run->ring.size()];
    auto arrangement = run->service->ServeUser(
        round.user_id, round.user_capacity, round.contexts);
    if (!arrangement.ok()) {
      run->Violation("serve failed during re-close drive: " +
                     arrangement.status().ToString());
      return;
    }
    const Feedback feedback = run->world->feedback().Sample(
        1, round.contexts, *arrangement, fb_rng);
    FeedbackResult result;
    if (!SubmitUntilAcked(run, &retry, feedback, &result)) return;
    RecordAck(run, result, round, *arrangement, feedback);
    TickChaosClock();
    {
      std::lock_guard<std::mutex> lock(run->report_mu);
      ++run->report.rounds_acked;
      if (result.durable) {
        ++run->report.durable_acked;
      } else {
        ++run->report.nondurable_acked;
      }
    }
    if (result.durable &&
        run->service->breaker()->state() ==
            CircuitBreaker::State::kClosed) {
      return;
    }
  }
  run->Violation(StrFormat(
      "cycle %d: breaker failed to re-close within %lld rounds after "
      "faults were disarmed",
      cycle, static_cast<long long>(run->options->reclose_budget)));
}

void CheckCapacitiesNonNegative(ChaosRun* run, const ArrangementService& s,
                                const char* which, int cycle) {
  const ProblemInstance& instance = run->world->instance();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    if (s.state().remaining(v) < 0) {
      run->Violation(StrFormat(
          "cycle %d: %s service has negative remaining capacity for "
          "event %u",
          cycle, which, v));
    }
  }
}

/// The crash-and-recover step: snapshot counters, destroy the live
/// service, recover from the WAL alone, and check every invariant.
void CrashRecoverAndVerify(ChaosRun* run, int cycle) {
  const ChaosOptions& options = *run->options;

  // Snapshot the live side before "crashing".
  {
    std::lock_guard<std::mutex> lock(run->report_mu);
    run->report.breaker_opens += run->service->breaker()->opens();
    run->report.breaker_closes += run->service->breaker()->closes();
    run->report.breaker_probes += run->service->breaker()->probes();
    run->report.wal_reopens += run->service->wal_reopens();
  }
  CheckCapacitiesNonNegative(run, *run->service, "live", cycle);
  run->service.reset();  // Crash: in-memory state is gone.

  RecoveryOptions ropts;
  ropts.seed = run->policy_seed;
  auto recovered = RecoverArrangementService(
      &run->world->instance(), run->env, options.wal_dir, "", ropts);
  if (!recovered.ok()) {
    run->Violation(StrFormat("cycle %d: recovery failed: %s", cycle,
                             recovered.status().ToString().c_str()));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(run->report_mu);
    run->report.records_recovered = recovered->report.records_scanned;
    run->report.duplicate_frames_skipped +=
        recovered->report.duplicate_frames_skipped;
    run->report.bytes_truncated += recovered->report.bytes_truncated;
  }
  ArrangementService& service = *recovered->service;
  CheckCapacitiesNonNegative(run, service, "recovered", cycle);

  // Invariant: the WAL never invents rounds, and no durable ack is lost.
  std::set<std::int64_t> recovered_ids;
  for (const InteractionRecord& record : recovered->records) {
    const std::int64_t t = record.t;
    recovered_ids.insert(t);
    if (run->truth.find(t) == run->truth.end()) {
      run->Violation(StrFormat(
          "cycle %d: recovered round %lld was never acknowledged", cycle,
          static_cast<long long>(t)));
    }
  }
  for (const std::int64_t t : run->durable) {
    if (recovered_ids.find(t) == recovered_ids.end()) {
      run->Violation(StrFormat(
          "cycle %d: durably acknowledged round %lld is missing from "
          "the recovered log",
          cycle, static_cast<long long>(t)));
    }
  }

  // Invariant: recovery is bit-identical to a shadow service that
  // replays exactly the recovered rounds from the in-memory truth, and
  // every recovered record encodes to the same bytes as its truth.
  ArrangementService shadow(&run->world->instance(), PolicyKind::kUcb,
                            PolicyParams{}, run->policy_seed);
  for (const InteractionRecord& record : recovered->records) {
    const auto it = run->truth.find(record.t);
    if (it == run->truth.end()) continue;  // Already a violation above.
    if (Status st = shadow.RestoreInteraction(it->second, /*learn=*/true);
        !st.ok()) {
      run->Violation(StrFormat("cycle %d: shadow replay of round %lld "
                               "failed: %s",
                               cycle, static_cast<long long>(record.t),
                               st.ToString().c_str()));
      return;
    }
    if (EncodeInteractionRecord(record) !=
        EncodeInteractionRecord(it->second)) {
      run->Violation(StrFormat(
          "cycle %d: recovered round %lld differs from the acknowledged "
          "record",
          cycle, static_cast<long long>(record.t)));
    }
  }
  if (service.Checkpoint() != shadow.Checkpoint()) {
    run->Violation(StrFormat(
        "cycle %d: recovered learning state (Y, b) differs from the "
        "shadow replay of the durable history",
        cycle));
  }
  if (service.rounds_served() != shadow.rounds_served()) {
    run->Violation(StrFormat(
        "cycle %d: recovered round counter %lld != shadow %lld", cycle,
        static_cast<long long>(service.rounds_served()),
        static_cast<long long>(shadow.rounds_served())));
  }
  const ProblemInstance& instance = run->world->instance();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    if (service.state().remaining(v) != shadow.state().remaining(v)) {
      run->Violation(StrFormat(
          "cycle %d: recovered capacity of event %u (%lld) != shadow "
          "(%lld)",
          cycle, v,
          static_cast<long long>(service.state().remaining(v)),
          static_cast<long long>(shadow.state().remaining(v))));
      break;
    }
  }

  // The truth going forward is the recovered world: round ids above the
  // recovered counter were acknowledged non-durably and died with the
  // crash — the next cycle re-decides them.
  run->service = std::move(recovered->service);
}

Status AttachFreshWal(ChaosRun* run) {
  FaultInjectionEnv* env = run->env;
  const std::string dir = run->options->wal_dir;
  auto wal = WalWriter::Open(env, dir);
  if (!wal.ok()) return wal.status();
  DurabilityPolicy durability;
  durability.on_wal_error = DurabilityPolicy::OnWalError::kFailRound;
  durability.breaker_enabled = true;
  durability.breaker.failure_threshold =
      run->options->breaker_failure_threshold;
  durability.breaker.open_cooldown_ns =
      run->options->breaker_cooldown_ticks;  // Logical-clock ticks.
  durability.breaker.clock = &ChaosClockNow;
  run->service->AttachWal(
      std::move(wal).value(), durability,
      [env, dir] { return WalWriter::Open(env, dir); });
  return Status::Ok();
}

}  // namespace

std::string ChaosReport::ToString() const {
  std::string out;
  out += StrFormat("verdict:                  %s\n",
                   ok ? "PASS" : "FAIL");
  out += StrFormat("cycles run:               %d\n", cycles_run);
  out += StrFormat("rounds acked:             %lld\n",
                   static_cast<long long>(rounds_acked));
  out += StrFormat("  durable:                %lld\n",
                   static_cast<long long>(durable_acked));
  out += StrFormat("  non-durable:            %lld\n",
                   static_cast<long long>(nondurable_acked));
  out += StrFormat("rounds shed:              %lld\n",
                   static_cast<long long>(rounds_shed));
  out += StrFormat("contention rejects:       %lld\n",
                   static_cast<long long>(contention_rejects));
  out += StrFormat("retry budgets exhausted:  %lld\n",
                   static_cast<long long>(retries_exhausted));
  out += StrFormat("faults injected:          %lld\n",
                   static_cast<long long>(faults_injected));
  out += StrFormat("breaker opens/closes:     %lld/%lld\n",
                   static_cast<long long>(breaker_opens),
                   static_cast<long long>(breaker_closes));
  out += StrFormat("breaker probes:           %lld\n",
                   static_cast<long long>(breaker_probes));
  out += StrFormat("wal reopens:              %lld\n",
                   static_cast<long long>(wal_reopens));
  out += StrFormat("records recovered:        %lld\n",
                   static_cast<long long>(records_recovered));
  out += StrFormat("duplicate frames skipped: %lld\n",
                   static_cast<long long>(duplicate_frames_skipped));
  out += StrFormat("torn bytes truncated:     %lld\n",
                   static_cast<long long>(bytes_truncated));
  for (const std::string& violation : violations) {
    out += "VIOLATION: " + violation + "\n";
  }
  return out;
}

StatusOr<FaultSchedule> NamedFaultSchedule(std::string_view name) {
  if (name == "clean") return FaultSchedule::Parse("");
  if (name == "flaky-appends") {
    return FaultSchedule::Parse(
        "append_error_rate=0.05;short_write_rate=0.02");
  }
  if (name == "dying-disk") return FaultSchedule::Parse("sync_fail_at=25");
  if (name == "torn-tail") {
    return FaultSchedule::Parse(
        "short_write_at=15;short_write_keep_bytes=10;"
        "append_error_rate=0.02");
  }
  if (name == "slow-disk") {
    return FaultSchedule::Parse(
        "append_latency_ns=20000;sync_latency_ns=30000;"
        "latency_jitter_ns=10000;sync_error_rate=0.02");
  }
  return InvalidArgumentError(
      StrFormat("unknown fault schedule '%s' (try: clean, flaky-appends, "
                "dying-disk, torn-tail, slow-disk)",
                std::string(name).c_str()));
}

const std::vector<std::string_view>& NamedFaultScheduleNames() {
  static const std::vector<std::string_view> kNames = {
      "clean", "flaky-appends", "dying-disk", "torn-tail", "slow-disk"};
  return kNames;
}

StatusOr<ChaosReport> RunChaos(const ChaosOptions& options) {
  if (options.wal_dir.empty()) {
    return InvalidArgumentError("chaos: wal_dir is required");
  }
  if (options.threads < 1 || options.cycles < 1 ||
      options.rounds_per_cycle < 1) {
    return InvalidArgumentError(
        "chaos: threads, cycles, and rounds_per_cycle must be >= 1");
  }
  FaultInjectionEnv env(Env::Default());
  if (auto names = env.ListDir(options.wal_dir); names.ok()) {
    for (const std::string& name : *names) {
      if (StartsWith(name, "wal-")) {
        return InvalidArgumentError(
            "chaos: wal_dir already holds WAL segments — the run needs a "
            "fresh directory");
      }
    }
  }

  SyntheticConfig config;
  config.num_events = options.num_events;
  config.dim = options.dim;
  config.horizon = 100000;
  config.seed = DeriveSeed(options.seed, "chaos-world");
  auto world = SyntheticWorld::Create(config);
  if (!world.ok()) return world.status();

  ChaosRun run;
  run.options = &options;
  run.world = world->get();
  run.env = &env;
  run.policy_seed = DeriveSeed(options.seed, "chaos-policy");
  run.service = std::make_unique<ArrangementService>(
      &run.world->instance(), PolicyKind::kUcb, PolicyParams{},
      run.policy_seed);
  run.ring.resize(64);
  for (std::size_t i = 0; i < run.ring.size(); ++i) {
    run.ring[i] =
        run.world->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }
  if (options.max_inflight > 0) {
    OverloadOptions overload;
    overload.max_inflight = options.max_inflight;
    run.service->ConfigureOverload(overload);
  }

  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    if (Status st = AttachFreshWal(&run); !st.ok()) return st;

    FaultSchedule schedule = options.schedule;
    schedule.seed = DeriveSeed(options.seed, "chaos-faults",
                               static_cast<std::uint64_t>(cycle));
    env.ApplySchedule(schedule);

    DrivePhase(&run, cycle, options.threads, options.rounds_per_cycle);
    env.DisarmAll();
    if (!run.stop.load(std::memory_order_relaxed)) {
      DriveUntilReclosed(&run, cycle);
    }
    if (run.stop.load(std::memory_order_relaxed)) break;

    CrashRecoverAndVerify(&run, cycle);
    ++run.report.cycles_run;
    if (run.stop.load(std::memory_order_relaxed) ||
        run.service == nullptr) {
      break;
    }
    if (options.max_inflight > 0) {
      OverloadOptions overload;
      overload.max_inflight = options.max_inflight;
      run.service->ConfigureOverload(overload);
    }
  }

  run.report.faults_injected = env.faults_injected();
  run.report.ok = run.report.violations.empty() &&
                  run.report.cycles_run == options.cycles;
  return std::move(run.report);
}

// --- Sharded chaos -------------------------------------------------------

namespace {

/// Mutable state of one sharded run. Strictly single-threaded: kills
/// fire at fixed round indexes and every counter is deterministic.
struct ShardedRun {
  const ShardedChaosOptions* options = nullptr;
  SyntheticWorld* world = nullptr;
  FaultInjectionEnv* env = nullptr;
  std::unique_ptr<ShardedArrangementService> service;
  std::vector<RoundContext> ring;
  std::uint64_t policy_seed = 0;

  /// Non-null only in kPartition mode: the simulated fabric every
  /// protocol step travels over (it outlives the service).
  SimulatedNetwork* net = nullptr;

  // Truth keyed by txn. Transaction ids are never reused, so a round
  // lost to a crash simply leaves a truth entry with no recovered
  // counterpart (allowed — it was acked non-durably), and its re-serve
  // gets a fresh txn.
  std::map<std::uint64_t, InteractionRecord> truth;
  std::set<std::uint64_t> durable;

  // Mid-commit crash handshake with the service hook.
  bool hook_armed = false;
  std::uint64_t hook_fired_txn = 0;

  bool stop = false;
  ShardedChaosReport report;

  void Violation(std::string message) {
    report.violations.push_back(std::move(message));
    stop = true;
  }
};

enum class ArrivalOutcome { kAcked, kSkipped, kCrashed, kFailed };

InteractionRecord BuildTruthRecord(const RoundContext& round,
                                   const Arrangement& arrangement,
                                   const Feedback& feedback) {
  InteractionRecord record;
  record.t = 0;  // Renumbered at replay time (txn order).
  record.user_id = round.user_id;
  record.user_capacity = round.user_capacity;
  record.arrangement = arrangement;
  record.feedback = feedback;
  for (EventId v : arrangement) {
    const auto row = round.contexts.Row(v);
    record.contexts.emplace_back(row.begin(), row.end());
  }
  return record;
}

void AccumulateRecovery(ShardedRun* run, const ShardRecoveryReport& r) {
  ShardedChaosReport& rep = run->report;
  ++rep.shard_recoveries;
  rep.duplicate_frames_skipped += r.duplicate_frames_skipped;
  rep.bytes_truncated += r.bytes_truncated;
  rep.in_doubt_seen += r.reservations_in_doubt;
  rep.resolved_committed += r.resolved_committed;
  rep.resolved_aborted += r.resolved_aborted;
  rep.interrupted_completed += r.interrupted_completed;
  rep.interrupted_aborted += r.interrupted_aborted;
}

/// Breakers die with their shard (kill) or writer (re-attach); harvest
/// the counters just before each destruction point.
void HarvestBreaker(ShardedRun* run, int shard) {
  const CircuitBreaker* breaker = run->service->shard_breaker(shard);
  if (breaker == nullptr) return;
  run->report.breaker_opens += breaker->opens();
  run->report.breaker_closes += breaker->closes();
  run->report.breaker_probes += breaker->probes();
}

void RearmFaults(ShardedRun* run, int cycle, int lane) {
  FaultSchedule schedule = run->options->schedule;
  schedule.seed = DeriveSeed(run->options->seed, "sharded-faults",
                             static_cast<std::uint64_t>(cycle) * 8 +
                                 static_cast<std::uint64_t>(lane));
  run->env->ApplySchedule(schedule);
}

/// Invariant 5: remaining capacities never go negative on any shard's
/// sub-instance, live or recovered.
void CheckShardCapacities(ShardedRun* run, const char* which, int cycle) {
  for (int s = 0; s < run->service->num_shards(); ++s) {
    const ArrangementService* inner = run->service->shard_service(s);
    if (inner == nullptr) continue;
    const ProblemInstance& sub = run->service->router().SubInstance(s);
    for (EventId v = 0; v < sub.num_events(); ++v) {
      if (inner->state().remaining(v) < 0) {
        run->Violation(StrFormat(
            "cycle %d: %s shard %d has negative remaining capacity for "
            "local event %u",
            cycle, which, s, v));
        return;
      }
    }
  }
}

bool KillOneShard(ShardedRun* run, int shard, int cycle) {
  HarvestBreaker(run, shard);
  if (Status st = run->service->KillShard(shard); !st.ok()) {
    run->Violation(StrFormat("cycle %d: KillShard(%d) failed: %s", cycle,
                             shard, st.ToString().c_str()));
    return false;
  }
  ++run->report.shard_kills;
  return true;
}

/// Recovery must leave zero in-doubt reservations — invariant 7.
bool RecoverOneShard(ShardedRun* run, int shard, int cycle) {
  auto recovered = run->service->RecoverShard(shard);
  if (!recovered.ok()) {
    run->Violation(StrFormat("cycle %d: RecoverShard(%d) failed: %s",
                             cycle, shard,
                             recovered.status().ToString().c_str()));
    return false;
  }
  AccumulateRecovery(run, *recovered);
  return true;
}

void CheckNoInDoubtSurvives(ShardedRun* run, int cycle, const char* when) {
  const std::int64_t open = run->service->OpenReservations();
  if (open != 0) {
    run->Violation(StrFormat(
        "cycle %d: %lld in-doubt reservation(s) survived recovery (%s)",
        cycle, static_cast<long long>(open), when));
  }
}

/// The mid-commit crash: the coordinator died after its decision frame,
/// before any portion applied. Recovery must complete the transaction
/// (durable decision) or erase it entirely (the decision never hardened
/// — only possible when faults were armed at the commit point).
void HandleMidCommitCrash(ShardedRun* run, int cycle,
                          const ShardedServeResult& served,
                          const RoundContext& round,
                          const Feedback& feedback) {
  ++run->report.mid_commit_crashes;
  run->env->DisarmAll();
  const int home = served.home_shard;
  if (!KillOneShard(run, home, cycle)) return;
  if (!RecoverOneShard(run, home, cycle)) return;
  CheckNoInDoubtSurvives(run, cycle, "after a mid-commit coordinator crash");
  if (Status st = run->service->AttachShardWal(home); !st.ok()) {
    run->Violation(StrFormat("cycle %d: AttachShardWal(%d) failed: %s",
                             cycle, home, st.ToString().c_str()));
    return;
  }
  // Committed iff the decision survived into the recovered index; the
  // recovered world then owes the caller the full round.
  if (run->service->Decisions(home).count(served.txn) != 0) {
    run->truth[served.txn] =
        BuildTruthRecord(round, served.arrangement, feedback);
    run->durable.insert(served.txn);
    ++run->report.rounds_acked;
    ++run->report.durable_acked;
  }
  RearmFaults(run, cycle, /*lane=*/1);
}

RetryOptions ShardedRetryOptions(const ShardedChaosOptions& options) {
  RetryOptions retry;
  retry.max_attempts = options.breaker_failure_threshold + 5;
  retry.initial_backoff_ns = 50'000;
  retry.max_backoff_ns = 1'000'000;
  return retry;
}

/// One arrival: serve, sample feedback, submit until acked. `arm_hook`
/// schedules a coordinator crash between the commit phases.
ArrivalOutcome DriveOneArrival(ShardedRun* run, int cycle,
                               std::size_t ring_index, Pcg64* fb_rng,
                               RetryPolicy* retry, bool arm_hook,
                               ShardedFeedbackResult* out) {
  const RoundContext& round = run->ring[ring_index % run->ring.size()];
  auto served = run->service->ServeUser(round.user_id, round.user_capacity,
                                        round.contexts);
  if (!served.ok()) {
    const StatusCode code = served.status().code();
    if (code == StatusCode::kUnavailable ||
        code == StatusCode::kFailedPrecondition ||
        code == StatusCode::kResourceExhausted) {
      // Dead or draining home: the next arrival round-robins elsewhere.
      ++run->report.serves_unavailable;
      TickChaosClock();
      return ArrivalOutcome::kSkipped;
    }
    run->Violation(StrFormat("cycle %d: sharded serve failed: %s", cycle,
                             served.status().ToString().c_str()));
    return ArrivalOutcome::kFailed;
  }
  const Feedback feedback = run->world->feedback().Sample(
      1, round.contexts, served->arrangement, *fb_rng);
  if (arm_hook) run->hook_armed = true;
  retry->Reset();
  ShardedFeedbackResult result;
  Status st = run->service->SubmitFeedback(served->txn, feedback, &result);
  while (!st.ok()) {
    if (run->hook_fired_txn == served->txn) {
      run->hook_fired_txn = 0;
      HandleMidCommitCrash(run, cycle, *served, round, feedback);
      TickChaosClock();
      return run->stop ? ArrivalOutcome::kFailed : ArrivalOutcome::kCrashed;
    }
    if (run->net != nullptr &&
        st.code() == StatusCode::kFailedPrecondition) {
      // The lease sweep force-aborted this stage (presumed abort) while
      // the fabric misbehaved: the round is gone, not wrong — its
      // capacity was released and the caller re-serves under a new txn.
      ++run->report.force_aborted_rounds;
      TickChaosClock();
      return ArrivalOutcome::kSkipped;
    }
    if (!IsRetryable(st)) {
      run->Violation(StrFormat("cycle %d: feedback failed non-retryably: %s",
                               cycle, st.ToString().c_str()));
      return ArrivalOutcome::kFailed;
    }
    if (retry->ShouldRetry(st)) {
      SleepNanos(retry->NextDelayNanos());
    } else {
      ++run->report.retries_exhausted;
      retry->Reset();  // The breaker guarantees forward progress.
    }
    st = run->service->SubmitFeedback(served->txn, feedback, &result);
  }
  run->truth[served->txn] =
      BuildTruthRecord(round, served->arrangement, feedback);
  if (result.durable) run->durable.insert(served->txn);
  ++run->report.rounds_acked;
  if (result.durable) {
    ++run->report.durable_acked;
  } else {
    ++run->report.nondurable_acked;
  }
  TickChaosClock();
  if (out != nullptr) *out = result;
  return ArrivalOutcome::kAcked;
}

/// One transport step on the logical clock: tick the fabric, deliver
/// due messages, redeliver parked portions, sweep leases. No-op
/// outside kPartition mode.
bool PumpTransportOnce(ShardedRun* run, int cycle) {
  if (run->net == nullptr) return true;
  run->net->Tick();
  if (Status st = run->service->PumpTransport(); !st.ok()) {
    run->Violation(StrFormat("cycle %d: PumpTransport failed: %s", cycle,
                             st.ToString().c_str()));
    return false;
  }
  return true;
}

/// Invariant 8: after the partitions heal (fault dice disarmed),
/// pumping must clear every parked portion and open reservation within
/// the budget — zero stuck transactions.
bool DrainTransport(ShardedRun* run, int cycle) {
  const std::int64_t budget = run->options->heal_budget_ticks;
  for (std::int64_t t = 0; t < budget; ++t) {
    if (run->service->UndeliveredPortions() == 0 &&
        run->service->OpenReservations() == 0) {
      return true;
    }
    if (!PumpTransportOnce(run, cycle)) return false;
  }
  run->Violation(StrFormat(
      "cycle %d: stuck transactions — %lld parked portion(s) and %lld "
      "open reservation(s) survived a %lld-tick drain after the heal",
      cycle, static_cast<long long>(run->service->UndeliveredPortions()),
      static_cast<long long>(run->service->OpenReservations()),
      static_cast<long long>(budget)));
  return false;
}

/// The rebalance drill: one growth attempt with a crash injected at
/// protocol step cycle%3 (after-drain / mid-transfer / pre-flip) that
/// must abort cleanly, then the real growth, then invariant 9 —
/// every event's new owner holds exactly what the drain snapshot
/// recorded, superseding any partial MIGRATE frames the crash left.
bool RebalanceDrill(ShardedRun* run, int cycle) {
  ShardedArrangementService& service = *run->service;
  const int target = service.num_shards() + 1;
  // The drain restarts every shard, destroying breakers un-harvested.
  for (int s = 0; s < service.num_shards(); ++s) HarvestBreaker(run, s);
  const int crash_step = cycle % 3;
  service.set_rebalance_crash_hook(
      [crash_step](int step) { return step == crash_step; });
  auto crashed = service.Rebalance(target);
  service.set_rebalance_crash_hook(nullptr);
  if (crashed.ok()) {
    run->Violation(StrFormat(
        "cycle %d: the injected rebalance crash at step %d never fired",
        cycle, crash_step));
    return false;
  }
  if (service.num_shards() != target - 1) {
    run->Violation(StrFormat(
        "cycle %d: the aborted rebalance left %d shards, expected %d",
        cycle, service.num_shards(), target - 1));
    return false;
  }
  auto report = service.Rebalance(target);
  if (!report.ok()) {
    run->Violation(StrFormat("cycle %d: rebalance retry failed: %s",
                             cycle, report.status().ToString().c_str()));
    return false;
  }
  // Invariant 9: capacity conservation against the drain snapshot —
  // nothing leaks, nothing doubles, wherever the first attempt died.
  const ProblemInstance& instance = run->world->instance();
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    const ArrangementService* inner = service.shard_service(owner);
    const std::int64_t got =
        inner == nullptr ? -1
                         : inner->state().remaining(router.LocalId(v));
    if (got != report->remaining_after_drain[v]) {
      run->Violation(StrFormat(
          "cycle %d: after the grow, event %u on shard %d holds %lld "
          "capacity but the drain snapshot recorded %lld",
          cycle, v, owner, static_cast<long long>(got),
          static_cast<long long>(report->remaining_after_drain[v])));
      return false;
    }
  }
  return true;
}

/// The faulted drive of one cycle, with the kill mode's crash woven in
/// at fixed round indexes. Faults are disarmed around every
/// kill/recover/re-attach window (the dying disk gets swapped) and
/// re-armed with a fresh derived lane.
void DriveShardedCycle(ShardedRun* run, int cycle) {
  const ShardedChaosOptions& options = *run->options;
  Pcg64 fb_rng(DeriveSeed(options.seed, "sharded-fb",
                          static_cast<std::uint64_t>(cycle)),
               /*stream=*/3);
  RetryPolicy retry(ShardedRetryOptions(options),
                    DeriveSeed(options.seed, "sharded-retry",
                               static_cast<std::uint64_t>(cycle)));
  const std::int64_t kill_at = options.rounds_per_cycle / 3;
  const std::int64_t recover_at = (2 * options.rounds_per_cycle) / 3;
  const std::int64_t crash_at = options.rounds_per_cycle / 2;
  const int victim = cycle % options.shards;  // Round-robin across cycles.
  bool crash_pending =
      options.kill_mode == ShardKillMode::kCoordinatorMidCommit;

  for (std::int64_t i = 0; i < options.rounds_per_cycle && !run->stop;
       ++i) {
    if (options.kill_mode == ShardKillMode::kOneShard) {
      if (i == kill_at) {
        run->env->DisarmAll();
        if (!KillOneShard(run, victim, cycle)) return;
        RearmFaults(run, cycle, /*lane=*/2);
      } else if (i == recover_at) {
        run->env->DisarmAll();
        if (!RecoverOneShard(run, victim, cycle)) return;
        CheckNoInDoubtSurvives(run, cycle, "after a single-shard crash");
        if (Status st = run->service->AttachShardWal(victim); !st.ok()) {
          run->Violation(StrFormat(
              "cycle %d: AttachShardWal(%d) failed: %s", cycle, victim,
              st.ToString().c_str()));
          return;
        }
        RearmFaults(run, cycle, /*lane=*/3);
      }
    } else if (options.kill_mode == ShardKillMode::kAll && i == crash_at) {
      run->env->DisarmAll();
      const int n = run->service->num_shards();
      for (int s = 0; s < n; ++s) {
        if (!KillOneShard(run, s, cycle)) return;
      }
      for (int s = 0; s < n; ++s) {
        if (!RecoverOneShard(run, s, cycle)) return;
      }
      CheckNoInDoubtSurvives(run, cycle, "after an all-shard crash");
      CheckShardCapacities(run, "mid-cycle recovered", cycle);
      for (int s = 0; s < n; ++s) {
        if (Status st = run->service->AttachShardWal(s); !st.ok()) {
          run->Violation(StrFormat(
              "cycle %d: AttachShardWal(%d) failed: %s", cycle, s,
              st.ToString().c_str()));
          return;
        }
      }
      RearmFaults(run, cycle, /*lane=*/4);
    } else if (options.kill_mode == ShardKillMode::kPartition) {
      if (i == kill_at) {
        if (cycle % 2 == 0) {
          run->net->PartitionNode(victim);  // Full isolation.
        } else {
          run->net->BlockLink(ShardedArrangementService::kGatewayNode,
                              victim);  // One-way: requests die, acks ok.
        }
        ++run->report.partitions_injected;
      } else if (i == recover_at) {
        run->net->HealAll();
      }
    } else if (options.kill_mode == ShardKillMode::kRebalance &&
               i == kill_at) {
      run->env->DisarmAll();
      if (!RebalanceDrill(run, cycle)) return;
      RearmFaults(run, cycle, /*lane=*/5);
    }
    const bool arm = crash_pending && i >= crash_at;
    const ArrivalOutcome outcome =
        DriveOneArrival(run, cycle, static_cast<std::size_t>(i), &fb_rng,
                        &retry, arm, nullptr);
    if (outcome == ArrivalOutcome::kFailed) return;
    if (outcome == ArrivalOutcome::kCrashed) crash_pending = false;
    if (outcome == ArrivalOutcome::kSkipped && arm) {
      run->hook_armed = false;  // Serve never happened; re-arm next round.
    }
    if (!PumpTransportOnce(run, cycle)) return;
  }
  if (crash_pending && !run->stop) {
    run->Violation(StrFormat(
        "cycle %d: the scheduled mid-commit crash never fired", cycle));
  }
}

/// Invariant 6: with faults disarmed, drive until every shard's breaker
/// is closed and a durable acknowledgement proves the WALs are live.
void DriveShardsUntilReclosed(ShardedRun* run, int cycle) {
  const ShardedChaosOptions& options = *run->options;
  Pcg64 fb_rng(DeriveSeed(options.seed, "sharded-reclose-fb",
                          static_cast<std::uint64_t>(cycle)),
               /*stream=*/7);
  RetryPolicy retry(ShardedRetryOptions(options),
                    DeriveSeed(options.seed, "sharded-reclose",
                               static_cast<std::uint64_t>(cycle)));
  for (std::int64_t i = 0; i < options.reclose_budget && !run->stop; ++i) {
    ShardedFeedbackResult result;
    const ArrivalOutcome outcome =
        DriveOneArrival(run, cycle, static_cast<std::size_t>(i), &fb_rng,
                        &retry, /*arm_hook=*/false, &result);
    if (outcome == ArrivalOutcome::kFailed) return;
    if (!PumpTransportOnce(run, cycle)) return;
    if (outcome != ArrivalOutcome::kAcked || !result.durable) continue;
    bool all_closed = true;
    for (int s = 0; s < run->service->num_shards(); ++s) {
      const CircuitBreaker* breaker = run->service->shard_breaker(s);
      if (breaker != nullptr &&
          breaker->state() != CircuitBreaker::State::kClosed) {
        all_closed = false;
        break;
      }
    }
    if (all_closed) return;
  }
  run->Violation(StrFormat(
      "cycle %d: shard breakers failed to re-close within %lld rounds "
      "after faults were disarmed",
      cycle, static_cast<long long>(options.reclose_budget)));
}

/// End-of-cycle full crash: kill every shard, recover each from its WAL
/// alone, then check invariants 1–5 and 7 (6 was the re-close drive).
void CrashRecoverAllAndVerify(ShardedRun* run, int cycle) {
  ShardedArrangementService& service = *run->service;
  const int num_shards = service.num_shards();  // Grows under kRebalance.
  CheckShardCapacities(run, "live", cycle);

  for (int s = 0; s < num_shards; ++s) {
    if (!service.shard_alive(s)) continue;
    if (!KillOneShard(run, s, cycle)) return;
  }
  for (int s = 0; s < num_shards; ++s) {
    if (!RecoverOneShard(run, s, cycle)) return;
  }
  CheckShardCapacities(run, "recovered", cycle);
  CheckNoInDoubtSurvives(run, cycle, "after the full crash");

  // The union of the shards' recovered decision ledgers.
  std::map<std::uint64_t, InteractionRecord> unioned;
  for (int s = 0; s < num_shards; ++s) {
    for (auto& [txn, record] : service.Decisions(s)) {
      unioned.emplace(txn, std::move(record));
    }
  }

  // Invariant 1: recovery never invents transactions.
  for (const auto& [txn, record] : unioned) {
    if (run->truth.find(txn) == run->truth.end()) {
      run->Violation(StrFormat(
          "cycle %d: recovered transaction %llu was never acknowledged",
          cycle, static_cast<unsigned long long>(txn)));
    }
  }
  // Invariant 2: no durable acknowledgement is lost.
  for (const std::uint64_t txn : run->durable) {
    if (unioned.find(txn) == unioned.end()) {
      run->Violation(StrFormat(
          "cycle %d: durably acknowledged transaction %llu is missing "
          "from the recovered decision union",
          cycle, static_cast<unsigned long long>(txn)));
    }
  }

  // Invariant 3: the recovered union, replayed in txn order into a
  // fresh UNSHARDED service over the full instance, is bit-identical to
  // the same replay of the truth ledger.
  ArrangementService shadow_recovered(&run->world->instance(),
                                      PolicyKind::kUcb, PolicyParams{},
                                      run->policy_seed);
  ArrangementService shadow_truth(&run->world->instance(),
                                  PolicyKind::kUcb, PolicyParams{},
                                  run->policy_seed);
  std::int64_t t = 0;
  for (const auto& [txn, record] : unioned) {
    const auto it = run->truth.find(txn);
    if (it == run->truth.end()) continue;  // Already a violation above.
    ++t;
    InteractionRecord recovered_record = record;
    recovered_record.t = t;
    InteractionRecord truth_record = it->second;
    truth_record.t = t;
    if (EncodeInteractionRecord(recovered_record) !=
        EncodeInteractionRecord(truth_record)) {
      run->Violation(StrFormat(
          "cycle %d: recovered decision of txn %llu differs from the "
          "acknowledged record",
          cycle, static_cast<unsigned long long>(txn)));
    }
    if (Status st =
            shadow_recovered.RestoreInteraction(recovered_record, true);
        !st.ok()) {
      run->Violation(StrFormat(
          "cycle %d: shadow replay of recovered txn %llu failed: %s",
          cycle, static_cast<unsigned long long>(txn),
          st.ToString().c_str()));
      return;
    }
    if (Status st = shadow_truth.RestoreInteraction(truth_record, true);
        !st.ok()) {
      run->Violation(StrFormat(
          "cycle %d: shadow replay of truth txn %llu failed: %s", cycle,
          static_cast<unsigned long long>(txn), st.ToString().c_str()));
      return;
    }
  }
  if (shadow_recovered.Checkpoint() != shadow_truth.Checkpoint()) {
    run->Violation(StrFormat(
        "cycle %d: the recovered decision union replays to different "
        "learning state (Y, b) than the acknowledged truth",
        cycle));
  }
  if (shadow_recovered.rounds_served() != shadow_truth.rounds_served()) {
    run->Violation(StrFormat(
        "cycle %d: union replay round counter %lld != truth replay %lld",
        cycle,
        static_cast<long long>(shadow_recovered.rounds_served()),
        static_cast<long long>(shadow_truth.rounds_served())));
  }
  const ProblemInstance& instance = run->world->instance();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    if (shadow_recovered.state().remaining(v) !=
        shadow_truth.state().remaining(v)) {
      run->Violation(StrFormat(
          "cycle %d: union replay capacity of event %u (%lld) != truth "
          "replay (%lld)",
          cycle, v,
          static_cast<long long>(shadow_recovered.state().remaining(v)),
          static_cast<long long>(shadow_truth.state().remaining(v))));
      break;
    }
  }

  // Invariant 4: per-event capacities on the recovered shards agree
  // exactly with the unsharded shadow — every cross-shard portion
  // landed where its decision says, nowhere else.
  const ShardRouter& router = service.router();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const int owner = router.OwnerShard(v);
    const ArrangementService* inner = service.shard_service(owner);
    if (inner == nullptr) continue;  // Unreachable: all recovered above.
    const std::int64_t got = inner->state().remaining(router.LocalId(v));
    const std::int64_t want = shadow_recovered.state().remaining(v);
    if (got != want) {
      run->Violation(StrFormat(
          "cycle %d: recovered capacity of event %u on shard %d (%lld) "
          "!= unsharded shadow (%lld)",
          cycle, v, owner, static_cast<long long>(got),
          static_cast<long long>(want)));
      break;
    }
  }
}

}  // namespace

std::string ShardedChaosReport::ToString() const {
  std::string out;
  out += StrFormat("verdict:                  %s\n", ok ? "PASS" : "FAIL");
  out += StrFormat("cycles run:               %d\n", cycles_run);
  out += StrFormat("rounds acked:             %lld\n",
                   static_cast<long long>(rounds_acked));
  out += StrFormat("  durable:                %lld\n",
                   static_cast<long long>(durable_acked));
  out += StrFormat("  non-durable:            %lld\n",
                   static_cast<long long>(nondurable_acked));
  out += StrFormat("serves unavailable:       %lld\n",
                   static_cast<long long>(serves_unavailable));
  out += StrFormat("retry budgets exhausted:  %lld\n",
                   static_cast<long long>(retries_exhausted));
  out += StrFormat("faults injected:          %lld\n",
                   static_cast<long long>(faults_injected));
  out += StrFormat("cross-shard rounds:       %lld\n",
                   static_cast<long long>(cross_shard_rounds));
  out += StrFormat("reservations made:        %lld\n",
                   static_cast<long long>(reservations_made));
  out += StrFormat("reservation refusals:     %lld\n",
                   static_cast<long long>(reservation_refusals));
  out += StrFormat("in-doubt at recovery:     %lld\n",
                   static_cast<long long>(in_doubt_seen));
  out += StrFormat("  resolved committed:     %lld\n",
                   static_cast<long long>(resolved_committed));
  out += StrFormat("  resolved aborted:       %lld\n",
                   static_cast<long long>(resolved_aborted));
  out += StrFormat("interrupted txns:         %lld completed, %lld aborted\n",
                   static_cast<long long>(interrupted_completed),
                   static_cast<long long>(interrupted_aborted));
  out += StrFormat("mid-commit crashes:       %lld\n",
                   static_cast<long long>(mid_commit_crashes));
  out += StrFormat("shard kills/recoveries:   %lld/%lld\n",
                   static_cast<long long>(shard_kills),
                   static_cast<long long>(shard_recoveries));
  out += StrFormat("breaker opens/closes:     %lld/%lld\n",
                   static_cast<long long>(breaker_opens),
                   static_cast<long long>(breaker_closes));
  out += StrFormat("breaker probes:           %lld\n",
                   static_cast<long long>(breaker_probes));
  out += StrFormat("wal reopens:              %lld\n",
                   static_cast<long long>(wal_reopens));
  out += StrFormat("duplicate frames skipped: %lld\n",
                   static_cast<long long>(duplicate_frames_skipped));
  out += StrFormat("torn bytes truncated:     %lld\n",
                   static_cast<long long>(bytes_truncated));
  out += StrFormat("learner merges:           %lld\n",
                   static_cast<long long>(merges));
  if (messages_sent > 0 || partitions_injected > 0) {
    out += StrFormat("messages sent/drop/dup:   %lld/%lld/%lld\n",
                     static_cast<long long>(messages_sent),
                     static_cast<long long>(messages_dropped),
                     static_cast<long long>(messages_duplicated));
    out += StrFormat("dup suppressed:           %lld\n",
                     static_cast<long long>(dup_suppressed));
    out += StrFormat("net timeouts/retries:     %lld/%lld\n",
                     static_cast<long long>(net_timeouts),
                     static_cast<long long>(net_retries));
    out += StrFormat("partitions injected:      %lld\n",
                     static_cast<long long>(partitions_injected));
    out += StrFormat("leases expired:           %lld\n",
                     static_cast<long long>(leases_expired));
    out += StrFormat("force-aborted stages:     %lld (%lld rounds)\n",
                     static_cast<long long>(force_aborted_stages),
                     static_cast<long long>(force_aborted_rounds));
    out += StrFormat("redelivered portions:     %lld\n",
                     static_cast<long long>(redelivered_portions));
  }
  if (rebalances > 0 || rebalances_aborted > 0) {
    out += StrFormat("rebalances ok/aborted:    %lld/%lld\n",
                     static_cast<long long>(rebalances),
                     static_cast<long long>(rebalances_aborted));
    out += StrFormat("events moved:             %lld\n",
                     static_cast<long long>(events_moved));
  }
  for (const std::string& violation : violations) {
    out += "VIOLATION: " + violation + "\n";
  }
  return out;
}

StatusOr<ShardKillMode> ParseKillMode(std::string_view name) {
  if (name == "one-shard") return ShardKillMode::kOneShard;
  if (name == "coordinator-mid-commit") {
    return ShardKillMode::kCoordinatorMidCommit;
  }
  if (name == "all") return ShardKillMode::kAll;
  if (name == "partition") return ShardKillMode::kPartition;
  if (name == "rebalance") return ShardKillMode::kRebalance;
  return InvalidArgumentError(StrFormat(
      "unknown kill mode '%s' (try: one-shard, coordinator-mid-commit, "
      "all, partition, rebalance)",
      std::string(name).c_str()));
}

StatusOr<ShardKillMode> ParseShardKillMode(std::string_view name) {
  return ParseKillMode(name);
}

const std::vector<std::string_view>& ShardKillModeNames() {
  static const std::vector<std::string_view> kNames = {
      "one-shard", "coordinator-mid-commit", "all", "partition",
      "rebalance"};
  return kNames;
}

StatusOr<FaultSchedule> ResolveFaultSchedule(std::string_view spec) {
  auto named = NamedFaultSchedule(spec);
  if (named.ok()) return named;
  if (spec.find('=') == std::string_view::npos) return named.status();
  auto parsed = FaultSchedule::Parse(spec);
  if (parsed.ok()) return parsed;
  return InvalidArgumentError(StrFormat(
      "bad fault schedule '%s': not a named schedule and the inline "
      "spec failed to parse (%s)",
      std::string(spec).c_str(), parsed.status().ToString().c_str()));
}

StatusOr<ShardedChaosReport> RunShardedChaos(
    const ShardedChaosOptions& options) {
  if (options.wal_dir.empty()) {
    return InvalidArgumentError("sharded chaos: wal_dir is required");
  }
  if (options.shards < 1 || options.cycles < 1 ||
      options.rounds_per_cycle < 1) {
    return InvalidArgumentError(
        "sharded chaos: shards, cycles, and rounds_per_cycle must be >= 1");
  }
  FaultInjectionEnv env(Env::Default());
  // kRebalance grows the topology by one shard per cycle; those future
  // shard directories must be fresh too.
  const int max_shards =
      options.shards + (options.kill_mode == ShardKillMode::kRebalance
                            ? options.cycles
                            : 0);
  for (int s = 0; s < max_shards; ++s) {
    const std::string dir = ShardWalDirName(options.wal_dir, s);
    if (auto names = env.ListDir(dir); names.ok()) {
      for (const std::string& name : *names) {
        if (StartsWith(name, "wal-")) {
          return InvalidArgumentError(StrFormat(
              "sharded chaos: %s already holds WAL segments — the run "
              "needs a fresh directory",
              dir.c_str()));
        }
      }
    }
  }

  SyntheticConfig config;
  config.num_events = options.num_events;
  config.dim = options.dim;
  config.horizon = 100000;
  config.seed = DeriveSeed(options.seed, "sharded-world");
  auto world = SyntheticWorld::Create(config);
  if (!world.ok()) return world.status();

  // The fabric for kPartition mode. Declared before the run so it
  // outlives the service (servers unregister from it on destruction).
  SimulatedNetwork net(DeriveSeed(options.seed, "sharded-net"));
  NetFaultSchedule net_schedule;
  if (options.kill_mode == ShardKillMode::kPartition) {
    auto parsed = NetFaultSchedule::Parse(options.net_schedule);
    if (!parsed.ok()) return parsed.status();
    net_schedule = *parsed;
  }

  ShardedRun run;
  run.options = &options;
  run.world = world->get();
  run.env = &env;
  run.policy_seed = DeriveSeed(options.seed, "sharded-policy");

  ShardedOptions service_options;
  service_options.num_shards = options.shards;
  service_options.seed = run.policy_seed;
  service_options.merge_every = options.merge_every;
  run.service = std::make_unique<ShardedArrangementService>(
      &run.world->instance(), service_options);
  run.service->set_crash_after_decision_hook([&run](std::uint64_t txn) {
    if (!run.hook_armed) return false;
    run.hook_armed = false;
    run.hook_fired_txn = txn;
    return true;
  });
  run.ring.resize(64);
  for (std::size_t i = 0; i < run.ring.size(); ++i) {
    run.ring[i] =
        run.world->provider().NextRound(static_cast<std::int64_t>(i) + 1);
  }
  if (options.kill_mode == ShardKillMode::kPartition) {
    ShardTransportOptions topts;
    topts.lease_ticks = options.lease_ticks;
    if (Status st = run.service->ConfigureTransport(&net, topts);
        !st.ok()) {
      return st;
    }
    run.net = &net;
  }

  DurabilityPolicy durability;
  durability.on_wal_error = DurabilityPolicy::OnWalError::kFailRound;
  durability.breaker_enabled = true;
  durability.breaker.failure_threshold = options.breaker_failure_threshold;
  durability.breaker.open_cooldown_ns =
      options.breaker_cooldown_ticks;  // Logical-clock ticks.
  durability.breaker.clock = &ChaosClockNow;

  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    if (Status st = run.service->AttachWals(&env, options.wal_dir,
                                            WalOptions{}, durability);
        !st.ok()) {
      return st;
    }
    RearmFaults(&run, cycle, /*lane=*/0);
    if (run.net != nullptr) {
      NetFaultSchedule cycle_faults = net_schedule;
      cycle_faults.seed = DeriveSeed(options.seed, "sharded-net-faults",
                                     static_cast<std::uint64_t>(cycle));
      net.ApplySchedule(cycle_faults);
    }

    DriveShardedCycle(&run, cycle);
    env.DisarmAll();
    if (run.net != nullptr && !run.stop) {
      // Heal whatever the cycle left partitioned, quiet the fault dice,
      // and drain to zero stuck transactions (invariant 8) before the
      // end-of-cycle crash drill.
      net.HealAll();
      net.DisarmFaults();
      DrainTransport(&run, cycle);
    }
    if (!run.stop) DriveShardsUntilReclosed(&run, cycle);
    if (run.stop) break;

    CrashRecoverAllAndVerify(&run, cycle);
    ++run.report.cycles_run;
    if (run.stop) break;
  }

  // Final telemetry sweep (per-shard counters survive kills; the
  // breakers were harvested at each destruction point, plus any still
  // alive now).
  for (int s = 0; s < run.service->num_shards(); ++s) {
    HarvestBreaker(&run, s);
    run.report.wal_reopens += run.service->ShardHealth(s).wal_reopens;
  }
  const ShardedStats stats = run.service->Stats();
  run.report.cross_shard_rounds = stats.cross_shard_rounds;
  run.report.reservations_made = stats.reservations_made;
  run.report.reservation_refusals = stats.reservation_refusals;
  run.report.merges = stats.merges;
  run.report.faults_injected = env.faults_injected();
  run.report.leases_expired = stats.leases_expired;
  run.report.force_aborted_stages = stats.force_aborted;
  run.report.redelivered_portions = stats.redelivered_portions;
  run.report.rebalances = stats.rebalances;
  run.report.rebalances_aborted = stats.rebalances_aborted;
  run.report.events_moved = stats.events_moved;
  if (run.net != nullptr) {
    const NetworkStats net_stats = net.stats();
    run.report.messages_sent = net_stats.sent;
    run.report.messages_dropped = net_stats.dropped;
    run.report.messages_duplicated = net_stats.duplicated;
    run.report.net_timeouts = run.service->TransportTimeouts();
    run.report.net_retries = run.service->TransportRetries();
    run.report.dup_suppressed = run.service->TransportDupSuppressed();
  }
  run.report.ok = run.report.violations.empty() &&
                  run.report.cycles_run == options.cycles;
  return std::move(run.report);
}

}  // namespace fasea
