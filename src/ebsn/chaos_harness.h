// Deterministic chaos harness: proves the serving layer's crash-safety
// and self-healing claims end to end, under injected storage faults and
// kill-and-recover cycles, with multi-threaded closed-loop load.
//
// One run executes `cycles` rounds of:
//
//   1. serve `rounds_per_cycle` rounds from `threads` closed-loop
//      workers, with a FaultSchedule armed on the WAL's
//      FaultInjectionEnv and the append path behind a circuit breaker
//      (ticking on a logical clock, one tick per served round, so
//      cooldowns elapse in rounds — bit-reproducible per seed);
//   2. disarm all faults and keep serving until the breaker re-closes
//      and a durable acknowledgement is observed (or a bounded budget
//      runs out — a violation);
//   3. "crash": snapshot the in-memory truth, destroy the service,
//      recover a fresh one from the WAL alone (RecoverArrangementService)
//      and verify the invariants below, then re-attach a fresh WAL
//      writer and continue into the next cycle.
//
// Invariants checked every cycle (violations are collected, not thrown):
//
//   - No durable acknowledgement is lost: every round SubmitFeedback
//     acked with FeedbackResult::durable is among the records recovery
//     restored (RecoveredService::records).
//   - Every recovered record encodes (EncodeInteractionRecord) to the
//     same bytes as the harness's truth record of that round, and the
//     recovered service is bit-identical to a shadow service that
//     replays exactly the recovered rounds from the truth: same
//     checkpoint blob (Y, b, observation count), same remaining
//     capacities, same round counter.
//   - The WAL never invents rounds: everything recovered was acked.
//   - Remaining capacities never go negative (live and recovered).
//   - The breaker re-closes after faults disarm.
//
// The harness is deliberately deterministic for threads=1: every RNG is
// seeded from ChaosOptions::seed, the breaker runs on the logical clock,
// and the report carries no wall-clock fields — two single-threaded runs
// with the same options produce byte-identical reports. Multi-threaded
// runs interleave differently but must pass the same invariants.
//
// Backs bench/chaos_soak.cc, `fasea_cli chaos`, and the gtest suite
// (tests/ebsn_chaos_harness_test.cc).
#ifndef FASEA_EBSN_CHAOS_HARNESS_H_
#define FASEA_EBSN_CHAOS_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/synthetic.h"
#include "io/fault_injection_env.h"

namespace fasea {

struct ChaosOptions {
  /// Faults armed during each cycle's driving phase (see
  /// NamedFaultSchedule for ready-made mixes). The harness overrides
  /// schedule.seed per cycle, derived from `seed`.
  FaultSchedule schedule;
  int threads = 2;
  std::int64_t rounds_per_cycle = 200;
  int cycles = 3;
  std::uint64_t seed = 1;
  /// WAL directory — must be empty/fresh; the run owns it.
  std::string wal_dir;

  /// Breaker tuning (logical-clock ticks, one per served round).
  int breaker_failure_threshold = 3;
  std::int64_t breaker_cooldown_ticks = 32;
  /// Extra rounds allowed for step 2 before "failed to re-close".
  std::int64_t reclose_budget = 500;

  /// ServeUser in-flight admission cap (0 = unlimited).
  int max_inflight = 0;

  /// Workload shape (kept small; capacities come from the defaults).
  std::size_t num_events = 24;
  std::size_t dim = 4;
};

struct ChaosReport {
  bool ok = false;
  std::vector<std::string> violations;

  int cycles_run = 0;
  std::int64_t rounds_acked = 0;      // Completed rounds, all cycles.
  std::int64_t durable_acked = 0;     // Rounds acked durable.
  std::int64_t nondurable_acked = 0;  // Rounds acked non-durably.
  std::int64_t rounds_shed = 0;       // kResourceExhausted rejections.
  std::int64_t contention_rejects = 0;  // Racing ServeUser rejections.
  std::int64_t retries_exhausted = 0;   // RetryPolicy budgets spent.
  std::int64_t faults_injected = 0;     // Fired by the FaultInjectionEnv.
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_closes = 0;
  std::int64_t breaker_probes = 0;
  std::int64_t wal_reopens = 0;
  std::int64_t records_recovered = 0;   // Last recovery's restored rounds.
  std::int64_t duplicate_frames_skipped = 0;  // Across all recoveries.
  std::int64_t bytes_truncated = 0;           // Across all recoveries.

  std::string ToString() const;
};

/// Runs the harness; fails (Status) only on setup errors — invariant
/// violations land in the report (`ok` false, `violations` non-empty).
StatusOr<ChaosReport> RunChaos(const ChaosOptions& options);

/// Ready-made schedules: "clean", "flaky-appends", "dying-disk",
/// "torn-tail", "slow-disk". Unknown names fail kInvalidArgument.
StatusOr<FaultSchedule> NamedFaultSchedule(std::string_view name);
const std::vector<std::string_view>& NamedFaultScheduleNames();

/// Resolves `spec` as a named fault schedule, else — when it contains
/// '=' — as an inline FaultSchedule spec. The one schedule parser
/// shared by `fasea_cli chaos` and the soak drivers; errors name the
/// bad value.
StatusOr<FaultSchedule> ResolveFaultSchedule(std::string_view spec);

// --- Sharded chaos -------------------------------------------------------
//
// RunShardedChaos drives a ShardedArrangementService the same way, plus
// per-shard kill schedules. Every cycle: arm faults and serve (the kill
// mode injects its crash mid-cycle — faults are disarmed around the
// kill/recover/re-arm window, like swapping a dying disk), then disarm
// and drive until every shard's breaker re-closes, then kill ALL shards
// and recover each from its own WAL alone. Invariants, checked per
// cycle (all seven must hold):
//
//   1. recovered decisions never invent rounds (every decision txn was
//      acknowledged, or proven committed after a mid-commit crash);
//   2. no durable acknowledgement is lost (durable txns ⊆ recovered
//      decisions);
//   3. every recovered decision record encodes to the same bytes as the
//      harness's truth record of its txn, and the union of the shards'
//      recovered decision records, replayed in txn order into a fresh
//      UNSHARDED service over the full instance, is bit-identical
//      (checkpoint, capacities, round count) to the same replay of the
//      harness's own truth ledger;
//   4. per-event capacities on the recovered shards agree exactly with
//      that unsharded shadow (cross-shard portions land where the
//      decisions say);
//   5. remaining capacities never go negative, live or recovered;
//   6. every per-shard breaker re-closes after faults are disarmed;
//   7. no in-doubt reservation survives any recovery;
//   8. (kPartition) after the partitions heal, pumping clears every
//      parked portion and open reservation within the heal budget —
//      zero stuck transactions;
//   9. (kRebalance) after a grow — including one whose first attempt
//      crashed mid-protocol — every event's new owner holds exactly
//      the capacity the drain snapshot recorded.
//
// Runs are single-threaded and bit-reproducible per seed (kills fire at
// fixed round indexes, the breakers tick on the logical clock, and the
// simulated network's fault dice are re-derived per cycle).

enum class ShardKillMode {
  /// Kill one shard mid-cycle (round-robin victim across cycles),
  /// recover it later the same cycle while traffic continues around it.
  kOneShard,
  /// Crash the coordinator between the two commit phases (after its
  /// decision frame is durable, before any portion applies) and verify
  /// recovery completes the transaction on the participants. Pair with
  /// the "clean" schedule so the decision is always durable.
  kCoordinatorMidCommit,
  /// Kill every shard at once mid-cycle and recover them all.
  kAll,
  /// Run over the message transport with drop/dup/reorder faults armed
  /// cycle-long, and partition the round-robin victim mid-cycle (full
  /// isolation on even cycles, a one-way gateway->victim cut on odd
  /// ones). After the heal, draining must leave zero stuck
  /// transactions (invariant 8).
  kPartition,
  /// Grow the topology by one shard mid-cycle: first with a crash
  /// injected at protocol step cycle%3 (after-drain / mid-transfer /
  /// pre-flip — the attempt must abort cleanly and leave the old
  /// topology serving), then for real, with capacity conservation
  /// audited against the drain snapshot (invariant 9).
  kRebalance,
};

/// The one kill-mode parser shared by `fasea_cli chaos` and the chaos
/// harnesses; errors name the bad value and list the valid modes.
StatusOr<ShardKillMode> ParseKillMode(std::string_view name);
/// Back-compat alias for ParseKillMode.
StatusOr<ShardKillMode> ParseShardKillMode(std::string_view name);
const std::vector<std::string_view>& ShardKillModeNames();

struct ShardedChaosOptions {
  FaultSchedule schedule;
  int shards = 4;
  ShardKillMode kill_mode = ShardKillMode::kOneShard;
  std::int64_t rounds_per_cycle = 120;
  int cycles = 3;
  std::uint64_t seed = 1;
  /// Base directory; shard WALs live in `<wal_dir>/shard-NNN/`.
  std::string wal_dir;

  int breaker_failure_threshold = 3;
  std::int64_t breaker_cooldown_ticks = 32;
  std::int64_t reclose_budget = 500;
  /// Delta-merge cadence forwarded to the service (0 = off). Merged
  /// learner state is soft and deliberately outside the replay
  /// invariants.
  std::int64_t merge_every = 0;

  /// Deliberately tiny partitions (~num_events/shards events each) so
  /// spillover — and with it the two-phase protocol — fires constantly.
  std::size_t num_events = 12;
  std::size_t dim = 4;

  /// kPartition only: NetFaultSchedule spec armed for the whole cycle
  /// (the seed is re-derived per cycle, so runs stay reproducible).
  std::string net_schedule =
      "drop_rate=0.12;dup_rate=0.1;reorder_rate=0.1;jitter_ticks=2";
  /// kPartition only: reservation/serve-stage lease, in network ticks.
  std::int64_t lease_ticks = 48;
  /// kPartition only: max pump/tick iterations for the post-heal drain
  /// before open work counts as stuck (invariant 8).
  std::int64_t heal_budget_ticks = 4096;
};

struct ShardedChaosReport {
  bool ok = false;
  std::vector<std::string> violations;

  int cycles_run = 0;
  std::int64_t rounds_acked = 0;
  std::int64_t durable_acked = 0;
  std::int64_t nondurable_acked = 0;
  std::int64_t serves_unavailable = 0;  // Dead-home arrivals re-routed.
  std::int64_t retries_exhausted = 0;
  std::int64_t faults_injected = 0;

  std::int64_t cross_shard_rounds = 0;
  std::int64_t reservations_made = 0;
  std::int64_t reservation_refusals = 0;
  std::int64_t in_doubt_seen = 0;  // Reservations open at recovery.
  std::int64_t resolved_committed = 0;
  std::int64_t resolved_aborted = 0;
  std::int64_t interrupted_completed = 0;
  std::int64_t interrupted_aborted = 0;
  std::int64_t mid_commit_crashes = 0;

  std::int64_t shard_kills = 0;
  std::int64_t shard_recoveries = 0;
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_closes = 0;
  std::int64_t breaker_probes = 0;
  std::int64_t wal_reopens = 0;
  std::int64_t duplicate_frames_skipped = 0;
  std::int64_t bytes_truncated = 0;
  std::int64_t merges = 0;

  // Transport telemetry (kPartition; zero otherwise).
  std::int64_t messages_sent = 0;
  std::int64_t messages_dropped = 0;
  std::int64_t messages_duplicated = 0;
  std::int64_t dup_suppressed = 0;
  std::int64_t net_timeouts = 0;
  std::int64_t net_retries = 0;
  std::int64_t partitions_injected = 0;
  std::int64_t leases_expired = 0;
  std::int64_t force_aborted_stages = 0;  // Presumed-abort expiries.
  std::int64_t force_aborted_rounds = 0;  // Arrivals lost to them.
  std::int64_t redelivered_portions = 0;

  // Rebalance telemetry (kRebalance; zero otherwise).
  std::int64_t rebalances = 0;
  std::int64_t rebalances_aborted = 0;
  std::int64_t events_moved = 0;

  std::string ToString() const;
};

/// Runs the sharded harness; Status only on setup errors — invariant
/// violations land in the report.
StatusOr<ShardedChaosReport> RunShardedChaos(
    const ShardedChaosOptions& options);

}  // namespace fasea

#endif  // FASEA_EBSN_CHAOS_HARNESS_H_
