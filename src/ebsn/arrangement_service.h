// ArrangementService: the embeddable front door of a FASEA deployment.
//
// Owns the policy, the live platform state (remaining capacities), and
// the interaction log, and enforces the online protocol of Definition 3:
// each arriving user gets an immediate, feasible, irrevocable proposal;
// the user's feedback must be submitted before the next user is served;
// accepted events consume capacity; every interaction is logged and
// learned from.
//
// Durability: with a WAL attached (AttachWal), SubmitFeedback persists
// the interaction *before* mutating any state — write-ahead — so a crash
// never loses an applied round. A WAL append/fsync failure is handled
// per DurabilityPolicy: fail the round with a retryable kUnavailable
// (nothing changed, the caller may retry), or degrade to
// serve-without-logging while wal_degraded() surfaces the condition to
// health checks.
//
// Self-healing (DurabilityPolicy::breaker_enabled): the WAL append path
// runs behind a CircuitBreaker. Consecutive append failures trip it open
// — the service keeps serving, acknowledging rounds as non-durable
// without touching the dying disk — and after the cooldown a half-open
// probe reopens the writer (fresh segment, via the WalReopenFn passed to
// AttachWal) and appends through it. A successful probe closes the
// breaker and durability re-attaches by itself; a failed probe restarts
// the cooldown. The whole cycle is observable: `fasea.breaker.state`
// gauge, `fasea.service.nondurable_rounds` / `.wal_reopens` counters,
// and Health().
//
// Overload protection: ConfigureOverload bounds ServeUser admission — a
// token-bucket rate limit and an in-flight cap, both shedding with a
// retryable kResourceExhausted *before* the round mutex is touched, so
// overload queues at the client, not inside the server. ServeUser and
// SubmitFeedback also accept a Deadline; a request whose deadline passes
// while waiting for the pipeline fails with kDeadlineExceeded (not
// retryable — the caller has moved on). EnterLameDuck() starts a drain:
// new rounds are rejected while the pending round's feedback is still
// accepted.
//
// Numerical resilience: if the policy's periodic Cholesky
// refactorization of Y ever fails (drift or corruption made Y lose
// positive-definiteness), ServeUser falls back to a stateless greedy
// proposal — feasibility is still guaranteed, learning quality is not —
// instead of crashing; stateless_fallbacks() counts such rounds.
//
// Recovery paths: Checkpoint() + WAL tail via RecoverArrangementService
// (ebsn/recovery_manager.h), checkpoint-only via FromCheckpoint, or
// InteractionLog::Replay over a persisted CSV log. After recovery the
// WAL may be re-attached (AttachWal allows re-attach whenever the
// current writer is broken or the service is degraded).
//
// Thread safety: ServeUser, SubmitFeedback, RestoreInteraction,
// Checkpoint, AttachWal, Health, and the health accessors are safe to
// call from any number of threads — one mutex serializes the round
// pipeline (the protocol itself is sequential: one pending arrangement
// at a time, so coarse locking costs no parallelism). A ServeUser racing
// a round that is mid-flight fails with the same retryable
// FailedPrecondition a single-threaded caller gets for an out-of-order
// call; closed-loop drivers (bench/load_service.cc) simply retry. The
// reference accessors state()/log()/policy() hand out unguarded views —
// take them only while no other thread is mutating (tests, recovery
// tooling). ConfigureOverload must be called before serving starts.
//
// Batched serving (ConfigureBatching): the snapshot-read alternative to
// the sequential protocol for multi-tenant deployments where many
// independent users arrive concurrently. Each ServeUserBatched call is
// served on arrival: it takes an arrival-order ticket, scores its own
// user against the current immutable learner snapshot on the calling
// thread (no round mutex held, so concurrent arrivals score in
// parallel), and resolves capacity in ticket order during one short
// critical section over a reservation view of the platform state.
// Feedback is per-ticket (SubmitBatchedFeedback), may arrive in any
// order across tickets, and each commit publishes a fresh snapshot —
// scoring never blocks on learning, learning never blocks on scoring.
// Both serving paths pass one admission gate and commit feedback
// through one write-ahead / consume / learn / log step. The sequential
// entry points are rejected while batching is enabled (and vice versa
// the batched ones before), so a deployment runs exactly one protocol
// and the sequential path stays bit-identical to a build without this
// feature.
#ifndef FASEA_EBSN_ARRANGEMENT_SERVICE_H_
#define FASEA_EBSN_ARRANGEMENT_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/admission.h"
#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/rate_limiter.h"
#include "core/checkpoint.h"
#include "core/learner_snapshot.h"
#include "core/policy_factory.h"
#include "ebsn/interaction_log.h"
#include "io/wal.h"
#include "model/platform_state.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "oracle/greedy.h"

namespace fasea {

/// What SubmitFeedback does when the write-ahead guarantee cannot be met.
struct DurabilityPolicy {
  enum class OnWalError {
    /// Fail the round with kUnavailable and change nothing; the feedback
    /// may be resubmitted once the operator restores the log (the WAL
    /// writer stays broken until then).
    kFailRound,
    /// Stop logging, keep serving, and raise the wal_degraded() health
    /// flag — availability over durability.
    kDegrade,
  };
  OnWalError on_wal_error = OnWalError::kFailRound;

  /// Runs the append path behind a circuit breaker (see the class
  /// comment). on_wal_error then governs only closed/half-open failures:
  /// kFailRound fails those rounds retryably, kDegrade acknowledges them
  /// non-durably; once the breaker is open every round is acknowledged
  /// non-durably without touching the disk, and — unlike the plain
  /// kDegrade flag — the condition heals itself when a probe succeeds.
  bool breaker_enabled = false;
  CircuitBreakerOptions breaker;
};

/// Reopens the WAL after the writer broke (typically
/// `[=] { return WalWriter::Open(env, dir, options); }` — a fresh
/// segment; sealed frames are never rewritten).
using WalReopenFn =
    std::function<StatusOr<std::unique_ptr<WalWriter>>()>;

/// ServeUser admission bounds. Zero means "unlimited" for each knob.
struct OverloadOptions {
  /// ServeUser calls allowed past admission at once (including those
  /// waiting on the round mutex); excess calls shed kResourceExhausted.
  int max_inflight = 0;
  /// Sustained ServeUser admission rate (token bucket), and its burst.
  double max_rps = 0.0;
  double burst = 0.0;  // Defaults to max_rps when 0.
};

/// Batched-serving knobs for ServeUserBatched.
struct BatchingOptions {
  /// Batched rounds allowed to be awaiting feedback at once; 0 means
  /// unlimited. Excess arrivals shed kResourceExhausted.
  int max_pending = 0;
};

/// What ServeUserBatched returns: the proposal plus the ids tying the
/// later SubmitBatchedFeedback call and the telemetry to this round.
struct BatchedRound {
  /// Arrival-order id assigned at admission; identifies the round to
  /// SubmitBatchedFeedback and seeds the policy's per-user randomness.
  std::int64_t ticket = 0;
  /// Epoch (learner observation count) of the snapshot that scored the
  /// proposal — the staleness bound of its estimates.
  std::int64_t epoch = 0;
  Arrangement arrangement;
};

/// Coarse service condition, exported as the `fasea.service.health_state`
/// gauge (numeric values below) for dashboards and `fasea_cli stats`.
enum class HealthState {
  kHealthy = 0,   // Serving, durable (when a WAL is attached).
  kDegraded = 1,  // Serving, but non-durably or via the stateless
                  // fallback — investigate.
  kLameDuck = 2,  // Draining: no new rounds, pending feedback accepted.
};

std::string_view HealthStateName(HealthState state);

/// One consistent snapshot of everything a health check wants to know.
struct HealthSnapshot {
  HealthState state = HealthState::kHealthy;
  bool wal_attached = false;
  bool wal_degraded = false;
  bool learner_healthy = true;
  bool breaker_enabled = false;
  CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
  std::int64_t rounds_served = 0;
  std::int64_t rounds_shed = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t nondurable_rounds = 0;
  std::int64_t wal_reopens = 0;
  std::int64_t stateless_fallbacks = 0;
};

/// One peer-shard observation for delta-merge: the arranged event's
/// context row and its 0/1 reward (see AbsorbPeerObservations).
struct PeerObservation {
  std::vector<double> context;
  double reward = 0.0;
};

/// Per-round outcome detail for SubmitFeedback callers that track
/// durability (the chaos harness keeps a ledger of durable acks).
struct FeedbackResult {
  std::int64_t round = 0;
  /// True when the interaction reached the WAL under the writer's fsync
  /// policy. False when no WAL is attached, the service is degraded, or
  /// the breaker swallowed the append.
  bool durable = false;
};

class ArrangementService {
 public:
  /// `instance` must outlive the service. `seed` feeds the policy's
  /// exploration randomness.
  ArrangementService(const ProblemInstance* instance, PolicyKind kind,
                     const PolicyParams& params, std::uint64_t seed);

  /// As above, but restores the policy's learning state from a checkpoint
  /// blob produced by Checkpoint().
  static StatusOr<std::unique_ptr<ArrangementService>> FromCheckpoint(
      const ProblemInstance* instance, std::string_view blob,
      std::uint64_t seed);

  /// Attaches a write-ahead log: every subsequent SubmitFeedback encodes
  /// the interaction and appends it (with the writer's fsync policy)
  /// before any state changes. Re-attach is allowed when the current
  /// writer is broken or the service is WAL-degraded (post-recovery
  /// re-arm); it clears the degraded flag and rebuilds the breaker.
  /// `reopen` is required for breaker self-healing — without it a
  /// half-open probe over a broken writer fails and the breaker stays
  /// open until re-attach.
  void AttachWal(std::unique_ptr<WalWriter> wal,
                 DurabilityPolicy policy = {}, WalReopenFn reopen = {});

  /// Attaches a decision log (obs/decision_log.h): every subsequent
  /// ServeUser appends one record — round, user, context hash, proposed
  /// arrangement, the behavior policy's propensity for it, policy id, θ̂
  /// version, txn and trace ids — beside the feedback WAL. Logging is
  /// best-effort observability: an append failure counts
  /// fasea.decision.append_failures and serving continues.
  void AttachDecisionLog(std::unique_ptr<DecisionLogWriter> log);

  /// The transaction/trace ids the NEXT ServeUser stamps on its spans and
  /// decision record. The sharded coordinator calls this so per-shard
  /// records and spans carry the coordinator's ids; without it the
  /// unsharded service defaults to txn = t and trace = Mix64(t). Consumed
  /// by the next ServeUser (success or failure).
  void SetNextRoundTrace(std::uint64_t txn, std::uint64_t trace_id);

  /// Installs admission bounds for ServeUser. Call before serving
  /// starts (not thread-safe against in-flight requests).
  void ConfigureOverload(const OverloadOptions& options);

  /// Switches the service to batched serving (see the class comment):
  /// ServeUserBatched/SubmitBatchedFeedback become the entry points and
  /// the sequential ServeUser/SubmitFeedback are rejected. Call before
  /// serving starts, on a ridge-backed policy other than Boltzmann (its
  /// softmax draw has no per-row snapshot rule), with no decision log
  /// attached (decision propensities are defined against live state,
  /// which batched proposals never observe). Sticky.
  void ConfigureBatching(const BatchingOptions& options);
  bool batching_enabled() const {
    return batching_enabled_.load(std::memory_order_acquire);
  }

  /// Batched-mode ServeUser, served on arrival: passes the same
  /// admission gate as ServeUser, takes an arrival-order ticket, scores
  /// this user against the current learner snapshot on the calling
  /// thread, and resolves its capacity in ticket order against the
  /// reservation view of the platform state (so two concurrent batched
  /// users can never be promised the same last seat). Sheds match
  /// ServeUser. The deadline is checked once, before the ticket is
  /// taken; a ticketed call always resolves, since every later ticket
  /// waits for its turn.
  StatusOr<BatchedRound> ServeUserBatched(std::int64_t user_id,
                                          std::int64_t user_capacity,
                                          const ContextMatrix& contexts,
                                          const Deadline& deadline = {});

  /// Feedback for a batched round, by ticket; order across outstanding
  /// tickets is free. Runs the same write-ahead / consume / learn / log
  /// pipeline as SubmitFeedback (the committed record gets the next
  /// round id, so WAL replay order is commit order), releases the
  /// round's rejected-seat reservations, and publishes a fresh learner
  /// snapshot for subsequent arrivals. On kUnavailable nothing changed
  /// and the same call may be retried.
  Status SubmitBatchedFeedback(std::int64_t ticket,
                               const Feedback& feedback,
                               FeedbackResult* result = nullptr,
                               const Deadline& deadline = {});

  /// The snapshot batched scoring currently reads (nullptr before
  /// ConfigureBatching). Epochs are monotone across feedback commits.
  std::shared_ptr<const LearnerSnapshot> CurrentSnapshot() const;

  /// Batched rounds proposed but not yet fed back.
  std::int64_t pending_batched_rounds() const {
    return pending_batched_count_.load(std::memory_order_relaxed);
  }

  /// Begins draining: every later ServeUser is rejected (kUnavailable)
  /// while SubmitFeedback still completes the pending round. Sticky.
  void EnterLameDuck();

  /// Serves the next arriving user: proposes a feasible arrangement for
  /// the revealed contexts. Fails if the previous user's feedback has not
  /// been submitted yet or the round is malformed; sheds
  /// kResourceExhausted when admission bounds are hit and
  /// kDeadlineExceeded when `deadline` passes before the pipeline is
  /// acquired.
  StatusOr<Arrangement> ServeUser(std::int64_t user_id,
                                  std::int64_t user_capacity,
                                  const ContextMatrix& contexts,
                                  const Deadline& deadline = {});

  /// As above with a Remark 2 availability mask: only events with
  /// available[v] != 0 may be arranged this round (empty = all). The
  /// sharded serving layer uses this to exclude events that conflict
  /// with portions already arranged on other shards.
  StatusOr<Arrangement> ServeUser(std::int64_t user_id,
                                  std::int64_t user_capacity,
                                  const ContextMatrix& contexts,
                                  std::vector<std::uint8_t> available,
                                  const Deadline& deadline = {});

  /// Rolls back the round opened by the last ServeUser before any
  /// feedback was applied: the pending arrangement is discarded and the
  /// round counter returns to its pre-serve value. Nothing about the
  /// round reached the WAL (SubmitFeedback is the write-ahead point), so
  /// the rollback is purely in-memory. The two-phase cross-shard
  /// protocol uses this when a reservation cannot be obtained. Fails
  /// kFailedPrecondition when no round is pending.
  Status AbortPendingRound();

  /// Submits the served user's feedback (aligned with the returned
  /// arrangement): logs to the WAL (if attached), consumes capacities,
  /// trains the policy, records the interaction. On kUnavailable nothing
  /// has changed and the same feedback may be submitted again. `result`
  /// (optional) reports the round id and whether the ack is durable.
  Status SubmitFeedback(const Feedback& feedback,
                        FeedbackResult* result = nullptr,
                        const Deadline& deadline = {});

  /// Folds a peer shard's observation delta into the learner (ridge
  /// state is additive, so absorbing (x, r) pairs out of round order is
  /// exact) and then runs an exact Cholesky refactorization restart —
  /// the repair for the factor drift a merged batch of rank-1 updates
  /// can accumulate. Thread-safe against the round pipeline. No effect
  /// on capacities, the log, or the round counter; absorbed
  /// observations are soft state that crash recovery does not restore
  /// (the next merge re-syncs). kFailedPrecondition for policies
  /// without ridge state.
  Status AbsorbPeerObservations(const std::vector<PeerObservation>& delta);

  /// Serializes the policy's learning state (see core/checkpoint.h).
  std::string Checkpoint() const;

  /// Recovery hook: re-applies one previously logged interaction —
  /// capacity consumption, the in-memory log, and the round counter;
  /// policy learning only when `learn` is true (records already covered
  /// by a checkpoint were learned before it was cut). Records must
  /// arrive in strictly increasing `t` order (gaps are legal: rounds
  /// served non-durably leave none). On failure nothing has changed.
  /// Used by RecoverArrangementService.
  Status RestoreInteraction(const InteractionRecord& record, bool learn);

  /// Rebalance hook: folds a migrated event's consumed-so-far capacity
  /// into the state without a log record or a round-counter step — the
  /// consumption happened on another shard under a previous ownership
  /// epoch, and its per-round history stays in that shard's WAL. Fails
  /// (nothing changed) when the event is unknown, `consumed` is
  /// negative, or it exceeds the event's remaining capacity.
  Status RestoreMigratedCapacity(EventId event, std::int64_t consumed);

  /// Unguarded views — require external quiescence (see the thread-safety
  /// note above).
  const PlatformState& state() const { return state_; }
  const InteractionLog& log() const { return log_; }
  const Policy& policy() const { return *policy_; }
  /// Mutable policy access — for recovery tooling and fault-injection
  /// tests; production serving goes through ServeUser/SubmitFeedback.
  Policy* mutable_policy() { return policy_.get(); }
  /// The attached decision log (nullptr when none); mutable access for
  /// Sync/Close at shutdown.
  DecisionLogWriter* mutable_decision_log() { return decision_log_.get(); }
  std::int64_t rounds_served() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return t_;
  }
  bool AwaitingFeedback() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return pending_;
  }

  // --- Health -----------------------------------------------------------

  /// Consistent snapshot of the service's condition.
  HealthSnapshot Health() const;

  bool wal_attached() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return wal_ != nullptr;
  }
  /// True once a WAL failure switched the service to serve-without-
  /// logging (DurabilityPolicy::kDegrade). Rounds served past this point
  /// are not recoverable from the WAL.
  bool wal_degraded() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return wal_degraded_;
  }
  std::int64_t wal_append_failures() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return wal_append_failures_;
  }
  /// Rounds proposed by the stateless fallback because the learner's
  /// numerical state went unhealthy.
  std::int64_t stateless_fallbacks() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return stateless_fallbacks_;
  }
  /// Rounds acknowledged without reaching the WAL (breaker open or a
  /// swallowed append failure under kDegrade + breaker).
  std::int64_t nondurable_rounds() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return nondurable_rounds_;
  }
  /// Times a half-open probe reopened the broken writer.
  std::int64_t wal_reopens() const {
    std::lock_guard<std::timed_mutex> lock(mu_);
    return wal_reopens_;
  }
  std::int64_t rounds_shed() const {
    return rounds_shed_.load(std::memory_order_relaxed);
  }
  std::int64_t deadline_exceeded() const {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }
  bool lame_duck() const {
    return lame_duck_.load(std::memory_order_relaxed);
  }
  /// The append-path breaker, or nullptr when breaker_enabled is off.
  /// Stable once AttachWal returns; for tests and stats tooling.
  const CircuitBreaker* breaker() const { return breaker_.get(); }

 private:
  ArrangementService(const ProblemInstance* instance, PolicyKind kind,
                     const PolicyParams& params);

  /// A batched round between proposal and feedback.
  struct PendingBatched {
    RoundContext round;
    Arrangement arrangement;
    std::int64_t epoch = 0;
  };

  /// Greedy feasible arrangement that consults no learned state: events
  /// in id order, skipping unavailable/full/conflicting ones, up to the
  /// user capacity.
  Arrangement StatelessProposal(const RoundContext& round) const;
  /// As above against an explicit capacity view (the batched path passes
  /// its reservation state).
  Arrangement StatelessProposal(const RoundContext& round,
                                const PlatformState& state) const;

  /// The admission gate of both serve entry points: rejects a draining
  /// service, then sheds past the in-flight cap or the rate limit.
  /// `*permit` holds the caller's in-flight slot until it is destroyed.
  Status Admit(InflightLimiter::Permit* permit);
  /// Re-captures the learner state and swaps the published snapshot.
  /// No-op until batching is enabled.
  void PublishSnapshotLocked();

  /// The commit step of both feedback paths, for round `t`: checks
  /// `feedback` against `arrangement`, writes the record ahead to the
  /// WAL, consumes the accepted seats from state_, trains the policy and
  /// appends the record to the log. A non-OK return means nothing was
  /// applied; `*durable` reports whether the record reached the WAL.
  /// The caller owns the round counter and its pending-round
  /// bookkeeping.
  Status CommitRoundLocked(std::int64_t t, const RoundContext& round,
                           const Arrangement& arrangement,
                           const Feedback& feedback, std::uint64_t trace_id,
                           bool* durable);
  /// Appends `encoded` (round `t`'s record) per the durability policy
  /// (plain / degrade / breaker). A non-OK return means the round must
  /// fail retryably with nothing applied; `*durable` reports whether the
  /// bytes reached the WAL.
  Status WalWriteAheadLocked(const std::string& encoded, std::int64_t t,
                             bool* durable);
  /// Reopens the writer if it is broken (via reopen_fn_), then appends.
  Status WalAppendLocked(std::string_view encoded, std::int64_t t);
  bool LearnerHealthyLocked() const;
  HealthState HealthStateLocked() const;
  void UpdateHealthGaugeLocked();

  /// Serializes the round pipeline and every mutable member below; the
  /// telemetry pointers are lock-free (the obs primitives are atomic).
  /// Timed so deadline-carrying requests can bound their wait.
  mutable std::timed_mutex mu_;

  const ProblemInstance* instance_;
  PolicyKind kind_;
  PolicyParams params_;
  std::unique_ptr<Policy> policy_;
  PlatformState state_;
  InteractionLog log_;

  std::unique_ptr<WalWriter> wal_;
  DurabilityPolicy durability_;
  WalReopenFn reopen_fn_;
  std::unique_ptr<CircuitBreaker> breaker_;
  bool wal_degraded_ = false;
  std::int64_t wal_append_failures_ = 0;
  std::int64_t stateless_fallbacks_ = 0;
  std::int64_t nondurable_rounds_ = 0;
  std::int64_t wal_reopens_ = 0;

  // Admission control runs before the round mutex, so its state is
  // atomic rather than mu_-guarded.
  OverloadOptions overload_;
  std::unique_ptr<RateLimiter> rate_limiter_;
  InflightLimiter inflight_;
  std::atomic<std::int64_t> rounds_shed_{0};
  std::atomic<std::int64_t> deadline_exceeded_{0};
  std::atomic<bool> lame_duck_{false};

  // --- Batched serving --------------------------------------------------
  std::atomic<bool> batching_enabled_{false};
  BatchingOptions batching_;
  // Seeds the per-ticket RandomOracle streams of eGreedy exploration
  // rows; derived from the service seed at construction.
  std::uint64_t batch_salt_ = 0;
  // Arrival-order tickets, taken lock-free once a call has passed every
  // check, so each ticket reaches its resolve turn.
  std::atomic<std::int64_t> next_ticket_{0};
  // The ticket whose capacity resolves next (mu_-guarded, resolve_cv_):
  // arrivals score concurrently but consume capacity strictly in ticket
  // order, so contention is deterministic given the arrival order.
  std::int64_t resolve_turn_ = 1;
  std::condition_variable_any resolve_cv_;
  // Batched rounds between proposal and feedback, by ticket
  // (mu_-guarded); the count mirrors the map size for lock-free
  // admission checks.
  std::unordered_map<std::int64_t, PendingBatched> batched_pending_;
  std::atomic<std::int64_t> pending_batched_count_{0};
  // state_ minus outstanding batched reservations: resolution consumes
  // from this view at propose time so concurrent arrivals cannot
  // oversell a seat; feedback releases rejected seats back
  // (mu_-guarded). Equals state_ whenever no round is outstanding.
  PlatformState effective_state_;
  GreedyOracle batch_oracle_;
  // The published immutable learner snapshot: swapped on every feedback
  // commit under snapshot_mu_ (held only for the pointer swap), read by
  // scoring with no round-mutex involvement.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const LearnerSnapshot> snapshot_;

  std::unique_ptr<DecisionLogWriter> decision_log_;
  // Ids stamped on the next round's spans and decision record (0 = use
  // the unsharded defaults txn = t, trace = Mix64(t)).
  std::uint64_t next_txn_override_ = 0;
  std::uint64_t next_trace_override_ = 0;

  std::int64_t t_ = 0;
  bool pending_ = false;
  RoundContext pending_round_;
  Arrangement pending_arrangement_;
  std::uint64_t pending_txn_ = 0;
  std::uint64_t pending_trace_id_ = 0;

  // --- Telemetry (process-wide registry; see DESIGN.md §8) --------------
  Histogram* serve_latency_ =
      Metrics()->GetHistogram("fasea.serve.latency_ns");
  Histogram* feedback_latency_ =
      Metrics()->GetHistogram("fasea.feedback.latency_ns");
  Counter* serve_rounds_metric_ =
      Metrics()->GetCounter("fasea.serve.rounds");
  Counter* serve_errors_metric_ =
      Metrics()->GetCounter("fasea.serve.errors");
  Counter* proposed_events_metric_ =
      Metrics()->GetCounter("fasea.serve.proposed_events");
  Counter* aborted_rounds_metric_ =
      Metrics()->GetCounter("fasea.serve.aborted_rounds");
  Counter* fallbacks_metric_ =
      Metrics()->GetCounter("fasea.serve.stateless_fallbacks");
  Counter* feedback_rounds_metric_ =
      Metrics()->GetCounter("fasea.feedback.rounds");
  Counter* feedback_errors_metric_ =
      Metrics()->GetCounter("fasea.feedback.errors");
  Counter* accepted_events_metric_ =
      Metrics()->GetCounter("fasea.feedback.accepted_events");
  Counter* retryable_errors_metric_ =
      Metrics()->GetCounter("fasea.feedback.retryable_errors");
  Counter* degraded_entries_metric_ =
      Metrics()->GetCounter("fasea.service.degraded_entries");
  Counter* shed_metric_ = Metrics()->GetCounter("fasea.service.shed");
  Counter* deadline_exceeded_metric_ =
      Metrics()->GetCounter("fasea.service.deadline_exceeded");
  Counter* nondurable_metric_ =
      Metrics()->GetCounter("fasea.service.nondurable_rounds");
  Counter* wal_reopens_metric_ =
      Metrics()->GetCounter("fasea.service.wal_reopens");
  Gauge* wal_degraded_gauge_ =
      Metrics()->GetGauge("fasea.service.wal_degraded");
  Gauge* learner_healthy_gauge_ =
      Metrics()->GetGauge("fasea.service.learner_healthy");
  Gauge* rounds_served_gauge_ =
      Metrics()->GetGauge("fasea.service.rounds_served");
  Gauge* health_gauge_ =
      Metrics()->GetGauge("fasea.service.health_state");
  // Batching-era names kept for their readers (perfbench): size records
  // 1 per served arrival, wait_ns the resolve wait (DESIGN.md §8).
  Histogram* batch_size_hist_ =
      Metrics()->GetHistogram("fasea.batch.size");
  Histogram* batch_wait_hist_ =
      Metrics()->GetHistogram("fasea.batch.wait_ns");
  Gauge* snapshot_epoch_gauge_ =
      Metrics()->GetGauge("fasea.snapshot.epoch");
};

}  // namespace fasea

#endif  // FASEA_EBSN_ARRANGEMENT_SERVICE_H_
