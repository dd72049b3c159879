#include "ebsn/arrangement_service.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "oracle/random_oracle.h"
#include "rng/seed.h"

namespace fasea {

namespace {

/// Acquires `mu` honoring `deadline`; false on timeout (lock not held).
/// An already-expired deadline returns false immediately (remaining <= 0
/// must never be handed to try_lock_for, whose behavior on non-positive
/// durations is an immediate — and misleading — plain try_lock).
bool LockWithDeadline(std::unique_lock<std::timed_mutex>& lock,
                      const Deadline& deadline) {
  if (deadline.infinite()) {
    lock.lock();
    return true;
  }
  const std::int64_t remaining = deadline.RemainingNanos();
  if (remaining <= 0) return false;
  return lock.try_lock_for(std::chrono::nanoseconds(remaining));
}

}  // namespace

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kLameDuck:
      return "lame-duck";
  }
  return "unknown";
}

ArrangementService::ArrangementService(const ProblemInstance* instance,
                                       PolicyKind kind,
                                       const PolicyParams& params)
    : instance_(instance),
      kind_(kind),
      params_(params),
      state_(*instance),
      log_(instance->num_events(), instance->dim()) {
  FASEA_CHECK(instance != nullptr);
}

ArrangementService::ArrangementService(const ProblemInstance* instance,
                                       PolicyKind kind,
                                       const PolicyParams& params,
                                       std::uint64_t seed)
    : ArrangementService(instance, kind, params) {
  policy_ = MakePolicy(kind, instance, params, seed);
  batch_salt_ = DeriveSeed(seed, "batch-serve");
}

StatusOr<std::unique_ptr<ArrangementService>>
ArrangementService::FromCheckpoint(const ProblemInstance* instance,
                                   std::string_view blob,
                                   std::uint64_t seed) {
  auto checkpoint = ParseCheckpoint(blob);
  if (!checkpoint.ok()) return checkpoint.status();
  auto policy = RestorePolicy(*checkpoint, instance, seed);
  if (!policy.ok()) return policy.status();
  auto service = std::unique_ptr<ArrangementService>(new ArrangementService(
      instance, checkpoint->kind, checkpoint->params));
  service->policy_ = std::move(policy).value();
  service->batch_salt_ = DeriveSeed(seed, "batch-serve");
  return service;
}

void ArrangementService::AttachWal(std::unique_ptr<WalWriter> wal,
                                   DurabilityPolicy policy,
                                   WalReopenFn reopen) {
  std::lock_guard<std::timed_mutex> lock(mu_);
  FASEA_CHECK(wal != nullptr);
  FASEA_CHECK((wal_ == nullptr || wal_degraded_ || wal_->broken()) &&
              "re-attach requires the current WAL to be broken or the "
              "service WAL-degraded");
  wal_ = std::move(wal);
  durability_ = policy;
  reopen_fn_ = std::move(reopen);
  wal_degraded_ = false;
  wal_degraded_gauge_->Set(0.0);
  breaker_ = policy.breaker_enabled
                 ? std::make_unique<CircuitBreaker>(policy.breaker)
                 : nullptr;
  UpdateHealthGaugeLocked();
}

void ArrangementService::AttachDecisionLog(
    std::unique_ptr<DecisionLogWriter> log) {
  std::lock_guard<std::timed_mutex> lock(mu_);
  FASEA_CHECK(log != nullptr);
  FASEA_CHECK(!batching_enabled_.load(std::memory_order_acquire) &&
              "decision logging is incompatible with batched serving");
  decision_log_ = std::move(log);
}

void ArrangementService::SetNextRoundTrace(std::uint64_t txn,
                                           std::uint64_t trace_id) {
  std::lock_guard<std::timed_mutex> lock(mu_);
  next_txn_override_ = txn;
  next_trace_override_ = trace_id;
}

void ArrangementService::ConfigureOverload(const OverloadOptions& options) {
  FASEA_CHECK(options.max_inflight >= 0);
  FASEA_CHECK(options.max_rps >= 0.0);
  FASEA_CHECK(options.burst >= 0.0);
  overload_ = options;
  if (options.max_rps > 0.0) {
    const double burst =
        options.burst > 0.0 ? options.burst : options.max_rps;
    rate_limiter_ = std::make_unique<RateLimiter>(options.max_rps, burst);
  } else {
    rate_limiter_.reset();
  }
}

void ArrangementService::ConfigureBatching(const BatchingOptions& options) {
  FASEA_CHECK(options.max_pending >= 0);
  std::lock_guard<std::timed_mutex> lock(mu_);
  FASEA_CHECK(dynamic_cast<const LinearPolicyBase*>(policy_.get()) !=
                  nullptr &&
              "batched serving needs a ridge learner to snapshot");
  FASEA_CHECK(kind_ != PolicyKind::kBoltzmann &&
              "the sequential softmax draw has no per-row snapshot rule; "
              "batched scoring would serve Exploit");
  FASEA_CHECK(decision_log_ == nullptr &&
              "decision-log propensities are defined against live state; "
              "detach the decision log before enabling batching");
  FASEA_CHECK(!pending_ && "enable batching before serving starts");
  batching_ = options;
  // The reservation view starts as a copy of the ground truth and stays
  // equal to it whenever no batched round is outstanding.
  effective_state_ = state_;
  batching_enabled_.store(true, std::memory_order_release);
  PublishSnapshotLocked();
}

void ArrangementService::EnterLameDuck() {
  lame_duck_.store(true, std::memory_order_relaxed);
  health_gauge_->Set(static_cast<double>(HealthState::kLameDuck));
}

Arrangement ArrangementService::StatelessProposal(
    const RoundContext& round) const {
  return StatelessProposal(round, state_);
}

Arrangement ArrangementService::StatelessProposal(
    const RoundContext& round, const PlatformState& state) const {
  const ConflictGraph& conflicts = instance_->conflicts();
  Arrangement out;
  for (EventId v = 0;
       v < instance_->num_events() &&
       static_cast<std::int64_t>(out.size()) < round.user_capacity;
       ++v) {
    if (!round.IsAvailable(v) || !state.HasCapacity(v)) continue;
    bool clashes = false;
    for (EventId arranged : out) {
      if (conflicts.Conflicts(v, arranged)) {
        clashes = true;
        break;
      }
    }
    if (!clashes) out.push_back(v);
  }
  return out;
}

bool ArrangementService::LearnerHealthyLocked() const {
  const auto* base = dynamic_cast<const LinearPolicyBase*>(policy_.get());
  return base == nullptr || base->ridge().healthy();
}

HealthState ArrangementService::HealthStateLocked() const {
  if (lame_duck_.load(std::memory_order_relaxed)) {
    return HealthState::kLameDuck;
  }
  if (wal_degraded_ || !LearnerHealthyLocked()) {
    return HealthState::kDegraded;
  }
  if (breaker_ != nullptr &&
      breaker_->state() != CircuitBreaker::State::kClosed) {
    return HealthState::kDegraded;
  }
  return HealthState::kHealthy;
}

void ArrangementService::UpdateHealthGaugeLocked() {
  health_gauge_->Set(static_cast<double>(HealthStateLocked()));
}

HealthSnapshot ArrangementService::Health() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  HealthSnapshot snapshot;
  snapshot.state = HealthStateLocked();
  snapshot.wal_attached = wal_ != nullptr;
  snapshot.wal_degraded = wal_degraded_;
  snapshot.learner_healthy = LearnerHealthyLocked();
  snapshot.breaker_enabled = breaker_ != nullptr;
  if (breaker_ != nullptr) snapshot.breaker = breaker_->state();
  snapshot.rounds_served = t_;
  snapshot.rounds_shed = rounds_shed_.load(std::memory_order_relaxed);
  snapshot.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  snapshot.nondurable_rounds = nondurable_rounds_;
  snapshot.wal_reopens = wal_reopens_;
  snapshot.stateless_fallbacks = stateless_fallbacks_;
  return snapshot;
}

Status ArrangementService::Admit(InflightLimiter::Permit* permit) {
  // Admission control runs before the round mutex: shedding exists
  // precisely to keep excess callers from queueing on the pipeline.
  if (lame_duck_.load(std::memory_order_relaxed)) {
    serve_errors_metric_->Increment();
    return UnavailableError("service is draining (lame duck)");
  }
  // Compare-and-admit: the permit is granted only while the count is
  // strictly below the limit, so exactly max_inflight callers can hold
  // one at a time (a racing overflow caller can never push an admitted
  // one over the limit and make both shed).
  *permit = inflight_.TryAcquire(overload_.max_inflight);
  if (!permit->admitted()) {
    rounds_shed_.fetch_add(1, std::memory_order_relaxed);
    shed_metric_->Increment();
    return ResourceExhaustedError(StrFormat(
        "overloaded: in-flight limit of %d reached", overload_.max_inflight));
  }
  if (rate_limiter_ != nullptr && !rate_limiter_->TryAcquire()) {
    rounds_shed_.fetch_add(1, std::memory_order_relaxed);
    shed_metric_->Increment();
    return ResourceExhaustedError(
        StrFormat("overloaded: admission rate limit of %.1f rps exceeded",
                  overload_.max_rps));
  }
  return Status::Ok();
}

StatusOr<Arrangement> ArrangementService::ServeUser(
    std::int64_t user_id, std::int64_t user_capacity,
    const ContextMatrix& contexts, const Deadline& deadline) {
  return ServeUser(user_id, user_capacity, contexts,
                   std::vector<std::uint8_t>{}, deadline);
}

StatusOr<Arrangement> ArrangementService::ServeUser(
    std::int64_t user_id, std::int64_t user_capacity,
    const ContextMatrix& contexts, std::vector<std::uint8_t> available,
    const Deadline& deadline) {
  if (batching_enabled_.load(std::memory_order_acquire)) {
    serve_errors_metric_->Increment();
    return FailedPreconditionError(
        "service is in batched mode; use ServeUserBatched");
  }
  InflightLimiter::Permit permit;
  if (Status st = Admit(&permit); !st.ok()) return st;

  std::unique_lock<std::timed_mutex> lock(mu_, std::defer_lock);
  if (!LockWithDeadline(lock, deadline)) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    deadline_exceeded_metric_->Increment();
    return DeadlineExceededError(
        "deadline expired before the round pipeline was acquired");
  }
  // Consume the sharded coordinator's id override (if any) up front so a
  // failed serve cannot leak it into an unrelated later round.
  const std::uint64_t txn = next_txn_override_ != 0
                                ? next_txn_override_
                                : static_cast<std::uint64_t>(t_ + 1);
  const std::uint64_t trace_id =
      next_trace_override_ != 0 ? next_trace_override_ : Mix64(txn);
  next_txn_override_ = 0;
  next_trace_override_ = 0;
  // Latency counts served rounds only; set_histogram runs on success.
  TraceSpan total_span("serve.total", t_ + 1, TraceRing::Global(), nullptr,
                       trace_id);
  if (pending_) {
    serve_errors_metric_->Increment();
    return FailedPreconditionError(
        "previous user's feedback has not been submitted");
  }
  RoundContext round;
  {
    TraceSpan span("serve.ingest", t_ + 1);
    round.contexts = contexts;
    round.user_capacity = user_capacity;
    round.user_id = user_id;
    round.available = std::move(available);
    if (Status st = ValidateRoundContext(round, instance_->num_events(),
                                         instance_->dim());
        !st.ok()) {
      serve_errors_metric_->Increment();
      return st;
    }
  }
  ++t_;
  Arrangement arrangement;
  const bool learner_healthy = LearnerHealthyLocked();
  learner_healthy_gauge_->Set(learner_healthy ? 1.0 : 0.0);
  {
    TraceSpan span("serve.propose", t_, TraceRing::Global(), nullptr,
                   trace_id);
    if (!learner_healthy) {
      // The learner's Y lost positive-definiteness (a failed Cholesky
      // refactorization). Serve a feasible, estimate-free arrangement
      // rather than crash or propose from a corrupt inverse.
      arrangement = StatelessProposal(round);
      ++stateless_fallbacks_;
      fallbacks_metric_->Increment();
    } else {
      arrangement = policy_->Propose(t_, round, state_);
    }
  }
  FASEA_CHECK(IsFeasibleArrangement(arrangement, instance_->conflicts(),
                                    state_, user_capacity));
  pending_ = true;
  pending_round_ = std::move(round);
  pending_arrangement_ = arrangement;
  pending_txn_ = txn;
  pending_trace_id_ = trace_id;
  if (decision_log_ != nullptr) {
    TraceSpan span("serve.decision_log", t_, TraceRing::Global(), nullptr,
                   trace_id);
    DecisionRecord decision;
    decision.round = t_;
    decision.txn = txn;
    decision.user_id = user_id;
    decision.user_capacity = user_capacity;
    decision.context_hash = HashRoundContext(pending_round_);
    decision.trace_id = trace_id;
    const auto* base =
        dynamic_cast<const LinearPolicyBase*>(policy_.get());
    decision.theta_version =
        base != nullptr ? base->ridge().num_observations() : 0;
    if (learner_healthy) {
      decision.propensity =
          policy_->PropensityOf(t_, pending_round_, state_, arrangement);
      decision.policy_id = std::string(policy_->name());
    } else {
      // The stateless fallback is deterministic given the round and
      // capacities: a point mass on what it proposed.
      decision.propensity = 1.0;
      decision.policy_id = "Stateless";
    }
    decision.arrangement = arrangement;
    // Best-effort: a failed append counts in
    // fasea.decision.append_failures, serving continues.
    (void)decision_log_->Append(decision);
  }
  serve_rounds_metric_->Increment();
  proposed_events_metric_->Add(static_cast<std::int64_t>(
      arrangement.size()));
  rounds_served_gauge_->Set(static_cast<double>(t_));
  UpdateHealthGaugeLocked();
  total_span.set_histogram(serve_latency_);
  return arrangement;
}

Status ArrangementService::WalAppendLocked(std::string_view encoded,
                                           std::int64_t t) {
  if (wal_->broken()) {
    // Only a fresh writer (new segment) can accept frames again; sealed
    // or torn bytes are never rewritten.
    if (!reopen_fn_) {
      return UnavailableError(
          "wal writer is broken and no reopen hook was attached");
    }
    auto reopened = reopen_fn_();
    if (!reopened.ok()) return reopened.status();
    wal_ = std::move(reopened).value();
    ++wal_reopens_;
    wal_reopens_metric_->Increment();
  }
  wal_->set_trace_round(t);
  return wal_->Append(encoded);
}

Status ArrangementService::WalWriteAheadLocked(const std::string& encoded,
                                               std::int64_t t,
                                               bool* durable) {
  *durable = false;
  if (wal_ == nullptr || wal_degraded_) return Status::Ok();
  if (breaker_ == nullptr) {
    wal_->set_trace_round(t);
    if (Status st = wal_->Append(encoded); st.ok()) {
      *durable = true;
    } else {
      ++wal_append_failures_;
      if (durability_.on_wal_error ==
          DurabilityPolicy::OnWalError::kFailRound) {
        retryable_errors_metric_->Increment();
        return UnavailableError(
            "durability failure, feedback not applied (retry after the "
            "log is restored): " +
            st.message());
      }
      // Degrade: availability over durability, visibly.
      wal_degraded_ = true;
      degraded_entries_metric_->Increment();
      wal_degraded_gauge_->Set(1.0);
      UpdateHealthGaugeLocked();
    }
  } else if (!breaker_->Allow()) {
    // Open (or probe slots busy): serve without touching the dying
    // disk. The round is acknowledged non-durably; the breaker's
    // cooldown decides when durability is probed again.
    ++nondurable_rounds_;
    nondurable_metric_->Increment();
  } else {
    Status st = WalAppendLocked(encoded, t);
    if (st.ok()) {
      breaker_->RecordSuccess();
      *durable = true;
    } else {
      breaker_->RecordFailure();
      ++wal_append_failures_;
      if (durability_.on_wal_error ==
          DurabilityPolicy::OnWalError::kFailRound) {
        retryable_errors_metric_->Increment();
        UpdateHealthGaugeLocked();
        return UnavailableError(
            "durability failure, feedback not applied (retry; the "
            "breaker arbitrates recovery): " +
            st.message());
      }
      ++nondurable_rounds_;
      nondurable_metric_->Increment();
    }
  }
  return Status::Ok();
}

Status ArrangementService::CommitRoundLocked(std::int64_t t,
                                             const RoundContext& round,
                                             const Arrangement& arrangement,
                                             const Feedback& feedback,
                                             std::uint64_t trace_id,
                                             bool* durable) {
  if (feedback.size() != arrangement.size()) {
    feedback_errors_metric_->Increment();
    return InvalidArgumentError(
        "feedback must align with the proposed arrangement");
  }
  for (std::uint8_t f : feedback) {
    if (f > 1) {
      feedback_errors_metric_->Increment();
      return InvalidArgumentError("feedback entries must be 0/1");
    }
  }

  InteractionRecord record;
  std::string encoded;
  {
    TraceSpan span("feedback.encode", t, TraceRing::Global(), nullptr,
                   trace_id);
    record.t = t;
    record.user_id = round.user_id;
    record.user_capacity = round.user_capacity;
    record.arrangement = arrangement;
    record.feedback = feedback;
    for (EventId v : arrangement) {
      const auto row = round.contexts.Row(v);
      record.contexts.emplace_back(row.begin(), row.end());
    }
    if (wal_ != nullptr && !wal_degraded_) {
      encoded = EncodeInteractionRecord(record);
    }
  }

  // Write-ahead: the interaction must be durable (per the writer's fsync
  // policy) before any state changes, so a crash between here and the end
  // of this function loses nothing that was applied.
  if (Status st = WalWriteAheadLocked(encoded, t, durable); !st.ok()) {
    return st;
  }

  for (std::size_t i = 0; i < feedback.size(); ++i) {
    if (feedback[i]) state_.ConsumeOne(arrangement[i]);
  }
  {
    TraceSpan span("feedback.learn", t, TraceRing::Global(), nullptr,
                   trace_id);
    policy_->Learn(t, round, arrangement, feedback);
  }
  accepted_events_metric_->Add(
      static_cast<std::int64_t>(NumAccepted(feedback)));
  FASEA_CHECK_OK(log_.Append(std::move(record)));
  feedback_rounds_metric_->Increment();
  UpdateHealthGaugeLocked();
  return Status::Ok();
}

Status ArrangementService::SubmitFeedback(const Feedback& feedback,
                                          FeedbackResult* result,
                                          const Deadline& deadline) {
  std::unique_lock<std::timed_mutex> lock(mu_, std::defer_lock);
  if (!LockWithDeadline(lock, deadline)) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    deadline_exceeded_metric_->Increment();
    return DeadlineExceededError(
        "deadline expired before the round pipeline was acquired");
  }
  // Latency counts acknowledged rounds only (set_histogram on success).
  TraceSpan total_span("feedback.total", t_, TraceRing::Global(), nullptr,
                       pending_ ? pending_trace_id_ : 0);
  if (batching_enabled_.load(std::memory_order_acquire)) {
    feedback_errors_metric_->Increment();
    return FailedPreconditionError(
        "service is in batched mode; use SubmitBatchedFeedback");
  }
  if (!pending_) {
    feedback_errors_metric_->Increment();
    return FailedPreconditionError("no arrangement is awaiting feedback");
  }
  bool durable = false;
  if (Status st = CommitRoundLocked(t_, pending_round_, pending_arrangement_,
                                    feedback, pending_trace_id_, &durable);
      !st.ok()) {
    return st;
  }
  pending_ = false;
  if (result != nullptr) {
    result->round = t_;
    result->durable = durable;
  }
  total_span.set_histogram(feedback_latency_);
  return Status::Ok();
}

StatusOr<BatchedRound> ArrangementService::ServeUserBatched(
    std::int64_t user_id, std::int64_t user_capacity,
    const ContextMatrix& contexts, const Deadline& deadline) {
  if (!batching_enabled_.load(std::memory_order_acquire)) {
    serve_errors_metric_->Increment();
    return FailedPreconditionError(
        "batched serving is not enabled (ConfigureBatching)");
  }
  InflightLimiter::Permit permit;
  if (Status st = Admit(&permit); !st.ok()) return st;
  if (batching_.max_pending > 0 &&
      pending_batched_count_.load(std::memory_order_relaxed) >=
          batching_.max_pending) {
    rounds_shed_.fetch_add(1, std::memory_order_relaxed);
    shed_metric_->Increment();
    return ResourceExhaustedError(StrFormat(
        "overloaded: %lld batched rounds awaiting feedback (limit %d)",
        static_cast<long long>(
            pending_batched_count_.load(std::memory_order_relaxed)),
        batching_.max_pending));
  }
  if (deadline.Expired()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    deadline_exceeded_metric_->Increment();
    return DeadlineExceededError(
        "deadline expired before the round was ticketed");
  }

  RoundContext round;
  round.contexts = contexts;
  round.user_capacity = user_capacity;
  round.user_id = user_id;
  if (Status st = ValidateRoundContext(round, instance_->num_events(),
                                       instance_->dim());
      !st.ok()) {
    serve_errors_metric_->Increment();
    return st;
  }
  const std::int64_t start_ns = Stopwatch::NowNanos();
  Matrix scores(1, instance_->num_events());

  // Nothing below may fail or return early: every later arrival waits
  // for this ticket's resolve turn.
  const std::int64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::shared_ptr<const LearnerSnapshot> snap = CurrentSnapshot();
  FASEA_CHECK(snap != nullptr);
  RowResolve resolve = RowResolve::kGreedy;
  if (snap->healthy) {
    // The expensive step, on the calling thread against the immutable
    // snapshot with no lock held: other arrivals and feedback commits run
    // in parallel with it.
    const SnapshotRound row{ticket, &round};
    static_cast<const LinearPolicyBase*>(policy_.get())
        ->ScoreBatchSnapshot(*snap, std::span<const SnapshotRound>(&row, 1),
                             &scores, std::span<RowResolve>(&resolve, 1));
  }
  // An eGreedy exploration row resolves through a ticket-seeded random
  // oracle, so the arrangement depends only on (snapshot, ticket, round),
  // never on which thread serves it.
  std::optional<RandomOracle> explorer;
  ArrangementOracle* oracle = &batch_oracle_;
  if (resolve == RowResolve::kRandom) {
    oracle = &explorer.emplace(
        Pcg64(DeriveSeed(batch_salt_, "explore",
                         static_cast<std::uint64_t>(ticket)),
              HashTag("batch-explore")));
  }
  const std::int64_t scored_ns = Stopwatch::NowNanos();

  Arrangement arrangement;
  {
    // The short critical section: capacity resolution over the
    // reservation view, in ticket order, so contention is deterministic
    // given the arrival order; plus pending registration.
    std::unique_lock<std::timed_mutex> lock(mu_);
    resolve_cv_.wait(lock, [&] { return resolve_turn_ == ticket; });
    batch_wait_hist_->Record(Stopwatch::NowNanos() - scored_ns);
    if (snap->healthy) {
      arrangement = oracle->Select(scores.Row(0), instance_->conflicts(),
                                   effective_state_, user_capacity);
    } else {
      // The snapshot captured an unhealthy learner: an estimate-free
      // proposal, still reserving seats so later arrivals cannot oversell.
      arrangement = StatelessProposal(round, effective_state_);
      ++stateless_fallbacks_;
      fallbacks_metric_->Increment();
    }
    FASEA_CHECK(IsFeasibleArrangement(arrangement, instance_->conflicts(),
                                      effective_state_, user_capacity));
    for (EventId v : arrangement) effective_state_.ConsumeOne(v);
    learner_healthy_gauge_->Set(snap->healthy ? 1.0 : 0.0);
    batched_pending_.emplace(
        ticket, PendingBatched{std::move(round), arrangement, snap->epoch});
    pending_batched_count_.fetch_add(1, std::memory_order_relaxed);
    proposed_events_metric_->Add(
        static_cast<std::int64_t>(arrangement.size()));
    serve_rounds_metric_->Increment();
    ++resolve_turn_;
    resolve_cv_.notify_all();
  }
  batch_size_hist_->Record(1);
  serve_latency_->Record(Stopwatch::NowNanos() - start_ns);
  return BatchedRound{ticket, snap->epoch, std::move(arrangement)};
}

Status ArrangementService::SubmitBatchedFeedback(std::int64_t ticket,
                                                 const Feedback& feedback,
                                                 FeedbackResult* result,
                                                 const Deadline& deadline) {
  std::unique_lock<std::timed_mutex> lock(mu_, std::defer_lock);
  if (!LockWithDeadline(lock, deadline)) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    deadline_exceeded_metric_->Increment();
    return DeadlineExceededError(
        "deadline expired before the round pipeline was acquired");
  }
  if (!batching_enabled_.load(std::memory_order_acquire)) {
    feedback_errors_metric_->Increment();
    return FailedPreconditionError(
        "batched serving is not enabled (ConfigureBatching)");
  }
  // Latency counts acknowledged rounds only (set_histogram on success).
  TraceSpan total_span("feedback.total", t_ + 1, TraceRing::Global());
  auto it = batched_pending_.find(ticket);
  if (it == batched_pending_.end()) {
    feedback_errors_metric_->Increment();
    return NotFoundError(
        StrFormat("ticket %lld has no batched round awaiting feedback",
                  static_cast<long long>(ticket)));
  }
  const PendingBatched& pending = it->second;
  // Commit order assigns the round id: whichever outstanding ticket lands
  // first gets the next t, so the WAL stays strictly increasing and
  // recovery replays unchanged.
  bool durable = false;
  if (Status st = CommitRoundLocked(t_ + 1, pending.round,
                                    pending.arrangement, feedback,
                                    /*trace_id=*/0, &durable);
      !st.ok()) {
    return st;  // Nothing applied; the ticket stays pending for retry.
  }
  ++t_;
  // Every proposed seat was reserved in effective_state_ at propose time:
  // an acceptance made it permanent in state_, a rejection hands it back.
  for (std::size_t i = 0; i < feedback.size(); ++i) {
    if (!feedback[i]) effective_state_.ReleaseOne(pending.arrangement[i]);
  }
  batched_pending_.erase(it);
  pending_batched_count_.fetch_sub(1, std::memory_order_relaxed);
  rounds_served_gauge_->Set(static_cast<double>(t_));
  PublishSnapshotLocked();
  if (result != nullptr) {
    result->round = t_;
    result->durable = durable;
  }
  total_span.set_histogram(feedback_latency_);
  return Status::Ok();
}

void ArrangementService::PublishSnapshotLocked() {
  if (!batching_enabled_.load(std::memory_order_acquire)) return;
  const auto* base = static_cast<const LinearPolicyBase*>(policy_.get());
  std::shared_ptr<const LearnerSnapshot> snap = base->MakeSnapshot();
  snapshot_epoch_gauge_->Set(static_cast<double>(snap->epoch));
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

std::shared_ptr<const LearnerSnapshot> ArrangementService::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Status ArrangementService::AbortPendingRound() {
  std::lock_guard<std::timed_mutex> lock(mu_);
  if (!pending_) {
    return FailedPreconditionError("no round is pending to abort");
  }
  // The round never reached the WAL (SubmitFeedback is the write-ahead
  // point) and no state was consumed, so undoing it is just forgetting
  // it: the next ServeUser re-uses the same round id.
  --t_;
  pending_ = false;
  pending_round_ = RoundContext{};
  pending_arrangement_.clear();
  aborted_rounds_metric_->Increment();
  rounds_served_gauge_->Set(static_cast<double>(t_));
  return Status::Ok();
}

Status ArrangementService::RestoreInteraction(
    const InteractionRecord& record, bool learn) {
  std::lock_guard<std::timed_mutex> lock(mu_);
  if (pending_) {
    return FailedPreconditionError(
        "cannot restore interactions while a round is awaiting feedback");
  }
  if (record.t <= t_) {
    return DataLossError(StrFormat(
        "wal replay: round %lld arrived after round %lld (out of order "
        "or duplicated frame)",
        static_cast<long long>(record.t), static_cast<long long>(t_)));
  }
  if (Status st = log_.Validate(record); !st.ok()) return st;
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    if (record.feedback[i] && !state_.HasCapacity(record.arrangement[i])) {
      return DataLossError(StrFormat(
          "wal replay: event %u accepted at round %lld but its capacity "
          "is already exhausted — log and instance disagree",
          record.arrangement[i], static_cast<long long>(record.t)));
    }
  }

  // All checks passed; apply. Append cannot fail after Validate.
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    if (record.feedback[i]) {
      state_.ConsumeOne(record.arrangement[i]);
      // Restored records carry no outstanding reservation, so the
      // effective view tracks the ground truth one-for-one.
      if (batching_enabled_.load(std::memory_order_acquire)) {
        effective_state_.ConsumeOne(record.arrangement[i]);
      }
    }
  }
  if (learn) {
    RoundContext scratch;
    scratch.contexts =
        ContextMatrix(instance_->num_events(), instance_->dim());
    InteractionLog::FeedRecord(record, instance_->num_events(),
                               instance_->dim(), policy_.get(), &scratch);
  }
  t_ = record.t;
  rounds_served_gauge_->Set(static_cast<double>(t_));
  FASEA_CHECK_OK(log_.Append(record));
  PublishSnapshotLocked();
  return Status::Ok();
}

Status ArrangementService::RestoreMigratedCapacity(EventId event,
                                                   std::int64_t consumed) {
  std::lock_guard<std::timed_mutex> lock(mu_);
  if (pending_) {
    return FailedPreconditionError(
        "cannot restore migrated capacity while a round is awaiting "
        "feedback");
  }
  if (event >= instance_->num_events()) {
    return InvalidArgumentError(StrFormat(
        "migrated event %u is outside the instance (|V| = %zu)", event,
        instance_->num_events()));
  }
  if (consumed < 0 || consumed > state_.remaining(event)) {
    return DataLossError(StrFormat(
        "migrated event %u claims %lld consumed seats but %lld remain — "
        "migration record and instance disagree",
        event, static_cast<long long>(consumed),
        static_cast<long long>(state_.remaining(event))));
  }
  for (std::int64_t i = 0; i < consumed; ++i) {
    state_.ConsumeOne(event);
    if (batching_enabled_.load(std::memory_order_acquire)) {
      effective_state_.ConsumeOne(event);
    }
  }
  PublishSnapshotLocked();
  return Status::Ok();
}

Status ArrangementService::AbsorbPeerObservations(
    const std::vector<PeerObservation>& delta) {
  std::lock_guard<std::timed_mutex> lock(mu_);
  auto* base = dynamic_cast<LinearPolicyBase*>(policy_.get());
  if (base == nullptr) {
    return FailedPreconditionError(
        "policy has no mergeable ridge state");
  }
  if (delta.empty()) return Status::Ok();
  RidgeState& ridge = base->mutable_ridge();
  for (const PeerObservation& obs : delta) {
    if (obs.context.size() != instance_->dim()) {
      return InvalidArgumentError(StrFormat(
          "peer observation has dimension %zu, instance has %zu",
          obs.context.size(), instance_->dim()));
    }
  }
  for (const PeerObservation& obs : delta) {
    ridge.Update(obs.context, obs.reward);
  }
  ridge.Refactorize();
  learner_healthy_gauge_->Set(ridge.healthy() ? 1.0 : 0.0);
  UpdateHealthGaugeLocked();
  // Batched scoring must see the merged estimates (healthy or not — an
  // unhealthy snapshot routes batches to the stateless fallback).
  PublishSnapshotLocked();
  if (!ridge.healthy()) {
    return InternalError(
        "merged delta left the learner unhealthy (refactorization "
        "failed)");
  }
  return Status::Ok();
}

std::string ArrangementService::Checkpoint() const {
  std::lock_guard<std::timed_mutex> lock(mu_);
  const auto* base = dynamic_cast<const LinearPolicyBase*>(policy_.get());
  FASEA_CHECK(base != nullptr &&
              "only ridge learners support checkpointing");
  return SaveCheckpoint(kind_, params_, *base);
}

}  // namespace fasea
