#include "ebsn/arrangement_service.h"

#include <algorithm>
#include <chrono>
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

/// One queued ServeUserBatched call. Lives on the calling thread's stack;
/// the queue holds pointers, valid until `done` flips under batch_mu_.
/// `result` is written by the batch leader while the owner is blocked and
/// read by the owner only after observing `done` — the mutex hand-off is
/// the synchronization.
struct ArrangementService::BatchWaiter {
  std::int64_t ticket = 0;
  RoundContext round;
  std::int64_t enqueue_ns = 0;
  bool claimed = false;
  bool done = false;
  StatusOr<BatchedRound> result{
      FailedPreconditionError("batched round was never resolved")};
};

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
  FASEA_CHECK(options.max_batch >= 1);
  FASEA_CHECK(options.max_wait_us >= 0);
  FASEA_CHECK(options.max_pending >= 0);
  std::lock_guard<std::timed_mutex> lock(mu_);
  FASEA_CHECK(dynamic_cast<const LinearPolicyBase*>(policy_.get()) !=
                  nullptr &&
              "batched serving needs a ridge learner to snapshot");
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
  // Admission control runs before the round mutex: shedding exists
  // precisely to keep excess callers from queueing on the pipeline.
  if (lame_duck_.load(std::memory_order_relaxed)) {
    serve_errors_metric_->Increment();
    return UnavailableError("service is draining (lame duck)");
  }
  if (batching_enabled_.load(std::memory_order_acquire)) {
    serve_errors_metric_->Increment();
    return FailedPreconditionError(
        "service is in batched mode; use ServeUserBatched");
  }
  // Compare-and-admit: the permit is granted only while the count is
  // strictly below the limit, so exactly max_inflight callers can hold
  // one at a time (a racing overflow caller can never push an admitted
  // one over the limit and make both shed).
  InflightLimiter::Permit permit = inflight_.TryAcquire(overload_.max_inflight);
  if (!permit.admitted()) {
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

Status ArrangementService::WalAppendLocked(std::string_view encoded) {
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
  wal_->set_trace_round(t_);
  return wal_->Append(encoded);
}

Status ArrangementService::WalWriteAheadLocked(const std::string& encoded,
                                               bool* durable) {
  *durable = false;
  if (wal_ == nullptr || wal_degraded_) return Status::Ok();
  if (breaker_ == nullptr) {
    wal_->set_trace_round(t_);
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
    Status st = WalAppendLocked(encoded);
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
  if (feedback.size() != pending_arrangement_.size()) {
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
    TraceSpan span("feedback.encode", t_, TraceRing::Global(), nullptr,
                   pending_trace_id_);
    record.t = t_;
    record.user_id = pending_round_.user_id;
    record.user_capacity = pending_round_.user_capacity;
    record.arrangement = pending_arrangement_;
    record.feedback = feedback;
    for (EventId v : pending_arrangement_) {
      const auto row = pending_round_.contexts.Row(v);
      record.contexts.emplace_back(row.begin(), row.end());
    }
    if (wal_ != nullptr && !wal_degraded_) {
      encoded = EncodeInteractionRecord(record);
    }
  }

  // Write-ahead: the interaction must be durable (per the writer's fsync
  // policy) before any state changes, so a crash between here and the end
  // of this function loses nothing that was applied.
  bool durable = false;
  if (Status st = WalWriteAheadLocked(encoded, &durable); !st.ok()) {
    return st;
  }

  for (std::size_t i = 0; i < feedback.size(); ++i) {
    if (feedback[i]) state_.ConsumeOne(pending_arrangement_[i]);
  }
  {
    TraceSpan span("feedback.learn", t_, TraceRing::Global(), nullptr,
                   pending_trace_id_);
    policy_->Learn(t_, pending_round_, pending_arrangement_, feedback);
  }
  accepted_events_metric_->Add(
      static_cast<std::int64_t>(NumAccepted(feedback)));
  FASEA_CHECK_OK(log_.Append(std::move(record)));
  pending_ = false;
  feedback_rounds_metric_->Increment();
  UpdateHealthGaugeLocked();
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
  if (lame_duck_.load(std::memory_order_relaxed)) {
    serve_errors_metric_->Increment();
    return UnavailableError("service is draining (lame duck)");
  }
  InflightLimiter::Permit permit =
      inflight_.TryAcquire(overload_.max_inflight);
  if (!permit.admitted()) {
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
        "deadline expired before the round was enqueued");
  }

  BatchWaiter waiter;
  waiter.round.contexts = contexts;
  waiter.round.user_capacity = user_capacity;
  waiter.round.user_id = user_id;
  if (Status st = ValidateRoundContext(waiter.round, instance_->num_events(),
                                       instance_->dim());
      !st.ok()) {
    serve_errors_metric_->Increment();
    return st;
  }
  waiter.enqueue_ns = Stopwatch::NowNanos();

  // Leader/follower coalescing: every arrival enqueues; the front
  // unclaimed waiter claims a batch once it is full, the coalescing
  // window has passed, or every admitted arrival is already queued.
  // Claiming threads process their batch themselves — there is no
  // background thread to keep alive or drain at shutdown — and several
  // claimed batches score concurrently (resolution is sequenced by
  // claim order inside ProcessBatch).
  std::vector<BatchWaiter*> batch;
  std::int64_t batch_seq = 0;
  {
    std::unique_lock<std::mutex> lock(batch_mu_);
    waiter.ticket = ++next_ticket_;
    batch_queue_.push_back(&waiter);
    batch_cv_.notify_all();
    const std::int64_t window_ns = batching_.max_wait_us * 1000;
    while (!waiter.done) {
      if (!waiter.claimed && batch_queue_.front() == &waiter) {
        const bool full =
            static_cast<int>(batch_queue_.size()) >= batching_.max_batch;
        // Provably alone: this waiter holds the only admitted in-flight
        // serve, so no companion can arrive before it resolves — waiting
        // out the window would add latency without growing the batch.
        // Under real concurrency the window (or a full batch) governs,
        // which is what lets arrivals coalesce at all.
        const bool lone = inflight_.current() <= 1;
        const bool window_over =
            Stopwatch::NowNanos() - waiter.enqueue_ns >= window_ns;
        if (full || lone || window_over) {
          // Queue wait ends here; scoring and resolution are serve time.
          const std::int64_t claim_ns = Stopwatch::NowNanos();
          const std::size_t take =
              std::min(batch_queue_.size(),
                       static_cast<std::size_t>(batching_.max_batch));
          batch.reserve(take);
          for (std::size_t i = 0; i < take; ++i) {
            BatchWaiter* w = batch_queue_.front();
            batch_queue_.pop_front();
            w->claimed = true;
            batch_wait_hist_->Record(claim_ns - w->enqueue_ns);
            batch.push_back(w);
          }
          batch_seq = next_batch_seq_++;
          // The next front may already be claimable (it saw itself
          // non-front a moment ago).
          batch_cv_.notify_all();
          break;
        }
      }
      // Sleep until something can change: the front waiter must wake at
      // window expiry to claim; unclaimed waiters honor their deadline.
      std::int64_t wait_ns = -1;  // < 0: wait for a notification.
      if (!waiter.claimed && batch_queue_.front() == &waiter) {
        // Clamp: the window can expire between the claim check above and
        // this read of the clock, and a negative remainder must mean
        // "recheck immediately", never "sleep unbounded".
        wait_ns = std::max<std::int64_t>(
            waiter.enqueue_ns + window_ns - Stopwatch::NowNanos(), 0);
      }
      if (!waiter.claimed && !deadline.infinite()) {
        const std::int64_t remaining = deadline.RemainingNanos();
        if (remaining <= 0) {
          // Still unclaimed, so no batch references this waiter yet:
          // withdrawing is just leaving the queue.
          auto it = std::find(batch_queue_.begin(), batch_queue_.end(),
                              &waiter);
          FASEA_CHECK(it != batch_queue_.end());
          batch_queue_.erase(it);
          batch_cv_.notify_all();
          deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
          deadline_exceeded_metric_->Increment();
          return DeadlineExceededError(
              "deadline expired while waiting for the batch window");
        }
        wait_ns = wait_ns < 0 ? remaining : std::min(wait_ns, remaining);
      }
      if (wait_ns < 0) {
        batch_cv_.wait(lock);
      } else {
        batch_cv_.wait_for(lock, std::chrono::nanoseconds(
                                     std::max<std::int64_t>(wait_ns, 0)));
      }
    }
  }

  if (!batch.empty()) {
    ProcessBatch(batch, batch_seq);
    std::lock_guard<std::mutex> lock(batch_mu_);
    for (BatchWaiter* w : batch) w->done = true;
    batch_cv_.notify_all();
  }
  serve_latency_->Record(Stopwatch::NowNanos() - waiter.enqueue_ns);
  return std::move(waiter.result);
}

void ArrangementService::ProcessBatch(
    const std::vector<BatchWaiter*>& batch, std::int64_t seq) {
  std::shared_ptr<const LearnerSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snap = snapshot_;
  }
  FASEA_CHECK(snap != nullptr);
  const std::size_t b = batch.size();
  std::vector<SnapshotRound> rows(b);
  for (std::size_t i = 0; i < b; ++i) {
    rows[i].ticket = batch[i]->ticket;
    rows[i].round = &batch[i]->round;
  }
  Matrix scores(b, instance_->num_events());
  std::vector<RowResolve> resolve(b, RowResolve::kGreedy);
  const auto* base = static_cast<const LinearPolicyBase*>(policy_.get());
  if (snap->healthy) {
    // The expensive step: every user's row scored against the immutable
    // snapshot with no lock held — feedback commits run in parallel.
    base->ScoreBatchSnapshot(*snap, rows, &scores,
                             std::span<RowResolve>(resolve));
  }

  // eGreedy exploration rows resolve through a ticket-seeded random
  // oracle, so a batch's arrangements depend only on (snapshot, tickets,
  // rounds) — never on which thread claimed the batch.
  std::vector<std::unique_ptr<RandomOracle>> explorers;
  std::vector<ArrangementOracle*> row_oracle(b, nullptr);
  for (std::size_t i = 0; i < b; ++i) {
    if (resolve[i] == RowResolve::kRandom) {
      explorers.push_back(std::make_unique<RandomOracle>(
          Pcg64(DeriveSeed(batch_salt_, "explore",
                           static_cast<std::uint64_t>(batch[i]->ticket)),
                HashTag("batch-explore"))));
      row_oracle[i] = explorers.back().get();
    }
  }
  std::vector<std::int64_t> caps(b);
  for (std::size_t i = 0; i < b; ++i) {
    caps[i] = batch[i]->round.user_capacity;
  }

  std::vector<Arrangement> arrangements;
  {
    // The short critical section: ticket-order capacity resolution over
    // the reservation view, plus pending registration. Concurrent
    // batches score in parallel above but resolve strictly in claim
    // order (seq), so capacity contention is deterministic given the
    // arrival order.
    std::unique_lock<std::timed_mutex> lock(mu_);
    resolve_cv_.wait(lock, [&] { return resolve_turn_ == seq; });
    if (snap->healthy) {
      arrangements = batch_oracle_.SelectBatch(
          scores, instance_->conflicts(), &effective_state_, caps,
          std::span<ArrangementOracle* const>(row_oracle));
    } else {
      // Snapshot captured an unhealthy learner: estimate-free proposals,
      // still reserving seats so concurrent batches cannot oversell.
      arrangements.resize(b);
      for (std::size_t i = 0; i < b; ++i) {
        arrangements[i] =
            StatelessProposal(batch[i]->round, effective_state_);
        FASEA_CHECK(IsFeasibleArrangement(arrangements[i],
                                          instance_->conflicts(),
                                          effective_state_, caps[i]));
        for (EventId v : arrangements[i]) effective_state_.ConsumeOne(v);
        ++stateless_fallbacks_;
        fallbacks_metric_->Increment();
      }
    }
    learner_healthy_gauge_->Set(snap->healthy ? 1.0 : 0.0);
    for (std::size_t i = 0; i < b; ++i) {
      PendingBatched pending;
      pending.round = std::move(batch[i]->round);
      pending.arrangement = arrangements[i];
      pending.epoch = snap->epoch;
      batched_pending_.emplace(batch[i]->ticket, std::move(pending));
      pending_batched_count_.fetch_add(1, std::memory_order_relaxed);
      proposed_events_metric_->Add(
          static_cast<std::int64_t>(arrangements[i].size()));
      serve_rounds_metric_->Increment();
    }
    ++resolve_turn_;
    resolve_cv_.notify_all();
  }
  batch_size_hist_->Record(static_cast<std::int64_t>(b));
  for (std::size_t i = 0; i < b; ++i) {
    BatchedRound out;
    out.ticket = batch[i]->ticket;
    out.epoch = snap->epoch;
    out.arrangement = std::move(arrangements[i]);
    batch[i]->result = std::move(out);
  }
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
  PendingBatched& round = it->second;
  if (feedback.size() != round.arrangement.size()) {
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
    TraceSpan span("feedback.encode", t_ + 1);
    // Commit order assigns the round id: whichever outstanding ticket
    // lands first gets the next t, so the WAL stays strictly increasing
    // and recovery replays unchanged.
    record.t = t_ + 1;
    record.user_id = round.round.user_id;
    record.user_capacity = round.round.user_capacity;
    record.arrangement = round.arrangement;
    record.feedback = feedback;
    for (EventId v : round.arrangement) {
      const auto row = round.round.contexts.Row(v);
      record.contexts.emplace_back(row.begin(), row.end());
    }
    if (wal_ != nullptr && !wal_degraded_) {
      encoded = EncodeInteractionRecord(record);
    }
  }

  bool durable = false;
  if (Status st = WalWriteAheadLocked(encoded, &durable); !st.ok()) {
    return st;  // Nothing applied; the ticket stays pending for retry.
  }
  ++t_;
  for (std::size_t i = 0; i < feedback.size(); ++i) {
    const EventId v = round.arrangement[i];
    if (feedback[i]) {
      // The seat was reserved in effective_state_ at propose time; the
      // acceptance makes the consumption permanent in the ground truth.
      state_.ConsumeOne(v);
    } else {
      effective_state_.ReleaseOne(v);
    }
  }
  {
    TraceSpan span("feedback.learn", t_);
    policy_->Learn(t_, round.round, round.arrangement, feedback);
  }
  accepted_events_metric_->Add(
      static_cast<std::int64_t>(NumAccepted(feedback)));
  FASEA_CHECK_OK(log_.Append(std::move(record)));
  batched_pending_.erase(it);
  pending_batched_count_.fetch_sub(1, std::memory_order_relaxed);
  feedback_rounds_metric_->Increment();
  rounds_served_gauge_->Set(static_cast<double>(t_));
  PublishSnapshotLocked();
  UpdateHealthGaugeLocked();
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
