// ShardedArrangementService: crash-safe sharded serving with a two-phase
// cross-shard arrangement protocol, an optional message-passing shard
// transport, and live shard rebalancing.
//
// Events are partitioned across N shards (ShardRouter, consistent
// hashing); each shard runs a WAL-less inner ArrangementService over its
// *sub-instance* — its own policy and capacities over the owned
// partition — so proposal scoring costs O(|V|/N · d²) per round instead
// of O(|V| · d²). The shard's WAL is its round history; beside it the
// shard keeps only an observation buffer (one learned row per arranged
// event, rebuilt from the WAL at recovery) for delta-merge and
// rebalancing. Every durability decision lives in this
// layer: each shard has its own WAL segment directory
// (`<base>/shard-000/…`), its own circuit breaker, and an independent
// recovery path.
//
// Round protocol. An arriving user is routed to a home (coordinator)
// shard, which proposes from its own partition. If the home partition
// cannot fill the user's capacity, the coordinator *spills over* to
// the other shards in ring order; each contributing participant
// proposes from its partition under an availability mask that excludes
// events conflicting (via the global conflict graph — this is where
// cross-shard conflict edges are enforced) with everything already
// chosen. A participant's contribution is only accepted after a
// phase-1 RESERVE frame is durably in the participant's WAL — a
// participant that cannot harden the reservation refuses the stage and
// its tentative proposal is rolled back (AbortPendingRound).
//
// Feedback commits the round: the coordinator appends a DECISION frame
// (the full round, global event ids) to its own WAL — the transaction's
// commit point, breaker-mediated exactly like the unsharded service
// (append failure fails the round retryably with nothing applied; an
// open breaker acknowledges non-durably). Then every portion is applied
// to its shard's inner service, and participants append a PORTION frame
// closing their reservation — but only when the decision was durable,
// so a portion record can never outlive its decision.
//
// One protocol, two channels. Every step above — SERVE, RESERVE, COMMIT
// (the decision, then each portion), ABORT, QUERY-DECISION, MIGRATE — is
// a typed request handled by the shard it addresses, and every step
// goes through one call helper. By default that helper is a zero-fault
// loopback: it calls the shard's handler directly. With a
// SimulatedNetwork attached (ConfigureTransport) the service becomes a
// *gateway* node and the same requests travel as envelopes
// (net/envelope.h) through the network's fault model — drop, delay,
// duplicate, reorder, partitions — with a Deadline + RetryPolicy on
// every call (net/client.h) and a request-id replay cache on every
// shard server (net/server.h), so a retried RESERVE never
// double-reserves. Each shard tracks the stages it opened (home serve,
// participant reservation) until their commit or abort. Under a network
// those stages carry *leases* (logical-clock expiry): PumpTransport()
// re-queries expired ones against the coordinator's decision index and
// force-aborts what was never committed — presumed abort without
// waiting for a crash. Committed portions whose delivery the network
// lost park in a redelivery queue (at-least-once; the portion
// application is idempotent).
//
// Crash recovery (per shard, independent). Replaying a shard's WAL
// rebuilds its inner service from DECISION slices and PORTION records
// (duplicate frames collapsed by round id, adjacent or not), indexes
// its decisions, and collects reservations with no closing portion —
// the *in-doubt* set. Resolution is presumed-abort: each in-doubt
// reservation re-queries the coordinator shard's decision index (a
// QUERY-DECISION step; if the network loses it, the live index is read
// directly), or scans the coordinator's WAL read-only while it is down;
// a decision containing the reserved events commits the portion,
// anything else aborts it. No in-doubt reservation survives
// recovery. Capacities can never go negative: every consumption goes
// through the owner's inner service, which validates before applying.
//
// Live rebalancing (Rebalance). Growing the shard count moves ~1/N of
// the events to the new shards (consistent hashing). The migration is
// drain → transfer → flip → rebuild:
//   drain     every shard restarts from its WAL (non-durable rounds are
//             shed exactly as a crash would shed them), so live state
//             equals durable state;
//   transfer  each source shard's moved events are handed to their new
//             owner as a MIGRATE WAL frame — consumed capacity plus the
//             source learner's observation rows, read from its
//             observation buffer — stamped with the epoch the
//             migration creates;
//   flip      the new ShardRouter generation is installed and the
//             rebalance epoch increments (frames written from here on
//             carry it);
//   rebuild   every shard restarts again under the new epoch, which is
//             when MIGRATE frames take effect.
// A crash at any step before the flip leaves only superseded MIGRATE
// frames behind (last writer per event wins; frames of an epoch that
// never flipped are inert), so the retry is safe. WAL frames are
// stamped with their write epoch, and replay maps event ids through the
// ownership history: a frame's slice contributes an event to a shard
// only if the shard owned it at the write epoch, still owns it now, and
// the frame does not pre-date the event's latest migration (those
// rounds are already folded into the MIGRATE frame's consumed count).
// The topology history itself is process-lifetime state (shards crash
// and recover individually; a durable topology manifest is future
// work).
//
// Learner delta-merge. Ridge state is additive (Y += x xᵀ, b += r x),
// so shards periodically absorb each other's observation deltas, each
// as one rank-k block with an exact re-derivation of the inverse (and
// TS's factor) from Y (ArrangementService::AbsorbPeerObservations).
// Merged state is soft: recovery rebuilds a shard from its own WAL
// only, and the next merge re-syncs.
//
// Thread safety: ServeUser/SubmitFeedback are safe from any number of
// threads. On the loopback they run in parallel: inner services
// serialize their own pipelines (a shard holds one open stage at a
// time; a busy home answers the retryable kFailedPrecondition, a busy
// participant's stage is skipped), WAL appends and ledgers are
// per-shard mutexed, and no lock is ever held across a peer shard's
// lock. Under a network they serialize behind one internal mutex (the
// simulated network and its client are single-threaded).
// KillShard/RecoverShard/MergeLearners/Rebalance assume the caller stops
// traffic to the affected shards first (the chaos harness and tests
// do). Single-threaded runs are bit-reproducible per seed.
#ifndef FASEA_EBSN_SHARDED_SERVICE_H_
#define FASEA_EBSN_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ebsn/arrangement_service.h"
#include "ebsn/shard_router.h"
#include "ebsn/shard_wal.h"
#include "net/client.h"
#include "net/network.h"
#include "net/server.h"

namespace fasea {

struct ShardedOptions {
  int num_shards = 1;
  PolicyKind kind = PolicyKind::kUcb;
  PolicyParams params;
  std::uint64_t seed = 0;
  /// Absorb peer observation deltas every this many completed rounds
  /// (0 disables the automatic cadence; MergeLearners() always works).
  std::int64_t merge_every = 0;
};

/// Tuning for the message-passing path (ConfigureTransport).
struct ShardTransportOptions {
  /// Reservation/serve-stage lease, in network ticks. Past it the stage
  /// is re-queried against the coordinator's decision index and, if
  /// still undecided, force-aborted (presumed abort).
  std::int64_t lease_ticks = 64;
  /// Client call budget (see net/client.h): per-attempt and overall
  /// timeouts in network ticks, plus the retry policy (backoff in
  /// ticks).
  ShardClientOptions client;
  /// Per-shard server replay cache (request-id dedup).
  ShardServerOptions server;
};

/// The serve-side ticket: feedback must quote `txn`.
struct ShardedServeResult {
  std::uint64_t txn = 0;
  int home_shard = 0;
  Arrangement arrangement;  // Global event ids, proposal order.
};

struct ShardedFeedbackResult {
  std::uint64_t txn = 0;
  int home_shard = 0;
  std::int64_t home_round = 0;  // Coordinator's local round id.
  /// True when the DECISION frame reached the coordinator's WAL.
  bool durable = false;
  int participant_shards = 0;  // Remote portions in this round.
};

/// What recovering one shard did; printable for operators.
struct ShardRecoveryReport {
  int shard = 0;
  std::int64_t segments_scanned = 0;
  std::int64_t frames_scanned = 0;
  std::int64_t bytes_truncated = 0;
  std::int64_t duplicate_frames_skipped = 0;
  std::int64_t decisions_indexed = 0;
  std::int64_t portions_applied = 0;
  std::int64_t reservations_in_doubt = 0;
  std::int64_t resolved_committed = 0;
  std::int64_t resolved_aborted = 0;
  std::int64_t interrupted_completed = 0;
  std::int64_t interrupted_aborted = 0;
  std::int64_t migrated_events_applied = 0;
  std::int64_t migration_filtered_frames = 0;
  std::int64_t rounds_served = 0;  // Inner counter after replay.

  std::string ToString() const;
};

/// What one completed rebalance moved; printable for operators. The
/// chaos harness checks capacity conservation against it: every event's
/// remaining capacity after the drain must reappear unchanged on its
/// (possibly new) owner after the flip.
struct RebalanceReport {
  int old_shards = 0;
  int new_shards = 0;
  std::uint32_t epoch = 0;         // The epoch the flip installed.
  std::int64_t events_moved = 0;
  std::vector<EventId> moved_events;  // Global ids, ascending.
  /// remaining_after_drain[g]: event g's remaining capacity once every
  /// shard was restarted from its WAL, indexed by global event id.
  std::vector<std::int64_t> remaining_after_drain;

  std::string ToString() const;
};

/// Aggregated cross-shard protocol counters (see DESIGN.md §8).
struct ShardedStats {
  std::int64_t rounds_completed = 0;
  std::int64_t cross_shard_rounds = 0;
  std::int64_t reservations_made = 0;
  std::int64_t reservation_refusals = 0;
  std::int64_t spillover_stages_skipped = 0;
  std::int64_t nondurable_rounds = 0;
  std::int64_t merges = 0;
  std::int64_t resolved_committed = 0;
  std::int64_t resolved_aborted = 0;
  // Lease and redelivery counters: zero without a network (the
  // loopback loses no message, and its stages carry no lease).
  std::int64_t leases_expired = 0;
  std::int64_t force_aborted = 0;
  std::int64_t redelivered_portions = 0;
  // Rebalance counters.
  std::int64_t rebalances = 0;
  std::int64_t rebalances_aborted = 0;
  std::int64_t events_moved = 0;
};

class ShardedArrangementService {
 public:
  /// The gateway's node id on the simulated network (shards are nodes
  /// 0..N-1, so the gateway sits outside that range).
  static constexpr int kGatewayNode = -1;

  /// `instance` must outlive the service.
  ShardedArrangementService(const ProblemInstance* instance,
                            ShardedOptions options);
  ~ShardedArrangementService();

  /// Attaches one WAL per shard under `<base_dir>/shard-NNN/`
  /// (ShardWalDirName). `env` and `base_dir` are retained for breaker
  /// reopen probes and RecoverShard. Replaces any prior writers (the
  /// chaos harness re-arms fresh writers per cycle).
  Status AttachWals(Env* env, const std::string& base_dir,
                    const WalOptions& wal_options = {},
                    const DurabilityPolicy& durability = {});

  /// Attaches one decision log per live shard under
  /// `<base_dir>/shard-NNN-decisions/` (DecisionLogDirName over
  /// ShardWalDirName). Each shard's inner service then records its own
  /// portion proposals — coordinator and participants alike — stamped
  /// with the coordinator's txn and trace ids, so the per-shard logs of
  /// one transaction join on either id. `header` should describe the
  /// global deployment (event count, policy recipe); it is written
  /// verbatim to every shard's log.
  Status AttachDecisionLogs(Env* env, const std::string& base_dir,
                            const DecisionLogHeader& header,
                            const WalOptions& wal_options = {});

  /// Syncs and closes every live shard's decision log (end-of-run flush
  /// so readers see the full record stream). First failure wins; closing
  /// with no logs attached is a no-op.
  Status CloseDecisionLogs();

  // --- Transport --------------------------------------------------------

  /// Puts every protocol step behind `net` (which must outlive the
  /// service) instead of the loopback: the service becomes gateway node
  /// kGatewayNode, every live shard gets a ShardServer on node id ==
  /// shard index, and subsequent protocol steps travel as envelopes
  /// with deadlines, retries, request-id dedup, and leases. Call once,
  /// quiesced.
  Status ConfigureTransport(SimulatedNetwork* net,
                            const ShardTransportOptions& options = {});
  bool transport_enabled() const { return net_ != nullptr; }

  /// Drives the transport-side background work: delivers due messages,
  /// redelivers parked committed portions, and sweeps expired leases
  /// (re-query against the coordinator's decision index; force-abort
  /// what was never committed). Call between arrivals and after heals;
  /// a no-op without a transport.
  Status PumpTransport();

  /// Committed portions still awaiting redelivery (zero once the
  /// network is healed and pumped — the harness's stuck-transaction
  /// check).
  std::int64_t UndeliveredPortions() const;

  /// Transport telemetry (zeros without ConfigureTransport): the
  /// gateway client's retries/timeouts, and replay-cache suppressions
  /// summed over the currently live shard servers.
  std::int64_t TransportRetries() const;
  std::int64_t TransportTimeouts() const;
  std::int64_t TransportDupSuppressed() const;

  // --- Rebalancing ------------------------------------------------------

  /// Grows the topology to `new_num_shards` (shrinking is not
  /// supported), migrating moved events drain → transfer → flip →
  /// rebuild (see the file comment). Requires quiescence: no pending or
  /// interrupted transactions, no open reservations, every shard alive
  /// with a WAL attached. On failure (including an injected crash) the
  /// topology is unchanged and the same call may be retried; aborted
  /// attempts leave only superseded MIGRATE frames behind.
  StatusOr<RebalanceReport> Rebalance(int new_num_shards);

  /// The current ownership generation (0 until the first rebalance).
  std::uint32_t rebalance_epoch() const { return rebalance_epoch_; }

  /// Test/chaos hook: invoked at each rebalance step boundary —
  /// 0 = after drain, 1 = mid-transfer (before the first MIGRATE frame),
  /// 2 = after transfer, before the flip. Returning true aborts the
  /// rebalance there, exactly as a crash would.
  void set_rebalance_crash_hook(std::function<bool(int step)> hook) {
    rebalance_crash_hook_ = std::move(hook);
  }

  // --- Serving ----------------------------------------------------------

  /// Serves the next arriving user from the full event set (`contexts`
  /// is the global |V| × d matrix). Retryable failures
  /// (kFailedPrecondition on a busy home pipeline, kResourceExhausted)
  /// leave nothing reserved.
  StatusOr<ShardedServeResult> ServeUser(std::int64_t user_id,
                                         std::int64_t user_capacity,
                                         const ContextMatrix& contexts);

  /// Commits (or retryably fails) the round `txn`. On kUnavailable
  /// nothing has been applied and the same call may be retried.
  Status SubmitFeedback(std::uint64_t txn, const Feedback& feedback,
                        ShardedFeedbackResult* result = nullptr);

  /// Chaos hook: "crashes" shard `shard` — its inner service, WAL
  /// writer, breaker, decision index, observation buffer, and (under a
  /// transport) its server node are destroyed. Pending transactions it
  /// participated in are aborted on the surviving shards; transactions
  /// it *coordinated* are parked for resolution by RecoverShard.
  /// Callers must stop traffic first.
  Status KillShard(int shard);

  /// Rebuilds a killed shard from its WAL alone, resolves every
  /// in-doubt reservation (presumed-abort against the coordinators'
  /// decision indexes), and completes or aborts interrupted
  /// transactions this shard coordinated. Leaves the shard without a
  /// WAL writer; call AttachWals (or AttachShardWal) to resume
  /// durability. Under a transport, the shard's server node comes back
  /// with it.
  StatusOr<ShardRecoveryReport> RecoverShard(int shard);

  /// Re-attaches a fresh writer for one shard (post-recovery re-arm).
  Status AttachShardWal(int shard);

  /// Absorbs every peer shard's new observations into every live
  /// shard's learner (rank-1 updates + exact refactorization repair).
  /// Requires external quiescence.
  Status MergeLearners();

  // --- Introspection ----------------------------------------------------

  const ShardRouter& router() const { return *routers_.back(); }
  int num_shards() const { return options_.num_shards; }
  std::int64_t rounds_completed() const {
    return rounds_completed_.load(std::memory_order_relaxed);
  }

  /// The inner service of a shard; nullptr while killed.
  const ArrangementService* shard_service(int shard) const;
  /// The shard's append-path breaker; nullptr when absent or killed.
  const CircuitBreaker* shard_breaker(int shard) const;
  bool shard_alive(int shard) const;

  /// Snapshot of one shard's decision index (coordinated rounds, global
  /// event ids, keyed by txn). The chaos harness unions these across
  /// shards for the shadow-replay invariant.
  std::map<std::uint64_t, InteractionRecord> Decisions(int shard) const;

  /// Reservations currently open (reserved, neither committed nor
  /// aborted) across live shards — the in-memory mirror of the WAL's
  /// in-doubt set. Zero whenever no round is mid-flight; recovery must
  /// always drive the recovered shard's share to zero.
  std::int64_t OpenReservations() const;

  ShardedStats Stats() const;

  /// Aggregated health: worst state across live shards (a killed shard
  /// counts as lame-duck until recovered).
  HealthState AggregateHealth() const;
  HealthSnapshot ShardHealth(int shard) const;

  /// Test/chaos hook: invoked after a durable DECISION append, before
  /// any portion is applied. Returning true makes SubmitFeedback fail
  /// with kUnavailable, leaving the transaction interrupted exactly as
  /// a coordinator crash between the two phases would.
  void set_crash_after_decision_hook(
      std::function<bool(std::uint64_t txn)> hook) {
    crash_after_decision_ = std::move(hook);
  }

 private:
  struct Portion {
    int shard = 0;
    Arrangement local_events;  // Inner (sub-instance) ids.
    std::size_t start = 0;     // Offset into the global arrangement.
    /// The participant's inner round id at serve time — lets the
    /// interrupted-transaction resolver tell this txn's still-pending
    /// inner round apart from unrelated later rounds.
    std::int64_t local_round = 0;
    /// The capacity the inner service was asked to fill at this stage
    /// (the user's capacity minus everything chosen upstream). PORTION
    /// frames must carry it so replay reproduces the inner rounds
    /// bit-identically.
    std::int64_t local_capacity = 0;
  };
  struct PendingTxn {
    int home = 0;
    std::uint64_t trace_id = 0;  // Mix64(txn), stamped everywhere.
    std::int64_t user_id = 0;
    std::int64_t user_capacity = 0;
    std::int64_t coordinator_round = 0;
    Arrangement arrangement;  // Global ids.
    std::vector<std::vector<double>> context_rows;
    std::vector<Portion> portions;  // [0] is the home portion.
    bool busy = false;
  };
  /// One learned row: an arranged event (its local id on the shard),
  /// its context row and its 0/1 reward.
  struct Observation {
    EventId event = 0;
    std::vector<double> context;
    double reward = 0.0;
  };
  /// One inner round a protocol step opened on a shard (home serve
  /// stage or participant reservation), awaiting its commit or abort.
  struct StageEntry {
    std::int64_t local_round = 0;
    std::int64_t lease_expiry = 0;  // 0 = no lease (the loopback).
    int coordinator = 0;  // Where the decision for this txn lives.
  };
  struct Shard {
    int index = 0;
    std::unique_ptr<ArrangementService> service;

    // Durability (owned here, not by the inner service).
    mutable std::mutex wal_mu;
    std::unique_ptr<WalWriter> wal;
    std::unique_ptr<CircuitBreaker> breaker;
    bool degraded = false;
    std::int64_t append_failures = 0;
    std::int64_t wal_reopens = 0;
    std::int64_t nondurable_rounds = 0;

    // Two-phase protocol state.
    mutable std::mutex ledger_mu;
    std::map<std::uint64_t, InteractionRecord> decisions;
    /// Whether each decision's frame reached the WAL (portion frames of
    /// a replayed commit message must not outlive a non-durable
    /// decision).
    std::map<std::uint64_t, bool> decision_durable;
    std::map<std::uint64_t, ReservationRecord> open_reservations;
    /// Open stages keyed by txn (see StageEntry).
    std::map<std::uint64_t, StageEntry> stage_rounds;

    // Every row the inner learner learned from its own rounds, in round
    // order (committed live or restored by recovery): the delta-merge
    // buffer peers read through cursors, and what Rebalance packages
    // for a moved event.
    mutable std::mutex obs_mu;
    std::vector<Observation> obs;
  };

  // The protocol's typed messages, one request (and reply) per step;
  // defined with their wire codecs in the .cc. Each request names its
  // MessageKind and its handler below.
  struct Ack;
  struct ServeRequest;
  struct ServeReply;
  struct ReserveRequest;
  struct ReserveReply;
  struct DecisionRequest;
  struct DecisionReply;
  struct PortionRequest;
  struct AbortRequest;
  struct QueryRequest;
  struct QueryReply;
  struct MigrateRequest;
  /// A committed portion whose delivery the network lost; PumpTransport
  /// retries it.
  struct UndeliveredPortion;

  enum class AppendOutcome { kDurable, kNonDurable };

  /// The ownership generation a frame of epoch `e` was written under
  /// (clamped to the newest installed generation).
  const ShardRouter& RouterAt(std::uint32_t epoch) const;

  Matrix GatherContexts(int shard, const ContextMatrix& contexts) const;
  Arrangement MapToGlobal(int shard, const Arrangement& local) const;
  std::vector<std::uint8_t> SpilloverMask(int shard,
                                          const Arrangement& chosen) const;
  /// Breaker-mediated append (DECISION/PORTION path): mirrors the
  /// unsharded DurabilityPolicy semantics.
  StatusOr<AppendOutcome> AppendFrame(Shard& shard, std::string_view frame);
  /// Strict append (RESERVE/MIGRATE path): durable or refused, never
  /// degraded.
  Status AppendFrameStrict(Shard& shard, std::string_view frame);
  /// Reopen-if-broken + append; caller holds shard.wal_mu.
  Status AppendLocked(Shard& shard, std::string_view frame);

  /// Replay-time slice: keeps an event only if `shard` owned it at
  /// `frame_epoch`, still owns it now, and the frame does not pre-date
  /// the event's latest migration (`acquired`: event -> epoch of its
  /// winning MIGRATE frame). Sets *migration_filtered when the epoch
  /// rules dropped anything.
  InteractionRecord SliceForReplay(
      int shard, const InteractionRecord& record, std::int64_t t,
      std::uint32_t frame_epoch,
      const std::map<EventId, std::uint32_t>& acquired,
      bool* migration_filtered) const;
  /// The coordinator's decision for `txn`: its decision index while it
  /// is alive (a QUERY-DECISION step, read directly if the network
  /// loses it), else a read-only scan of its WAL.
  StatusOr<bool> LookupDecision(int coordinator, std::uint64_t txn,
                                InteractionRecord* out);
  /// Appends one row per arranged event of `record` to `out`.
  static void AppendObservations(const InteractionRecord& record,
                                 std::vector<Observation>* out);
  void MaybeAutoMerge();
  Status ResolveInterrupted(int shard, ShardRecoveryReport* report);
  /// One drain/rebuild restart of a live shard (kill + recover +
  /// re-attach its WAL); requires quiescence.
  Status RestartShard(int shard);

  // --- The protocol's one channel -----------------------------------------

  /// Runs one protocol step on `shard`. Without a network this is a
  /// zero-fault loopback: the shard's handler gets the typed request
  /// directly. With one, the request travels as an envelope through the
  /// client (deadline, retries) and the reply is decoded. A step the
  /// network lost fails kUnavailable and sets *lost: the shard may or
  /// may not have run it.
  template <typename Request>
  StatusOr<typename Request::Reply> Call(int shard, std::uint64_t txn,
                                         std::uint64_t trace_id,
                                         const Request& request,
                                         bool* lost = nullptr);
  /// Puts `shard`'s handlers on the network (a no-op without one).
  void RegisterShardServer(int shard);
  /// Holds the network path's mutex; empty on the loopback, so
  /// concurrent callers proceed in parallel.
  std::unique_lock<std::mutex> LockNetwork();
  /// Lease expiry for stages opened now; 0 (none) on the loopback.
  std::int64_t LeaseExpiry() const;
  /// Whether `shard` is alive and still holds `txn`'s stage open.
  bool StageOpen(int shard, std::uint64_t txn) const;
  /// The portion COMMIT for one stage of `pending` under `feedback`.
  PortionRequest PortionOf(const PendingTxn& pending, const Portion& portion,
                           const Feedback& feedback, bool write_frame) const;

  // The shard-side steps, one handler each. COMMIT has two halves: the
  // coordinator's decision (the commit point) and each stage's portion.
  StatusOr<ServeReply> HandleServe(int shard, std::uint64_t txn,
                                   std::uint64_t trace_id,
                                   const ServeRequest& request);
  StatusOr<ReserveReply> HandleReserve(int shard, std::uint64_t txn,
                                       std::uint64_t trace_id,
                                       const ReserveRequest& request);
  /// Takes the request by value: the decision index keeps its record.
  StatusOr<DecisionReply> HandleDecision(int shard, std::uint64_t txn,
                                         std::uint64_t trace_id,
                                         DecisionRequest request);
  StatusOr<Ack> HandlePortion(int shard, std::uint64_t txn,
                              std::uint64_t trace_id,
                              const PortionRequest& request);
  StatusOr<Ack> HandleAbort(int shard, std::uint64_t txn,
                            std::uint64_t trace_id,
                            const AbortRequest& request);
  StatusOr<QueryReply> HandleQuery(int shard, std::uint64_t txn,
                                   std::uint64_t trace_id,
                                   const QueryRequest& request);
  StatusOr<Ack> HandleMigrate(int shard, std::uint64_t txn,
                              std::uint64_t trace_id,
                              const MigrateRequest& request);

  const ProblemInstance* instance_;
  ShardedOptions options_;
  /// Ownership history, one router per rebalance epoch; back() is
  /// current. Grows at each flip; inner services of epoch e hold
  /// pointers into routers_[e]'s sub-instances, so entries are never
  /// dropped.
  std::vector<std::unique_ptr<ShardRouter>> routers_;
  std::uint32_t rebalance_epoch_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  Env* env_ = nullptr;          // Set by AttachWals.
  std::string wal_base_dir_;
  WalOptions wal_options_;
  DurabilityPolicy durability_;

  std::atomic<std::uint64_t> next_txn_{1};
  std::atomic<std::int64_t> rounds_completed_{0};

  mutable std::mutex pending_mu_;
  std::map<std::uint64_t, PendingTxn> pending_;
  /// Transactions whose coordinator died mid-commit; resolved by
  /// RecoverShard(coordinator).
  std::map<std::uint64_t, PendingTxn> interrupted_;
  /// Transactions force-aborted on lease expiry: a late COMMIT for one
  /// of these must be refused, not applied.
  std::set<std::uint64_t> aborted_txns_;

  mutable std::mutex stats_mu_;
  ShardedStats stats_;
  /// cursors_[i][j]: observations of shard j already absorbed by i.
  std::vector<std::vector<std::size_t>> cursors_;
  std::mutex merge_mu_;

  // Network state (null/empty without ConfigureTransport).
  SimulatedNetwork* net_ = nullptr;
  ShardTransportOptions topts_;
  std::unique_ptr<ShardClient> client_;
  std::vector<std::unique_ptr<ShardServer>> servers_;
  /// Serializes the network path (gateway calls + pumps).
  std::mutex net_mu_;
  mutable std::mutex undelivered_mu_;
  std::vector<UndeliveredPortion> undelivered_;

  std::function<bool(std::uint64_t)> crash_after_decision_;
  std::function<bool(int)> rebalance_crash_hook_;

  // Telemetry (§8 catalog).
  Counter* cross_shard_rounds_metric_ =
      Metrics()->GetCounter("fasea.shard.cross_shard_rounds");
  Counter* reservations_metric_ =
      Metrics()->GetCounter("fasea.shard.reservations");
  Counter* reservation_refusals_metric_ =
      Metrics()->GetCounter("fasea.shard.reservation_refusals");
  Counter* resolved_committed_metric_ =
      Metrics()->GetCounter("fasea.shard.resolved_committed");
  Counter* resolved_aborted_metric_ =
      Metrics()->GetCounter("fasea.shard.resolved_aborted");
  Counter* recoveries_metric_ =
      Metrics()->GetCounter("fasea.shard.recoveries");
  Counter* merges_metric_ = Metrics()->GetCounter("fasea.shard.merges");
  Counter* nondurable_metric_ =
      Metrics()->GetCounter("fasea.shard.nondurable_rounds");
  Counter* leases_expired_metric_ =
      Metrics()->GetCounter("fasea.shard.leases_expired");
  Counter* force_aborted_metric_ =
      Metrics()->GetCounter("fasea.shard.force_aborted");
  Counter* redelivered_metric_ =
      Metrics()->GetCounter("fasea.shard.redelivered_portions");
  Counter* rebalance_events_moved_metric_ =
      Metrics()->GetCounter("fasea.rebalance.events_moved");
  Counter* rebalance_migrations_metric_ =
      Metrics()->GetCounter("fasea.rebalance.migrations");
  Counter* rebalance_aborted_metric_ =
      Metrics()->GetCounter("fasea.rebalance.aborted");
  Gauge* open_reservations_gauge_ =
      Metrics()->GetGauge("fasea.shard.open_reservations");
};

}  // namespace fasea

#endif  // FASEA_EBSN_SHARDED_SERVICE_H_
