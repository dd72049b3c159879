#include "ebsn/sharded_service.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "rng/seed.h"

namespace fasea {

namespace {

/// Serve failures a spillover stage may swallow (the stage is skipped,
/// the round goes on with fewer events): a busy participant pipeline, a
/// shed request, a draining shard, a refused reservation, a lost
/// message.
bool IsRetryableServe(StatusCode code) {
  return code == StatusCode::kFailedPrecondition ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

// Wire fields of the protocol messages: an i64, a shard index (u32),
// an event-id list (u32 count, then u32 ids) and a matrix (u32 rows,
// u32 cols, then row-major doubles). FieldSize is each field's encoded
// size, so a message reserves its buffer once.
std::size_t FieldSize(std::int64_t) { return 8; }
std::size_t FieldSize(int) { return 4; }
std::size_t FieldSize(const Arrangement& events) {
  return 4 + 4 * events.size();
}
std::size_t FieldSize(const Matrix& m) { return 8 + 8 * m.rows() * m.cols(); }

void WriteField(std::string* out, std::int64_t v) { AppendI64(out, v); }
void WriteField(std::string* out, int v) {
  AppendU32(out, static_cast<std::uint32_t>(v));
}
void WriteField(std::string* out, const Arrangement& events) {
  AppendU32(out, static_cast<std::uint32_t>(events.size()));
  for (EventId v : events) AppendU32(out, v);
}
void WriteField(std::string* out, const Matrix& m) {
  AppendU32(out, static_cast<std::uint32_t>(m.rows()));
  AppendU32(out, static_cast<std::uint32_t>(m.cols()));
  AppendDoubles(out, {m.data(), m.rows() * m.cols()});
}

// Declared counts come from the wire: each is checked against the bytes
// left before anything is allocated for it.
Status ReadField(ByteReader& reader, std::int64_t* out) {
  auto v = reader.ReadI64();
  if (!v.ok()) return v.status();
  *out = *v;
  return Status::Ok();
}
Status ReadField(ByteReader& reader, int* out) {
  auto v = reader.ReadU32();
  if (!v.ok()) return v.status();
  *out = static_cast<int>(*v);
  return Status::Ok();
}
Status ReadField(ByteReader& reader, Arrangement* out) {
  auto n = reader.ReadU32();
  if (!n.ok()) return n.status();
  if (*n > reader.remaining() / 4) {
    return InvalidArgumentError(
        StrFormat("event list of %u ids exceeds the %zu bytes left", *n,
                  reader.remaining()));
  }
  out->reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto v = reader.ReadU32();
    if (!v.ok()) return v.status();
    out->push_back(*v);
  }
  return Status::Ok();
}
Status ReadField(ByteReader& reader, Matrix* out) {
  auto rows = reader.ReadU32();
  if (!rows.ok()) return rows.status();
  auto cols = reader.ReadU32();
  if (!cols.ok()) return cols.status();
  // rows·cols ≤ (2³²−1)² fits in 64 bits; the byte count is compared by
  // division so it cannot wrap.
  const std::uint64_t values = std::uint64_t{*rows} * *cols;
  if (values > reader.remaining() / 8) {
    return InvalidArgumentError(
        StrFormat("%ux%u matrix exceeds the %zu bytes left", *rows, *cols,
                  reader.remaining()));
  }
  *out = Matrix(*rows, *cols);
  return reader.ReadDoubles({out->data(), static_cast<std::size_t>(values)});
}

template <typename... Fields>
std::string WriteFields(const Fields&... fields) {
  std::string out;
  out.reserve((FieldSize(fields) + ...));
  (WriteField(&out, fields), ...);
  return out;
}

/// Reads the fields in wire order, stopping at the first failure.
template <typename... Fields>
Status ReadFields(ByteReader& reader, Fields*... fields) {
  Status st = Status::Ok();
  (void)((st = ReadField(reader, fields)).ok() && ...);
  return st;
}

// COMMIT carries its two halves behind a leading flag byte: the
// coordinator's decision (the commit point) and the per-stage portion
// application.
constexpr std::uint8_t kCommitDecision = 0;
constexpr std::uint8_t kCommitPortion = 1;

// QUERY-DECISION answers.
constexpr std::uint8_t kNoDecision = 0;  // Presumed abort.
constexpr std::uint8_t kCommitted = 1;
constexpr std::uint8_t kMidCommit = 2;  // Ask again.

}  // namespace

// --- Protocol messages ---------------------------------------------------
//
// One typed request (and reply) per protocol step. The loopback hands
// them to the shard's handler as they are; the byte codecs run only at
// the network boundary (Call's network branch and the ShardServer
// methods). Deliberately boring wire format: fixed little-endian fields
// via common/bytes.h, the WAL's InteractionRecord codec for round
// payloads (always the LAST field, so it decodes from the remainder).

/// The empty reply of a portion COMMIT, ABORT and MIGRATE.
struct ShardedArrangementService::Ack {
  std::string Encode() const { return std::string(); }
  static StatusOr<Ack> Decode(std::string_view) { return Ack{}; }
};

struct ShardedArrangementService::ServeReply {
  std::int64_t coordinator_round = 0;
  Arrangement local_events;

  std::string Encode() const {
    return WriteFields(coordinator_round, local_events);
  }
  static StatusOr<ServeReply> Decode(std::string_view bytes) {
    ByteReader reader(bytes, "serve response: truncated body");
    ServeReply reply;
    Status st =
        ReadFields(reader, &reply.coordinator_round, &reply.local_events);
    if (!st.ok()) return st;
    return reply;
  }
};

/// SERVE: the home shard opens the coordinator round.
struct ShardedArrangementService::ServeRequest {
  using Reply = ServeReply;
  static constexpr MessageKind kKind = MessageKind::kServe;
  static constexpr auto kHandler = &ShardedArrangementService::HandleServe;

  std::int64_t user_id = 0;
  std::int64_t user_capacity = 0;
  std::int64_t lease_expiry = 0;
  Matrix contexts;  // The home shard's context submatrix.

  std::string Encode() const {
    return WriteFields(user_id, user_capacity, lease_expiry, contexts);
  }
  static StatusOr<ServeRequest> Decode(std::string_view bytes) {
    ByteReader reader(bytes, "serve request: truncated body");
    ServeRequest request;
    Status st = ReadFields(reader, &request.user_id, &request.user_capacity,
                           &request.lease_expiry, &request.contexts);
    if (!st.ok()) return st;
    return request;
  }
};

struct ShardedArrangementService::ReserveReply {
  std::int64_t local_round = 0;
  Arrangement global_events;  // Empty: nothing reserved.

  std::string Encode() const { return WriteFields(local_round, global_events); }
  static StatusOr<ReserveReply> Decode(std::string_view bytes) {
    ByteReader reader(bytes, "reserve response: truncated body");
    ReserveReply reply;
    Status st = ReadFields(reader, &reply.local_round, &reply.global_events);
    if (!st.ok()) return st;
    return reply;
  }
};

/// RESERVE (phase 1): a participant proposes a spillover portion and
/// durably reserves it.
struct ShardedArrangementService::ReserveRequest {
  using Reply = ReserveReply;
  static constexpr MessageKind kKind = MessageKind::kReserve;
  static constexpr auto kHandler = &ShardedArrangementService::HandleReserve;

  std::int64_t user_id = 0;
  std::int64_t remaining = 0;  // Capacity left for this stage.
  std::int64_t lease_expiry = 0;
  int coordinator_shard = 0;
  std::int64_t coordinator_round = 0;
  Arrangement chosen;  // Global ids picked upstream (conflict mask).
  Matrix contexts;     // The participant's context submatrix.

  std::string Encode() const {
    return WriteFields(user_id, remaining, lease_expiry, coordinator_shard,
                       coordinator_round, chosen, contexts);
  }
  static StatusOr<ReserveRequest> Decode(std::string_view bytes) {
    ByteReader reader(bytes, "reserve request: truncated body");
    ReserveRequest request;
    Status st = ReadFields(reader, &request.user_id, &request.remaining,
                           &request.lease_expiry, &request.coordinator_shard,
                           &request.coordinator_round, &request.chosen,
                           &request.contexts);
    if (!st.ok()) return st;
    return request;
  }
};

struct ShardedArrangementService::DecisionReply {
  bool durable = false;  // The DECISION frame reached the WAL.

  std::string Encode() const { return std::string(1, durable ? '\1' : '\0'); }
  static StatusOr<DecisionReply> Decode(std::string_view bytes) {
    DecisionReply reply;
    reply.durable = !bytes.empty() && bytes[0] != '\0';
    return reply;
  }
};

/// COMMIT, decision half: the coordinator appends and indexes the
/// decision — the transaction's commit point.
struct ShardedArrangementService::DecisionRequest {
  using Reply = DecisionReply;
  static constexpr MessageKind kKind = MessageKind::kCommit;
  static constexpr auto kHandler = &ShardedArrangementService::HandleDecision;

  InteractionRecord record;  // Global ids, the full round.

  std::string Encode() const {
    std::string out;
    AppendU8(&out, kCommitDecision);
    out += EncodeInteractionRecord(record);
    return out;
  }
  static StatusOr<DecisionRequest> Decode(std::string_view bytes) {
    if (bytes.empty() ||
        static_cast<std::uint8_t>(bytes[0]) != kCommitDecision) {
      return InvalidArgumentError("malformed commit body");
    }
    auto record = DecodeInteractionRecord(bytes.substr(1));
    if (!record.ok()) return record.status();
    DecisionRequest request;
    request.record = std::move(record).value();
    return request;
  }
};

/// COMMIT, portion half: one stage applies its slice of the round.
struct ShardedArrangementService::PortionRequest {
  using Reply = Ack;
  static constexpr MessageKind kKind = MessageKind::kCommit;
  static constexpr auto kHandler = &ShardedArrangementService::HandlePortion;

  bool write_frame = false;  // Durable decision && not the home slice.
  InteractionRecord record;  // LOCAL ids of the current epoch.

  std::string Encode() const {
    std::string out;
    AppendU8(&out, kCommitPortion);
    AppendU8(&out, write_frame ? 1 : 0);
    out += EncodeInteractionRecord(record);
    return out;
  }
  static StatusOr<PortionRequest> Decode(std::string_view bytes) {
    if (bytes.size() < 2 ||
        static_cast<std::uint8_t>(bytes[0]) != kCommitPortion) {
      return InvalidArgumentError("malformed commit body");
    }
    auto record = DecodeInteractionRecord(bytes.substr(2));
    if (!record.ok()) return record.status();
    PortionRequest request;
    request.write_frame = bytes[1] != 0;
    request.record = std::move(record).value();
    return request;
  }
};

/// ABORT: a shard rolls back its stage of the transaction.
struct ShardedArrangementService::AbortRequest {
  using Reply = Ack;
  static constexpr MessageKind kKind = MessageKind::kAbort;
  static constexpr auto kHandler = &ShardedArrangementService::HandleAbort;

  std::string Encode() const { return std::string(); }
  static StatusOr<AbortRequest> Decode(std::string_view) {
    return AbortRequest{};
  }
};

struct ShardedArrangementService::QueryReply {
  std::uint8_t outcome = kNoDecision;
  InteractionRecord record;  // Set when outcome == kCommitted.

  std::string Encode() const {
    std::string out;
    AppendU8(&out, outcome);
    if (outcome == kCommitted) out += EncodeInteractionRecord(record);
    return out;
  }
  static StatusOr<QueryReply> Decode(std::string_view bytes) {
    if (bytes.empty()) {
      return InvalidArgumentError("query response: truncated body");
    }
    QueryReply reply;
    reply.outcome = static_cast<std::uint8_t>(bytes[0]);
    if (reply.outcome == kCommitted) {
      auto record = DecodeInteractionRecord(bytes.substr(1));
      if (!record.ok()) return record.status();
      reply.record = std::move(record).value();
    }
    return reply;
  }
};

/// QUERY-DECISION: "did txn T commit?", asked of its coordinator.
struct ShardedArrangementService::QueryRequest {
  using Reply = QueryReply;
  static constexpr MessageKind kKind = MessageKind::kQueryDecision;
  static constexpr auto kHandler = &ShardedArrangementService::HandleQuery;

  /// Lease expiry: abort an undecided transaction for good.
  bool force = false;

  std::string Encode() const { return std::string(1, force ? '\1' : '\0'); }
  static StatusOr<QueryRequest> Decode(std::string_view bytes) {
    QueryRequest request;
    request.force = !bytes.empty() && bytes[0] != 0;
    return request;
  }
};

/// MIGRATE: the rebalance's WAL-segment handoff to a new owner.
struct ShardedArrangementService::MigrateRequest {
  using Reply = Ack;
  static constexpr MessageKind kKind = MessageKind::kMigrate;
  static constexpr auto kHandler = &ShardedArrangementService::HandleMigrate;

  std::string frame;  // The MIGRATE WAL frame itself.

  std::string Encode() const { return frame; }
  static StatusOr<MigrateRequest> Decode(std::string_view bytes) {
    MigrateRequest request;
    request.frame = std::string(bytes);
    return request;
  }
};

struct ShardedArrangementService::UndeliveredPortion {
  int shard = 0;
  std::uint64_t txn = 0;
  std::uint64_t trace_id = 0;
  PortionRequest request;
};

std::string ShardRecoveryReport::ToString() const {
  return StrFormat(
      "shard %d: %lld segment(s), %lld frame(s), %lld byte(s) truncated, "
      "%lld duplicate(s) skipped; %lld decision(s) indexed, %lld "
      "portion(s) replayed, %lld round(s) restored; in-doubt %lld -> "
      "%lld committed / %lld aborted; interrupted %lld completed / %lld "
      "aborted",
      shard, static_cast<long long>(segments_scanned),
      static_cast<long long>(frames_scanned),
      static_cast<long long>(bytes_truncated),
      static_cast<long long>(duplicate_frames_skipped),
      static_cast<long long>(decisions_indexed),
      static_cast<long long>(portions_applied),
      static_cast<long long>(rounds_served),
      static_cast<long long>(reservations_in_doubt),
      static_cast<long long>(resolved_committed),
      static_cast<long long>(resolved_aborted),
      static_cast<long long>(interrupted_completed),
      static_cast<long long>(interrupted_aborted));
}

std::string RebalanceReport::ToString() const {
  return StrFormat(
      "rebalance %d -> %d shard(s) (epoch %u): %lld event(s) moved",
      old_shards, new_shards, static_cast<unsigned>(epoch),
      static_cast<long long>(events_moved));
}

ShardedArrangementService::ShardedArrangementService(
    const ProblemInstance* instance, ShardedOptions options)
    : instance_(instance), options_(std::move(options)) {
  FASEA_CHECK(instance != nullptr);
  FASEA_CHECK(options_.num_shards >= 1);
  routers_.push_back(
      std::make_unique<ShardRouter>(instance, options_.num_shards));
  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->service = std::make_unique<ArrangementService>(
        &router().SubInstance(s), options_.kind, options_.params,
        DeriveSeed(options_.seed, "shard-policy",
                   static_cast<std::uint64_t>(s)));
    shards_.push_back(std::move(shard));
  }
  cursors_.assign(
      static_cast<std::size_t>(options_.num_shards),
      std::vector<std::size_t>(static_cast<std::size_t>(options_.num_shards),
                               0));
}

ShardedArrangementService::~ShardedArrangementService() = default;

// --- Durability ----------------------------------------------------------

Status ShardedArrangementService::AttachWals(
    Env* env, const std::string& base_dir, const WalOptions& wal_options,
    const DurabilityPolicy& durability) {
  FASEA_CHECK(env != nullptr);
  env_ = env;
  wal_base_dir_ = base_dir;
  wal_options_ = wal_options;
  durability_ = durability;
  // Per-shard dirs nest under the base; WalWriter::Open only creates its
  // own leaf, so a fresh base path must exist before the first shard.
  if (Status st = env->CreateDir(base_dir); !st.ok()) return st;
  for (int s = 0; s < options_.num_shards; ++s) {
    if (shards_[static_cast<std::size_t>(s)]->service == nullptr) continue;
    if (Status st = AttachShardWal(s); !st.ok()) return st;
  }
  return Status::Ok();
}

Status ShardedArrangementService::AttachShardWal(int shard) {
  if (shard < 0 || shard >= options_.num_shards) {
    return InvalidArgumentError(StrFormat("no shard %d", shard));
  }
  if (env_ == nullptr) {
    return FailedPreconditionError(
        "AttachWals has not configured a WAL base directory");
  }
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return FailedPreconditionError(
        StrFormat("shard %d is down; recover it first", shard));
  }
  auto wal =
      WalWriter::Open(env_, ShardWalDirName(wal_base_dir_, shard),
                      wal_options_);
  if (!wal.ok()) return wal.status();
  std::lock_guard<std::mutex> lock(s.wal_mu);
  s.wal = std::move(wal).value();
  s.degraded = false;
  s.breaker = durability_.breaker_enabled
                  ? std::make_unique<CircuitBreaker>(durability_.breaker)
                  : nullptr;
  return Status::Ok();
}

Status ShardedArrangementService::AttachDecisionLogs(
    Env* env, const std::string& base_dir, const DecisionLogHeader& header,
    const WalOptions& wal_options) {
  FASEA_CHECK(env != nullptr);
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    if (shard.service == nullptr) continue;
    auto log = DecisionLogWriter::Open(
        env, DecisionLogDirName(ShardWalDirName(base_dir, s)), header,
        wal_options);
    if (!log.ok()) return log.status();
    shard.service->AttachDecisionLog(std::move(log).value());
  }
  return Status::Ok();
}

Status ShardedArrangementService::CloseDecisionLogs() {
  Status first = Status::Ok();
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    if (shard.service == nullptr) continue;
    DecisionLogWriter* log = shard.service->mutable_decision_log();
    if (log == nullptr) continue;
    if (Status st = log->Close(); !st.ok() && first.ok()) first = st;
  }
  return first;
}

Status ShardedArrangementService::AppendLocked(Shard& shard,
                                               std::string_view frame) {
  if (shard.wal->broken()) {
    // Sealed or torn bytes are never rewritten; a fresh segment is the
    // only way to accept frames again.
    auto reopened = WalWriter::Open(
        env_, ShardWalDirName(wal_base_dir_, shard.index), wal_options_);
    if (!reopened.ok()) return reopened.status();
    shard.wal = std::move(reopened).value();
    ++shard.wal_reopens;
  }
  return shard.wal->Append(frame);
}

StatusOr<ShardedArrangementService::AppendOutcome>
ShardedArrangementService::AppendFrame(Shard& shard,
                                       std::string_view frame) {
  std::lock_guard<std::mutex> lock(shard.wal_mu);
  if (shard.wal == nullptr || shard.degraded) {
    return AppendOutcome::kNonDurable;
  }
  if (shard.breaker == nullptr) {
    Status st = AppendLocked(shard, frame);
    if (st.ok()) return AppendOutcome::kDurable;
    ++shard.append_failures;
    if (durability_.on_wal_error ==
        DurabilityPolicy::OnWalError::kFailRound) {
      return UnavailableError(
          "durability failure, round not applied (retry after the log is "
          "restored): " +
          st.message());
    }
    shard.degraded = true;
    ++shard.nondurable_rounds;
    nondurable_metric_->Increment();
    return AppendOutcome::kNonDurable;
  }
  if (!shard.breaker->Allow()) {
    ++shard.nondurable_rounds;
    nondurable_metric_->Increment();
    return AppendOutcome::kNonDurable;
  }
  Status st = AppendLocked(shard, frame);
  if (st.ok()) {
    shard.breaker->RecordSuccess();
    return AppendOutcome::kDurable;
  }
  shard.breaker->RecordFailure();
  ++shard.append_failures;
  if (durability_.on_wal_error == DurabilityPolicy::OnWalError::kFailRound) {
    return UnavailableError(
        "durability failure, round not applied (retry; the breaker "
        "arbitrates recovery): " +
        st.message());
  }
  ++shard.nondurable_rounds;
  nondurable_metric_->Increment();
  return AppendOutcome::kNonDurable;
}

Status ShardedArrangementService::AppendFrameStrict(Shard& shard,
                                                    std::string_view frame) {
  std::lock_guard<std::mutex> lock(shard.wal_mu);
  // With no WAL anywhere, a crash loses everything regardless — the
  // reservation requirement is vacuous.
  if (shard.wal == nullptr) return Status::Ok();
  if (shard.degraded) {
    return UnavailableError("shard is WAL-degraded; reservation refused");
  }
  if (shard.breaker != nullptr && !shard.breaker->Allow()) {
    return UnavailableError("shard breaker is open; reservation refused");
  }
  Status st = AppendLocked(shard, frame);
  if (shard.breaker != nullptr) {
    if (st.ok()) {
      shard.breaker->RecordSuccess();
    } else {
      shard.breaker->RecordFailure();
    }
  }
  if (!st.ok()) {
    ++shard.append_failures;
    return UnavailableError("reservation could not be hardened: " +
                            st.message());
  }
  return Status::Ok();
}

const ShardRouter& ShardedArrangementService::RouterAt(
    std::uint32_t epoch) const {
  // Frames can never be written under an epoch that has not flipped, so
  // a larger stamp means a format bug; clamping keeps replay total.
  const std::size_t e =
      std::min<std::size_t>(epoch, routers_.size() - 1);
  return *routers_[e];
}

// --- Serving -------------------------------------------------------------

Matrix ShardedArrangementService::GatherContexts(
    int shard, const ContextMatrix& contexts) const {
  const std::vector<EventId>& events = router().ShardEvents(shard);
  Matrix out(events.size(), contexts.cols());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto src = contexts.Row(events[i]);
    std::copy(src.begin(), src.end(), out.Row(i).begin());
  }
  return out;
}

Arrangement ShardedArrangementService::MapToGlobal(
    int shard, const Arrangement& local) const {
  const std::vector<EventId>& events = router().ShardEvents(shard);
  Arrangement out;
  out.reserve(local.size());
  for (EventId v : local) {
    FASEA_DCHECK(v < events.size());
    out.push_back(events[v]);
  }
  return out;
}

std::vector<std::uint8_t> ShardedArrangementService::SpilloverMask(
    int shard, const Arrangement& chosen) const {
  const std::vector<EventId>& events = router().ShardEvents(shard);
  const ConflictGraph& conflicts = instance_->conflicts();
  std::vector<std::uint8_t> mask(events.size(), 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (EventId c : chosen) {
      if (conflicts.Conflicts(events[i], c)) {
        mask[i] = 0;
        break;
      }
    }
  }
  return mask;
}

StatusOr<ShardedServeResult> ShardedArrangementService::ServeUser(
    std::int64_t user_id, std::int64_t user_capacity,
    const ContextMatrix& contexts) {
  if (contexts.rows() != instance_->num_events() ||
      contexts.cols() != instance_->dim()) {
    return InvalidArgumentError(StrFormat(
        "context matrix is %zux%zu, the instance needs %zux%zu",
        contexts.rows(), contexts.cols(), instance_->num_events(),
        instance_->dim()));
  }
  const std::unique_lock<std::mutex> net_lock = LockNetwork();
  const std::uint64_t txn =
      next_txn_.fetch_add(1, std::memory_order_relaxed);
  // The transaction's correlation id: deterministic, so recovery and
  // replay re-derive the same id from the txn alone.
  const std::uint64_t trace_id = Mix64(txn);
  const int home = router().HomeShard(static_cast<std::int64_t>(txn - 1));
  if (!shard_alive(home)) {
    return UnavailableError(
        StrFormat("home shard %d is down; retry (the next arrival routes "
                  "elsewhere)",
                  home));
  }
  const std::int64_t lease = LeaseExpiry();

  PendingTxn pending;
  pending.home = home;
  pending.trace_id = trace_id;
  pending.user_id = user_id;
  pending.user_capacity = user_capacity;

  // Stage 0: the coordinator proposes from its own partition. A lost
  // SERVE may still have opened the stage; its lease expires it.
  Arrangement chosen;  // Global ids.
  {
    TraceSpan span("txn.coordinate", static_cast<std::int64_t>(txn),
                   TraceRing::Global(), nullptr, trace_id);
    ServeRequest request;
    request.user_id = user_id;
    request.user_capacity = user_capacity;
    request.lease_expiry = lease;
    request.contexts = GatherContexts(home, contexts);
    auto reply = Call(home, txn, trace_id, request);
    if (!reply.ok()) return reply.status();
    pending.coordinator_round = reply->coordinator_round;
    Portion portion;
    portion.shard = home;
    portion.local_events = std::move(reply->local_events);
    portion.start = 0;
    portion.local_round = pending.coordinator_round;
    portion.local_capacity = user_capacity;
    chosen = MapToGlobal(home, portion.local_events);
    pending.portions.push_back(std::move(portion));
  }

  // Spillover: RESERVE in ring order after the home while capacity
  // remains. A busy, refused or lost stage is skipped (a lease cleans up
  // whatever a lost one did); the round goes on with fewer events.
  std::int64_t remaining =
      user_capacity - static_cast<std::int64_t>(chosen.size());
  bool crossed = false;
  for (int k = 1; k < options_.num_shards && remaining > 0; ++k) {
    const int sid = (home + k) % options_.num_shards;
    if (!shard_alive(sid) || router().ShardEvents(sid).empty()) continue;
    const std::vector<std::uint8_t> mask = SpilloverMask(sid, chosen);
    if (std::all_of(mask.begin(), mask.end(),
                    [](std::uint8_t m) { return m == 0; })) {
      continue;  // Everything here conflicts with the chosen set.
    }
    ReserveRequest request;
    request.user_id = user_id;
    request.remaining = remaining;
    request.lease_expiry = lease;
    request.coordinator_shard = home;
    request.coordinator_round = pending.coordinator_round;
    request.chosen = chosen;
    request.contexts = GatherContexts(sid, contexts);
    TraceSpan reserve_span("txn.reserve", static_cast<std::int64_t>(txn),
                           TraceRing::Global(), nullptr, trace_id);
    auto reply = Call(sid, txn, trace_id, request);
    if (!reply.ok()) {
      if (IsRetryableServe(reply.status().code())) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.spillover_stages_skipped;
        continue;
      }
      // Unretryable: abort every stage opened so far (best effort —
      // leases catch whatever the network loses).
      for (const Portion& portion : pending.portions) {
        (void)Call(portion.shard, txn, trace_id, AbortRequest{});
      }
      return reply.status();
    }
    if (reply->global_events.empty()) continue;
    Portion portion;
    portion.shard = sid;
    portion.start = chosen.size();
    portion.local_round = reply->local_round;
    portion.local_capacity = remaining;  // What this stage was asked for.
    portion.local_events.reserve(reply->global_events.size());
    for (EventId g : reply->global_events) {
      portion.local_events.push_back(router().LocalId(g));
      chosen.push_back(g);
    }
    remaining -= static_cast<std::int64_t>(reply->global_events.size());
    pending.portions.push_back(std::move(portion));
    crossed = true;
  }
  if (crossed) {
    cross_shard_rounds_metric_->Increment();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.cross_shard_rounds;
  }

  pending.arrangement = chosen;
  pending.context_rows.reserve(chosen.size());
  for (EventId v : chosen) {
    const auto row = contexts.Row(v);
    pending.context_rows.emplace_back(row.begin(), row.end());
  }

  ShardedServeResult result;
  result.txn = txn;
  result.home_shard = home;
  result.arrangement = std::move(chosen);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_[txn] = std::move(pending);
  }
  open_reservations_gauge_->Set(static_cast<double>(OpenReservations()));
  return result;
}

Status ShardedArrangementService::SubmitFeedback(
    std::uint64_t txn, const Feedback& feedback,
    ShardedFeedbackResult* result) {
  const std::unique_lock<std::mutex> net_lock = LockNetwork();
  PendingTxn* pending = nullptr;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(txn);
    if (it == pending_.end()) {
      return FailedPreconditionError(StrFormat(
          "transaction %llu is not pending (never served, already "
          "committed, force-aborted on lease expiry, or lost with a "
          "crashed coordinator)",
          static_cast<unsigned long long>(txn)));
    }
    if (it->second.busy) {
      return FailedPreconditionError("transaction is already mid-commit");
    }
    it->second.busy = true;
    pending = &it->second;  // Map nodes are stable.
  }
  const auto fail_retryable = [&](Status st) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending->busy = false;
    return st;
  };

  if (feedback.size() != pending->arrangement.size()) {
    return fail_retryable(InvalidArgumentError(
        "feedback must align with the served arrangement"));
  }
  for (std::uint8_t f : feedback) {
    if (f > 1) {
      return fail_retryable(
          InvalidArgumentError("feedback entries must be 0/1"));
    }
  }
  const int home_shard = pending->home;
  if (!shard_alive(home_shard)) {
    return fail_retryable(UnavailableError("home shard is down"));
  }

  // Commit point: the decision on the coordinator. A retryable failure
  // leaves nothing applied anywhere — reservations stay durably open and
  // the same feedback may be resubmitted (the decision index answers a
  // resubmit of an already-decided txn; the replay cache suppresses
  // network duplicates).
  bool durable = false;
  {
    TraceSpan span("txn.commit", static_cast<std::int64_t>(txn),
                   TraceRing::Global(), nullptr, pending->trace_id);
    DecisionRequest decision;
    decision.record.t = pending->coordinator_round;
    decision.record.user_id = pending->user_id;
    decision.record.user_capacity = pending->user_capacity;
    decision.record.arrangement = pending->arrangement;
    decision.record.feedback = feedback;
    decision.record.contexts = pending->context_rows;
    auto reply = Call(home_shard, txn, pending->trace_id, decision);
    if (!reply.ok() &&
        reply.status().code() == StatusCode::kFailedPrecondition) {
      // The lease reaper got here first: the transaction is aborted for
      // good, nothing was or will be applied.
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        pending_.erase(txn);
      }
      open_reservations_gauge_->Set(static_cast<double>(OpenReservations()));
      return reply.status();
    }
    if (!reply.ok()) return fail_retryable(reply.status());
    durable = reply->durable;
  }
  if (crash_after_decision_ && crash_after_decision_(txn)) {
    // Simulated coordinator crash between the phases. The transaction
    // stays pending; KillShard parks it and RecoverShard resolves it.
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending->busy = false;
    return UnavailableError(
        "injected coordinator crash after the decision was committed");
  }

  // Phase 2: COMMIT(portion) to every stage. A participant writes its
  // PORTION frame — only after a durable decision, so a portion record
  // never outlives its decision — before applying (write-ahead). A
  // delivery the network lost parks for redelivery (at-least-once; the
  // application is idempotent, keyed by the open stage).
  int participants = 0;
  const std::int64_t home_round = pending->coordinator_round;
  for (const Portion& portion : pending->portions) {
    const bool is_home = portion.shard == home_shard;
    if (!is_home) ++participants;
    if (!shard_alive(portion.shard)) {
      // The participant died after the commit point; its durable
      // reservation meets the durable decision at its recovery.
      continue;
    }
    PortionRequest request =
        PortionOf(*pending, portion, feedback, durable && !is_home);
    TraceSpan span("txn.portion", static_cast<std::int64_t>(txn),
                   TraceRing::Global(), nullptr, pending->trace_id);
    bool lost = false;
    auto reply = Call(portion.shard, txn, pending->trace_id, request, &lost);
    if (lost) {
      std::lock_guard<std::mutex> lock(undelivered_mu_);
      undelivered_.push_back({.shard = portion.shard,
                              .txn = txn,
                              .trace_id = pending->trace_id,
                              .request = std::move(request)});
      continue;
    }
    if (!reply.ok()) return fail_retryable(reply.status());
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.erase(txn);  // `pending` dangles past this point.
  }
  rounds_completed_.fetch_add(1, std::memory_order_relaxed);
  open_reservations_gauge_->Set(static_cast<double>(OpenReservations()));
  if (result != nullptr) {
    result->txn = txn;
    result->home_shard = home_shard;
    result->home_round = home_round;
    result->durable = durable;
    result->participant_shards = participants;
  }
  MaybeAutoMerge();
  return Status::Ok();
}

// --- Crash and recovery --------------------------------------------------

Status ShardedArrangementService::KillShard(int shard) {
  if (shard < 0 || shard >= options_.num_shards) {
    return InvalidArgumentError(StrFormat("no shard %d", shard));
  }
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return FailedPreconditionError(
        StrFormat("shard %d is already down", shard));
  }
  // Transactions this shard coordinated are parked for RecoverShard's
  // resolver; transactions it merely participated in are aborted on the
  // survivors (their durable reservations resolve to presumed abort).
  std::vector<std::pair<std::uint64_t, PendingTxn>> participated;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      bool involved = false;
      for (const Portion& portion : it->second.portions) {
        if (portion.shard == shard) {
          involved = true;
          break;
        }
      }
      if (it->second.home == shard) {
        interrupted_[it->first] = std::move(it->second);
        it = pending_.erase(it);
      } else if (involved) {
        participated.emplace_back(it->first, std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [txn, pending] : participated) {
    for (const Portion& portion : pending.portions) {
      if (portion.shard == shard) continue;
      (void)HandleAbort(portion.shard, txn, pending.trace_id, AbortRequest{});
    }
  }
  // The crash: every in-memory structure is gone; the WAL survives.
  // Under a transport the node drops off the network too — in-flight
  // messages to it vanish like packets to a dead peer.
  if (shard < static_cast<int>(servers_.size())) {
    servers_[static_cast<std::size_t>(shard)].reset();
  }
  s.service.reset();
  {
    std::lock_guard<std::mutex> lock(s.wal_mu);
    s.wal.reset();
    s.breaker.reset();
    s.degraded = false;
  }
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    s.decisions.clear();
    s.decision_durable.clear();
    s.open_reservations.clear();
    s.stage_rounds.clear();
  }
  {
    std::lock_guard<std::mutex> lock(s.obs_mu);
    s.obs.clear();
  }
  return Status::Ok();
}

InteractionRecord ShardedArrangementService::SliceForReplay(
    int shard, const InteractionRecord& record, std::int64_t t,
    std::uint32_t frame_epoch,
    const std::map<EventId, std::uint32_t>& acquired,
    bool* migration_filtered) const {
  const ShardRouter& then = RouterAt(frame_epoch);
  InteractionRecord out;
  out.t = t;
  out.user_id = record.user_id;
  out.user_capacity = record.user_capacity;
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    const EventId g = record.arrangement[i];
    // Not this shard's slice at write time: the plain cross-shard
    // filter, same as the live path.
    if (then.OwnerShard(g) != shard) continue;
    // Owned then but not now: the event migrated away; its new owner
    // carries this consumption inside its MIGRATE frame.
    if (router().OwnerShard(g) != shard) {
      if (migration_filtered != nullptr) *migration_filtered = true;
      continue;
    }
    // Owned then and now, but the frame pre-dates the event's latest
    // migration INTO this shard — the round is already folded into the
    // MIGRATE frame's consumed count.
    auto it = acquired.find(g);
    if (it != acquired.end() && frame_epoch < it->second) {
      if (migration_filtered != nullptr) *migration_filtered = true;
      continue;
    }
    out.arrangement.push_back(router().LocalId(g));
    out.feedback.push_back(record.feedback[i]);
    out.contexts.push_back(record.contexts[i]);
  }
  return out;
}

StatusOr<bool> ShardedArrangementService::LookupDecision(
    int coordinator, std::uint64_t txn, InteractionRecord* out) {
  if (coordinator < 0 || coordinator >= options_.num_shards) {
    return InvalidArgumentError(
        StrFormat("reservation names unknown coordinator shard %d",
                  coordinator));
  }
  if (shard_alive(coordinator)) {
    // A live coordinator's decision index answers, like any protocol
    // step. If the network loses the query, the index is read directly
    // (the stand-in for a replicated decision log).
    auto reply = Call(coordinator, txn, Mix64(txn), QueryRequest{});
    if (!reply.ok()) {
      reply = HandleQuery(coordinator, txn, Mix64(txn), QueryRequest{});
    }
    if (!reply.ok()) return reply.status();
    if (reply->outcome != kCommitted) return false;
    *out = std::move(reply->record);
    return true;
  }
  // The coordinator is down: presumed abort, unless its durable decision
  // record says otherwise. Its WAL is readable without disturbing it.
  if (env_ == nullptr) return false;
  auto scan = ScanWal(env_, ShardWalDirName(wal_base_dir_, coordinator),
                      CorruptFramePolicy::kFail);
  if (!scan.ok()) return scan.status();
  bool found = false;
  for (const std::string& payload : scan->payloads) {
    auto frame = DecodeShardFrame(payload);
    if (!frame.ok()) return frame.status();
    if (frame->kind == ShardFrameKind::kDecision && frame->txn == txn) {
      *out = frame->record;
      found = true;  // Later duplicates (retries) carry the same bytes.
    }
  }
  return found;
}

void ShardedArrangementService::AppendObservations(
    const InteractionRecord& record, std::vector<Observation>* out) {
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    out->push_back(Observation{record.arrangement[i], record.contexts[i],
                               static_cast<double>(record.feedback[i])});
  }
}

StatusOr<ShardRecoveryReport> ShardedArrangementService::RecoverShard(
    int shard) {
  if (shard < 0 || shard >= options_.num_shards) {
    return InvalidArgumentError(StrFormat("no shard %d", shard));
  }
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service != nullptr) {
    return FailedPreconditionError(
        StrFormat("shard %d is alive; kill it before recovering", shard));
  }
  if (env_ == nullptr) {
    return FailedPreconditionError(
        "no WAL base directory configured (AttachWals was never called)");
  }
  ShardRecoveryReport report;
  report.shard = shard;

  auto scan = ScanWal(env_, ShardWalDirName(wal_base_dir_, shard),
                      CorruptFramePolicy::kFail);
  if (!scan.ok()) return scan.status();
  report.segments_scanned = scan->segments_scanned;
  report.bytes_truncated = scan->bytes_truncated;

  auto service = std::make_unique<ArrangementService>(
      &router().SubInstance(shard), options_.kind, options_.params,
      DeriveSeed(options_.seed, "shard-policy",
                 static_cast<std::uint64_t>(shard)));
  // Decode every frame up front: MIGRATE frames resolve last-writer-
  // wins per event, and the slice filter needs each event's winning
  // acquisition epoch before the first round frame replays.
  std::vector<ShardFrame> frames;
  frames.reserve(scan->payloads.size());
  for (const std::string& payload : scan->payloads) {
    ++report.frames_scanned;
    auto frame = DecodeShardFrame(payload);
    if (!frame.ok()) return frame.status();
    frames.push_back(std::move(frame).value());
  }
  // acquired[g]: epoch of the winning MIGRATE frame for event g;
  // chosen_frame[g]: its index in `frames`. Frames stamped with an
  // epoch that never flipped (a rebalance that crashed before its
  // flip) are inert — the retry superseded them.
  std::map<EventId, std::uint32_t> acquired;
  std::map<EventId, std::size_t> chosen_frame;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const ShardFrame& frame = frames[i];
    if (frame.kind != ShardFrameKind::kMigrate) continue;
    if (frame.epoch > rebalance_epoch_) continue;
    for (const MigratedEvent& moved : frame.migrate.events) {
      if (router().OwnerShard(moved.event) != shard) continue;
      acquired[moved.event] = frame.epoch;
      chosen_frame[moved.event] = i;
    }
  }

  std::map<std::uint64_t, InteractionRecord> decisions;
  std::map<std::uint64_t, ReservationRecord> in_doubt;
  // The shard's observation buffer, rebuilt as each record is restored.
  std::vector<Observation> obs;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const ShardFrame& frame = frames[i];
    switch (frame.kind) {
      case ShardFrameKind::kDecision: {
        decisions[frame.txn] = frame.record;
        bool migration_filtered = false;
        InteractionRecord slice =
            SliceForReplay(shard, frame.record, frame.record.t,
                           frame.epoch, acquired, &migration_filtered);
        if (migration_filtered) ++report.migration_filtered_frames;
        // An empty slice normally still advances the coordinator's
        // round counter (the home contributed nothing that round) —
        // but a slice the MIGRATION rules emptied is another shard's
        // history now and must not.
        if (slice.arrangement.empty() && migration_filtered) break;
        if (slice.t <= service->rounds_served()) {
          ++report.duplicate_frames_skipped;
          break;
        }
        if (Status st = service->RestoreInteraction(slice, /*learn=*/true);
            !st.ok()) {
          return st;
        }
        AppendObservations(slice, &obs);
        break;
      }
      case ShardFrameKind::kReserve:
        // Idempotent: a retried reservation re-frames the same bytes.
        in_doubt[frame.txn] = frame.reservation;
        break;
      case ShardFrameKind::kPortion: {
        in_doubt.erase(frame.txn);
        // Portion records carry LOCAL ids of the writing epoch's
        // router; translate to global, then re-slice under the
        // ownership history into today's local ids.
        const ShardRouter& then = RouterAt(frame.epoch);
        if (shard >= then.num_shards()) break;  // Pre-dates the shard.
        const std::vector<EventId>& then_events = then.ShardEvents(shard);
        InteractionRecord global = frame.record;
        for (EventId& v : global.arrangement) {
          if (v >= then_events.size()) {
            return DataLossError(StrFormat(
                "portion frame of txn %llu names local event %u outside "
                "epoch %u's partition of shard %d",
                static_cast<unsigned long long>(frame.txn), v,
                static_cast<unsigned>(frame.epoch), shard));
          }
          v = then_events[v];
        }
        bool migration_filtered = false;
        InteractionRecord slice =
            SliceForReplay(shard, global, frame.record.t, frame.epoch,
                           acquired, &migration_filtered);
        if (migration_filtered) ++report.migration_filtered_frames;
        if (slice.arrangement.empty()) break;  // Fully migrated away.
        if (slice.t <= service->rounds_served()) {
          ++report.duplicate_frames_skipped;
          break;
        }
        if (Status st = service->RestoreInteraction(slice, /*learn=*/true);
            !st.ok()) {
          return st;
        }
        AppendObservations(slice, &obs);
        ++report.portions_applied;
        break;
      }
      case ShardFrameKind::kMigrate: {
        // Apply each event whose winning frame is this one: fold the
        // consumed capacity in, then feed the source learner's rows to
        // the policy (soft state — kFailedPrecondition from a
        // non-ridge policy is tolerated).
        std::vector<PeerObservation> delta;
        for (const MigratedEvent& moved : frame.migrate.events) {
          auto it = chosen_frame.find(moved.event);
          if (it == chosen_frame.end() || it->second != i) continue;
          if (Status st = service->RestoreMigratedCapacity(
                  router().LocalId(moved.event), moved.consumed);
              !st.ok()) {
            return st;
          }
          for (const MigratedObservation& obs : moved.observations) {
            PeerObservation peer;
            peer.context = obs.context;
            peer.reward = obs.reward;
            delta.push_back(std::move(peer));
          }
          ++report.migrated_events_applied;
        }
        if (!delta.empty()) {
          Status st = service->AbsorbPeerObservations(delta);
          if (!st.ok() && st.code() != StatusCode::kFailedPrecondition) {
            return st;
          }
        }
        break;
      }
    }
  }
  report.decisions_indexed =
      static_cast<std::int64_t>(decisions.size());
  report.reservations_in_doubt =
      static_cast<std::int64_t>(in_doubt.size());

  // Presumed-abort resolution: every in-doubt reservation gets a verdict
  // now — none survives recovery. Deterministic: reservations resolve in
  // txn order against durable decision records (or a live coordinator's
  // index, which mirrors them).
  for (const auto& [txn, reservation] : in_doubt) {
    InteractionRecord decision;
    auto found =
        LookupDecision(reservation.coordinator_shard, txn, &decision);
    if (!found.ok()) return found.status();
    InteractionRecord slice;
    if (*found) {
      slice = SliceForReplay(shard, decision,
                             service->rounds_served() + 1,
                             reservation.epoch, acquired, nullptr);
    }
    if (*found && !slice.arrangement.empty()) {
      // Commit. The recovered state cannot already hold this portion:
      // state is rebuilt from the WAL alone, and an applied portion
      // that made it to the WAL would have closed the reservation.
      if (Status st = service->RestoreInteraction(slice, /*learn=*/true);
          !st.ok()) {
        return st;
      }
      AppendObservations(slice, &obs);
      ++report.resolved_committed;
      resolved_committed_metric_->Increment();
    } else {
      ++report.resolved_aborted;
      resolved_aborted_metric_->Increment();
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.resolved_committed += report.resolved_committed;
    stats_.resolved_aborted += report.resolved_aborted;
  }
  report.rounds_served = service->rounds_served();

  // Install the rebuilt shard. The observation buffer holds exactly the
  // restored rows; peer cursors clamp to its (possibly shorter) length —
  // merged learner state is soft, the next merge re-syncs.
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    s.decision_durable.clear();
    for (const auto& [txn, record] : decisions) {
      s.decision_durable[txn] = true;  // It came back from the WAL.
    }
    s.decisions = std::move(decisions);
    s.open_reservations.clear();
    s.stage_rounds.clear();
  }
  const std::size_t obs_size = obs.size();
  {
    std::lock_guard<std::mutex> lock(s.obs_mu);
    s.obs = std::move(obs);
  }
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    for (int j = 0; j < options_.num_shards; ++j) {
      cursors_[static_cast<std::size_t>(shard)][static_cast<std::size_t>(
          j)] = 0;  // The fresh learner has absorbed no peer state.
      cursors_[static_cast<std::size_t>(j)][static_cast<std::size_t>(
          shard)] =
          std::min(cursors_[static_cast<std::size_t>(j)]
                           [static_cast<std::size_t>(shard)],
                   obs_size);
    }
  }
  s.service = std::move(service);
  recoveries_metric_->Increment();
  RegisterShardServer(shard);

  if (Status st = ResolveInterrupted(shard, &report); !st.ok()) return st;
  open_reservations_gauge_->Set(static_cast<double>(OpenReservations()));
  return report;
}

Status ShardedArrangementService::ResolveInterrupted(
    int shard, ShardRecoveryReport* report) {
  std::vector<std::pair<std::uint64_t, PendingTxn>> mine;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = interrupted_.begin(); it != interrupted_.end();) {
      if (it->second.home == shard) {
        mine.emplace_back(it->first, std::move(it->second));
        it = interrupted_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [txn, pending] : mine) {
    // The recovered index holds exactly the durable decisions.
    auto decision = HandleQuery(shard, txn, pending.trace_id, QueryRequest{});
    if (!decision.ok()) return decision.status();
    const bool committed = decision->outcome == kCommitted;
    for (const Portion& portion : pending.portions) {
      // Only a still-open stage of THIS txn is ours to finish: our own
      // slice replayed above, and a participant that died since
      // resolves from its own WAL at its recovery.
      if (!StageOpen(portion.shard, txn)) continue;
      if (committed) {
        auto applied = HandlePortion(
            portion.shard, txn, pending.trace_id,
            PortionOf(pending, portion, decision->record.feedback,
                      /*write_frame=*/true));
        if (!applied.ok()) {
          return InternalError(StrFormat(
              "completing interrupted txn %llu on shard %d failed: %s",
              static_cast<unsigned long long>(txn), portion.shard,
              applied.status().message().c_str()));
        }
        ++report->interrupted_completed;
      } else {
        (void)HandleAbort(portion.shard, txn, pending.trace_id,
                          AbortRequest{});
        ++report->interrupted_aborted;
      }
    }
    if (committed) {
      // The coordinator's own obs were rebuilt from its WAL; the round
      // now counts as completed (its original caller saw kUnavailable).
      rounds_completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

// --- The protocol's channel and handlers --------------------------------

Status ShardedArrangementService::ConfigureTransport(
    SimulatedNetwork* net, const ShardTransportOptions& options) {
  FASEA_CHECK(net != nullptr);
  if (net_ != nullptr) {
    return FailedPreconditionError("a transport is already configured");
  }
  if (options.lease_ticks <= 0) {
    return InvalidArgumentError("lease_ticks must be positive");
  }
  net_ = net;
  topts_ = options;
  client_ = std::make_unique<ShardClient>(net, kGatewayNode, topts_.client);
  servers_.resize(static_cast<std::size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    if (shard_alive(s)) RegisterShardServer(s);
  }
  return Status::Ok();
}

template <typename Request>
StatusOr<typename Request::Reply> ShardedArrangementService::Call(
    int shard, std::uint64_t txn, std::uint64_t trace_id,
    const Request& request, bool* lost) {
  if (net_ == nullptr) {
    return (this->*Request::kHandler)(shard, txn, trace_id, request);
  }
  auto response = client_->Call(Request::kKind, shard, txn, trace_id,
                                request.Encode());
  if (!response.ok()) {
    if (lost != nullptr) *lost = true;
    return UnavailableError(StrFormat(
        "%s to shard %d lost in the network: %s",
        MessageKindName(Request::kKind), shard,
        response.status().message().c_str()));
  }
  if (Status st = response->ToStatus(); !st.ok()) return st;
  return Request::Reply::Decode(response->body);
}

namespace {

/// The ShardServer method for one request type: decode, handle, encode.
template <typename Request, typename Handler>
ShardServer::Method WireMethod(Handler handle) {
  return [handle](const Envelope& envelope) -> StatusOr<std::string> {
    auto request = Request::Decode(envelope.body);
    if (!request.ok()) return request.status();
    auto reply = handle(envelope, std::move(*request));
    if (!reply.ok()) return reply.status();
    return reply->Encode();
  };
}

}  // namespace

void ShardedArrangementService::RegisterShardServer(int shard) {
  if (net_ == nullptr) return;  // The loopback needs no server.
  if (static_cast<int>(servers_.size()) <= shard) {
    servers_.resize(static_cast<std::size_t>(shard) + 1);
  }
  const auto handler = [this, shard](const Envelope& envelope,
                                     auto&& request) {
    using Request = std::decay_t<decltype(request)>;
    return (this->*Request::kHandler)(shard, envelope.txn, envelope.trace_id,
                                      std::forward<decltype(request)>(request));
  };
  auto server = std::make_unique<ShardServer>(net_, shard, topts_.server);
  server->Handle(MessageKind::kServe, WireMethod<ServeRequest>(handler));
  server->Handle(MessageKind::kReserve, WireMethod<ReserveRequest>(handler));
  server->Handle(
      MessageKind::kCommit,
      [decision = WireMethod<DecisionRequest>(handler),
       portion = WireMethod<PortionRequest>(handler)](const Envelope& e) {
        const bool is_decision =
            !e.body.empty() &&
            static_cast<std::uint8_t>(e.body[0]) == kCommitDecision;
        return is_decision ? decision(e) : portion(e);
      });
  server->Handle(MessageKind::kAbort, WireMethod<AbortRequest>(handler));
  server->Handle(MessageKind::kQueryDecision,
                 WireMethod<QueryRequest>(handler));
  server->Handle(MessageKind::kMigrate, WireMethod<MigrateRequest>(handler));
  server->Handle(MessageKind::kHealth,
                 [this, shard](const Envelope&) -> StatusOr<std::string> {
                   return std::string(
                       1, static_cast<char>(ShardHealth(shard).state));
                 });
  servers_[static_cast<std::size_t>(shard)] = std::move(server);
}

std::unique_lock<std::mutex> ShardedArrangementService::LockNetwork() {
  if (net_ == nullptr) return std::unique_lock<std::mutex>();
  return std::unique_lock<std::mutex>(net_mu_);
}

std::int64_t ShardedArrangementService::LeaseExpiry() const {
  return net_ == nullptr ? 0 : net_->now() + topts_.lease_ticks;
}

bool ShardedArrangementService::StageOpen(int shard, std::uint64_t txn) const {
  if (!shard_alive(shard)) return false;
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.ledger_mu);
  return s.stage_rounds.count(txn) != 0;
}

ShardedArrangementService::PortionRequest
ShardedArrangementService::PortionOf(const PendingTxn& pending,
                                     const Portion& portion,
                                     const Feedback& feedback,
                                     bool write_frame) const {
  const auto begin = static_cast<std::ptrdiff_t>(portion.start);
  const auto end = static_cast<std::ptrdiff_t>(portion.start +
                                               portion.local_events.size());
  PortionRequest request;
  request.write_frame = write_frame;
  request.record.t = portion.local_round;
  request.record.user_id = pending.user_id;
  request.record.user_capacity = portion.local_capacity;
  request.record.arrangement = portion.local_events;
  request.record.feedback.assign(feedback.begin() + begin,
                                 feedback.begin() + end);
  request.record.contexts.assign(pending.context_rows.begin() + begin,
                                 pending.context_rows.begin() + end);
  return request;
}

StatusOr<ShardedArrangementService::ServeReply>
ShardedArrangementService::HandleServe(int shard, std::uint64_t txn,
                                       std::uint64_t trace_id,
                                       const ServeRequest& request) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return UnavailableError(StrFormat("shard %d is down", shard));
  }
  s.service->SetNextRoundTrace(txn, trace_id);
  auto local = s.service->ServeUser(request.user_id, request.user_capacity,
                                    request.contexts);
  if (!local.ok()) return local.status();
  ServeReply reply;
  reply.coordinator_round = s.service->rounds_served();
  reply.local_events = std::move(local).value();
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    s.stage_rounds[txn] = {.local_round = reply.coordinator_round,
                           .lease_expiry = request.lease_expiry,
                           .coordinator = shard};  // A home stage.
  }
  return reply;
}

StatusOr<ShardedArrangementService::ReserveReply>
ShardedArrangementService::HandleReserve(int shard, std::uint64_t txn,
                                         std::uint64_t trace_id,
                                         const ReserveRequest& request) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return UnavailableError(StrFormat("shard %d is down", shard));
  }
  std::vector<std::uint8_t> mask = SpilloverMask(shard, request.chosen);
  ReserveReply reply;
  if (std::all_of(mask.begin(), mask.end(),
                  [](std::uint8_t m) { return m == 0; })) {
    return reply;  // Empty contribution, nothing reserved.
  }
  s.service->SetNextRoundTrace(txn, trace_id);
  auto local = s.service->ServeUser(request.user_id, request.remaining,
                                    request.contexts, std::move(mask));
  if (!local.ok()) return local.status();
  if (local->empty()) {
    (void)s.service->AbortPendingRound();
    return reply;
  }

  // Phase 1: the contribution only counts once the reservation is
  // durable on the participant.
  ReservationRecord reservation;
  reservation.txn = txn;
  reservation.trace_id = trace_id;
  reservation.coordinator_shard = request.coordinator_shard;
  reservation.coordinator_round = request.coordinator_round;
  reservation.user_id = request.user_id;
  reservation.lease_expiry = request.lease_expiry;
  reservation.epoch = rebalance_epoch_;
  reservation.events = MapToGlobal(shard, *local);
  if (Status st = AppendFrameStrict(s, EncodeReserveFrame(reservation));
      !st.ok()) {
    (void)s.service->AbortPendingRound();
    reservation_refusals_metric_->Increment();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.reservation_refusals;
    return st;
  }
  reply.local_round = s.service->rounds_served();
  reply.global_events = reservation.events;
  reservations_metric_->Add(
      static_cast<std::int64_t>(reservation.events.size()));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.reservations_made +=
        static_cast<std::int64_t>(reservation.events.size());
  }
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    s.stage_rounds[txn] = {.local_round = reply.local_round,
                           .lease_expiry = reservation.lease_expiry,
                           .coordinator = reservation.coordinator_shard};
    s.open_reservations[txn] = std::move(reservation);
  }
  return reply;
}

StatusOr<ShardedArrangementService::DecisionReply>
ShardedArrangementService::HandleDecision(int shard, std::uint64_t txn,
                                          std::uint64_t trace_id,
                                          DecisionRequest request) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return UnavailableError(StrFormat("shard %d is down", shard));
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (aborted_txns_.count(txn) != 0) {
      return FailedPreconditionError(StrFormat(
          "transaction %llu was force-aborted on lease expiry",
          static_cast<unsigned long long>(txn)));
    }
  }
  DecisionReply reply;
  {
    // Txn-level idempotence: a resubmitted commit of a decided txn
    // answers from the index without a second frame.
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    if (s.decisions.count(txn) != 0) {
      reply.durable = s.decision_durable[txn];
      return reply;
    }
  }
  auto outcome = AppendFrame(
      s, EncodeDecisionFrame(txn, trace_id, rebalance_epoch_,
                             request.record));
  if (!outcome.ok()) return outcome.status();
  reply.durable = (*outcome == AppendOutcome::kDurable);
  // From here the transaction is committed: the index lets resolvers
  // (live peers or recovering shards) find it even if the coordinator
  // dies before any portion applies.
  std::lock_guard<std::mutex> lock(s.ledger_mu);
  s.decisions[txn] = std::move(request.record);
  s.decision_durable[txn] = reply.durable;
  return reply;
}

StatusOr<ShardedArrangementService::Ack>
ShardedArrangementService::HandlePortion(int shard, std::uint64_t txn,
                                         std::uint64_t trace_id,
                                         const PortionRequest& request) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return UnavailableError(StrFormat("shard %d is down", shard));
  }
  StageEntry entry;
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    auto it = s.stage_rounds.find(txn);
    // No open stage: the portion already applied (an earlier delivery
    // beat this retry) or the shard recovered past it. Idempotent no-op.
    if (it == s.stage_rounds.end()) return Ack{};
    entry = it->second;
  }
  if (s.service->rounds_served() != entry.local_round ||
      !s.service->AwaitingFeedback()) {
    return InternalError(StrFormat(
        "shard %d stage of txn %llu does not match its pending round",
        shard, static_cast<unsigned long long>(txn)));
  }
  if (request.write_frame) {
    // Best-effort: a lost portion frame re-resolves (to the same
    // commit) at recovery.
    (void)AppendFrame(s, EncodePortionFrame(txn, trace_id, rebalance_epoch_,
                                            request.record));
  }
  // Inner services run WAL-less, so feedback can only fail on a protocol
  // bug (wrong pending round) — never retryably.
  if (Status st = s.service->SubmitFeedback(request.record.feedback);
      !st.ok()) {
    return InternalError(StrFormat(
        "shard %d portion of txn %llu failed: %s", shard,
        static_cast<unsigned long long>(txn), st.message().c_str()));
  }
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    s.stage_rounds.erase(txn);
    s.open_reservations.erase(txn);
  }
  {
    std::lock_guard<std::mutex> lock(s.obs_mu);
    AppendObservations(request.record, &s.obs);
  }
  return Ack{};
}

StatusOr<ShardedArrangementService::Ack>
ShardedArrangementService::HandleAbort(int shard, std::uint64_t txn,
                                       std::uint64_t /*trace_id*/,
                                       const AbortRequest& /*request*/) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return UnavailableError(StrFormat("shard %d is down", shard));
  }
  std::optional<StageEntry> stage;
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    auto it = s.stage_rounds.find(txn);
    if (it != s.stage_rounds.end()) stage = it->second;
  }
  // Roll back the inner round only while it is still this stage's (its
  // durable reservation, if any, resolves to presumed abort).
  if (stage.has_value() && s.service->rounds_served() == stage->local_round &&
      s.service->AwaitingFeedback()) {
    (void)s.service->AbortPendingRound();
  }
  std::lock_guard<std::mutex> lock(s.ledger_mu);
  s.stage_rounds.erase(txn);
  s.open_reservations.erase(txn);
  return Ack{};
}

StatusOr<ShardedArrangementService::QueryReply>
ShardedArrangementService::HandleQuery(int shard, std::uint64_t txn,
                                       std::uint64_t /*trace_id*/,
                                       const QueryRequest& request) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  QueryReply reply;
  {
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    auto it = s.decisions.find(txn);
    if (it != s.decisions.end()) {
      reply.outcome = kCommitted;
      reply.record = it->second;
      return reply;
    }
  }
  if (!request.force) return reply;  // Undecided: presumed abort.
  // Forced resolution (lease expiry): an undecided transaction that is
  // not mid-commit right now is aborted for good — a late COMMIT will
  // be refused.
  std::lock_guard<std::mutex> lock(pending_mu_);
  auto it = pending_.find(txn);
  if (it != pending_.end() && it->second.busy) {
    reply.outcome = kMidCommit;
    return reply;
  }
  if (it != pending_.end()) pending_.erase(it);
  aborted_txns_.insert(txn);
  return reply;
}

StatusOr<ShardedArrangementService::Ack>
ShardedArrangementService::HandleMigrate(int shard, std::uint64_t /*txn*/,
                                         std::uint64_t /*trace_id*/,
                                         const MigrateRequest& request) {
  Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    return UnavailableError(StrFormat("shard %d is down", shard));
  }
  // The WAL-segment handoff lands strictly (durable or refused) —
  // migrations never run degraded.
  if (Status st = AppendFrameStrict(s, request.frame); !st.ok()) return st;
  return Ack{};
}

Status ShardedArrangementService::PumpTransport() {
  if (net_ == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> net_lock(net_mu_);
  net_->Pump();

  // Redeliver parked committed portions (at-least-once; the handler is
  // an idempotent no-op once the stage closed). One pass per pump:
  // still-failing deliveries go back in the queue.
  std::vector<UndeliveredPortion> parked;
  {
    std::lock_guard<std::mutex> lock(undelivered_mu_);
    parked.swap(undelivered_);
  }
  for (UndeliveredPortion& portion : parked) {
    // A crashed shard's durable reservation resolves against the
    // decision index at its recovery; the parked copy is obsolete.
    if (!shard_alive(portion.shard)) continue;
    if (Call(portion.shard, portion.txn, portion.trace_id, portion.request)
            .ok()) {
      redelivered_metric_->Increment();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.redelivered_portions;
      continue;
    }
    std::lock_guard<std::mutex> lock(undelivered_mu_);
    undelivered_.push_back(std::move(portion));
  }

  // Lease sweep: every expired stage re-queries its coordinator's
  // decision index with force — committed or mid-commit stages renew,
  // undecided ones are force-aborted (presumed abort without a crash).
  const std::int64_t now = net_->now();
  struct ExpiredStage {
    int shard = 0;
    std::uint64_t txn = 0;
    int coordinator = 0;
  };
  std::vector<ExpiredStage> expired;
  for (int sidx = 0; sidx < options_.num_shards; ++sidx) {
    Shard& s = *shards_[static_cast<std::size_t>(sidx)];
    if (s.service == nullptr) continue;
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    for (const auto& [txn, entry] : s.stage_rounds) {
      if (entry.lease_expiry > 0 && entry.lease_expiry < now) {
        expired.push_back({sidx, txn, entry.coordinator});
      }
    }
  }
  for (const ExpiredStage& e : expired) {
    leases_expired_metric_->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.leases_expired;
    }
    // Only an undecided transaction is aborted. Every other answer
    // renews the lease and asks again next sweep: a committed stage
    // waits for redelivery to close it, a mid-commit one for its commit,
    // a down coordinator for its recovery, a lost message for a retry.
    bool aborted = false;
    if (shard_alive(e.coordinator)) {
      auto reply = Call(e.coordinator, e.txn, Mix64(e.txn),
                        QueryRequest{.force = true});
      aborted = reply.ok() && reply->outcome == kNoDecision &&
                Call(e.shard, e.txn, Mix64(e.txn), AbortRequest{}).ok();
    }
    if (aborted) {
      force_aborted_metric_->Increment();
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.force_aborted;
      continue;
    }
    Shard& s = *shards_[static_cast<std::size_t>(e.shard)];
    std::lock_guard<std::mutex> lock(s.ledger_mu);
    auto it = s.stage_rounds.find(e.txn);
    if (it != s.stage_rounds.end()) {
      it->second.lease_expiry = now + topts_.lease_ticks;
    }
  }
  open_reservations_gauge_->Set(static_cast<double>(OpenReservations()));
  return Status::Ok();
}

std::int64_t ShardedArrangementService::UndeliveredPortions() const {
  std::lock_guard<std::mutex> lock(undelivered_mu_);
  return static_cast<std::int64_t>(undelivered_.size());
}

std::int64_t ShardedArrangementService::TransportRetries() const {
  return client_ == nullptr ? 0 : client_->retries();
}

std::int64_t ShardedArrangementService::TransportTimeouts() const {
  return client_ == nullptr ? 0 : client_->timeouts();
}

std::int64_t ShardedArrangementService::TransportDupSuppressed() const {
  std::int64_t total = 0;
  for (const auto& server : servers_) {
    if (server != nullptr) total += server->dup_suppressed();
  }
  return total;
}

// --- Rebalancing ---------------------------------------------------------

Status ShardedArrangementService::RestartShard(int shard) {
  if (Status st = KillShard(shard); !st.ok()) return st;
  auto report = RecoverShard(shard);
  if (!report.ok()) return report.status();
  return AttachShardWal(shard);
}

StatusOr<RebalanceReport> ShardedArrangementService::Rebalance(
    int new_num_shards) {
  const int old_num = options_.num_shards;
  if (new_num_shards < old_num) {
    return UnimplementedError(
        "shrinking the topology is not supported; rebalancing only "
        "grows");
  }
  if (new_num_shards == old_num) {
    return InvalidArgumentError(
        StrFormat("the topology already has %d shard(s)", old_num));
  }
  if (env_ == nullptr) {
    return FailedPreconditionError(
        "no WAL base directory configured (AttachWals was never called)");
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (!pending_.empty() || !interrupted_.empty()) {
      return FailedPreconditionError(
          "transactions are in flight; quiesce before rebalancing");
    }
  }
  if (OpenReservations() != 0) {
    return FailedPreconditionError(
        "reservations are open; quiesce before rebalancing");
  }
  for (int s = 0; s < old_num; ++s) {
    if (!shard_alive(s)) {
      return FailedPreconditionError(StrFormat(
          "shard %d is down; recover it before rebalancing", s));
    }
  }

  const std::uint32_t new_epoch = rebalance_epoch_ + 1;
  RebalanceReport report;
  report.old_shards = old_num;
  report.new_shards = new_num_shards;
  report.epoch = new_epoch;

  // Drain: restart every shard from its WAL, so the state we are about
  // to package equals the durable state (non-durable rounds are shed
  // exactly as a crash would shed them).
  for (int s = 0; s < old_num; ++s) {
    if (Status st = RestartShard(s); !st.ok()) return st;
  }
  const auto abort_attempt = [&](Status st) {
    while (static_cast<int>(shards_.size()) > old_num) shards_.pop_back();
    if (static_cast<int>(servers_.size()) > old_num) {
      servers_.resize(static_cast<std::size_t>(old_num));
    }
    rebalance_aborted_metric_->Increment();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rebalances_aborted;
    return st;
  };
  if (rebalance_crash_hook_ && rebalance_crash_hook_(0)) {
    return abort_attempt(
        UnavailableError("injected rebalance crash after the drain"));
  }

  // Snapshot the drained capacities — the conservation baseline the
  // chaos harness audits against.
  report.remaining_after_drain.resize(instance_->num_events());
  for (EventId g = 0; g < instance_->num_events(); ++g) {
    const int owner = router().OwnerShard(g);
    report.remaining_after_drain[g] =
        shards_[static_cast<std::size_t>(owner)]->service->state().remaining(
            router().LocalId(g));
  }

  // Compute the moves under the candidate router and package each
  // source shard's contribution per destination: consumed capacity plus
  // the source learner's observation rows for the moved events.
  auto next = std::make_unique<ShardRouter>(instance_, new_num_shards);
  std::map<std::pair<int, int>, MigrateRecord> transfers;
  for (EventId g = 0; g < instance_->num_events(); ++g) {
    const int src = router().OwnerShard(g);
    const int dst = next->OwnerShard(g);
    if (src == dst) continue;
    MigratedEvent moved;
    moved.event = g;
    moved.consumed =
        instance_->capacity(g) - report.remaining_after_drain[g];
    // The drain rebuilt each source's observation buffer from its WAL,
    // in round order: the moved event's rows are the source learner's
    // observations of it.
    const EventId local = router().LocalId(g);
    const Shard& source = *shards_[static_cast<std::size_t>(src)];
    {
      std::lock_guard<std::mutex> lock(source.obs_mu);
      for (const Observation& row : source.obs) {
        if (row.event != local) continue;
        moved.observations.push_back(
            MigratedObservation{row.context, row.reward});
      }
    }
    MigrateRecord& record = transfers[{src, dst}];
    record.src_shard = src;
    record.events.push_back(std::move(moved));
    report.moved_events.push_back(g);
  }
  report.events_moved =
      static_cast<std::int64_t>(report.moved_events.size());

  // Create the new shards: inner services over the candidate router's
  // sub-instances (they serve nothing until the flip) with fresh WALs,
  // so MIGRATE frames have somewhere durable to land.
  for (int s = old_num; s < new_num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->service = std::make_unique<ArrangementService>(
        &next->SubInstance(s), options_.kind, options_.params,
        DeriveSeed(options_.seed, "shard-policy",
                   static_cast<std::uint64_t>(s)));
    auto wal = WalWriter::Open(env_, ShardWalDirName(wal_base_dir_, s),
                               wal_options_);
    if (!wal.ok()) return abort_attempt(wal.status());
    shard->wal = std::move(wal).value();
    shard->breaker =
        durability_.breaker_enabled
            ? std::make_unique<CircuitBreaker>(durability_.breaker)
            : nullptr;
    shards_.push_back(std::move(shard));
    // Put the new shard on the network (if any) before the WAL-segment
    // handoff below addresses it.
    RegisterShardServer(s);
  }

  // Transfer: one MIGRATE step per (source, destination) pair, which
  // appends the frame strictly to the destination's WAL. A crash here
  // leaves only frames of an epoch that never flips; the retry
  // supersedes them (last writer per event wins).
  for (const auto& [key, migrate] : transfers) {
    const int dst = key.second;
    if (rebalance_crash_hook_ && rebalance_crash_hook_(1)) {
      return abort_attempt(
          UnavailableError("injected rebalance crash mid-transfer"));
    }
    MigrateRequest request;
    request.frame = EncodeMigrateFrame(
        Mix64((static_cast<std::uint64_t>(new_epoch) << 32) |
              static_cast<std::uint32_t>(dst)),
        new_epoch, migrate);
    if (auto reply = Call(dst, 0, Mix64(new_epoch), request); !reply.ok()) {
      return abort_attempt(reply.status());
    }
  }
  if (rebalance_crash_hook_ && rebalance_crash_hook_(2)) {
    return abort_attempt(UnavailableError(
        "injected rebalance crash after the transfer, before the flip"));
  }

  // Flip: install the new generation. From here on frames carry the new
  // epoch and arrivals route across the grown topology.
  routers_.push_back(std::move(next));
  rebalance_epoch_ = new_epoch;
  options_.num_shards = new_num_shards;
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    cursors_.resize(static_cast<std::size_t>(new_num_shards));
    for (auto& row : cursors_) {
      row.resize(static_cast<std::size_t>(new_num_shards), 0);
    }
  }
  // Rebuild: every shard restarts under the new epoch — the moment the
  // MIGRATE frames take effect. Identical to crash recovery, so the
  // flipped topology is exactly what a post-flip crash would rebuild.
  for (int s = 0; s < new_num_shards; ++s) {
    if (Status st = RestartShard(s); !st.ok()) return st;
  }

  rebalance_migrations_metric_->Increment();
  rebalance_events_moved_metric_->Add(report.events_moved);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rebalances;
    stats_.events_moved += report.events_moved;
  }
  return report;
}

// --- Delta-merge ---------------------------------------------------------

Status ShardedArrangementService::MergeLearners() {
  std::lock_guard<std::mutex> lock(merge_mu_);
  Status result = Status::Ok();
  for (int i = 0; i < options_.num_shards; ++i) {
    Shard& dst = *shards_[static_cast<std::size_t>(i)];
    if (dst.service == nullptr) continue;
    std::vector<PeerObservation> delta;
    std::vector<std::pair<int, std::size_t>> advanced;
    for (int j = 0; j < options_.num_shards; ++j) {
      if (j == i) continue;
      Shard& src = *shards_[static_cast<std::size_t>(j)];
      if (src.service == nullptr) continue;
      std::lock_guard<std::mutex> obs_lock(src.obs_mu);
      const std::size_t cursor =
          cursors_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      for (std::size_t k = cursor; k < src.obs.size(); ++k) {
        PeerObservation obs;
        obs.context = src.obs[k].context;
        obs.reward = src.obs[k].reward;
        delta.push_back(std::move(obs));
      }
      advanced.emplace_back(j, src.obs.size());
    }
    if (delta.empty()) continue;
    Status st = dst.service->AbsorbPeerObservations(delta);
    // Advance the cursors even on failure: the observations are already
    // folded into Y, and re-folding them would double-count.
    for (const auto& [j, end] : advanced) {
      cursors_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          end;
    }
    if (!st.ok()) {
      result = st;
      continue;
    }
    merges_metric_->Increment();
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.merges;
  }
  return result;
}

void ShardedArrangementService::MaybeAutoMerge() {
  if (options_.merge_every <= 0) return;
  if (rounds_completed_.load(std::memory_order_relaxed) %
          options_.merge_every ==
      0) {
    (void)MergeLearners();
  }
}

// --- Introspection -------------------------------------------------------

const ArrangementService* ShardedArrangementService::shard_service(
    int shard) const {
  if (shard < 0 || shard >= options_.num_shards) return nullptr;
  return shards_[static_cast<std::size_t>(shard)]->service.get();
}

const CircuitBreaker* ShardedArrangementService::shard_breaker(
    int shard) const {
  if (shard < 0 || shard >= options_.num_shards) return nullptr;
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.wal_mu);
  return s.breaker.get();
}

bool ShardedArrangementService::shard_alive(int shard) const {
  if (shard < 0 || shard >= options_.num_shards) return false;
  return shards_[static_cast<std::size_t>(shard)]->service != nullptr;
}

std::map<std::uint64_t, InteractionRecord>
ShardedArrangementService::Decisions(int shard) const {
  if (shard < 0 || shard >= options_.num_shards) return {};
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.ledger_mu);
  return s.decisions;
}

std::int64_t ShardedArrangementService::OpenReservations() const {
  std::int64_t open = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->ledger_mu);
    open += static_cast<std::int64_t>(shard->open_reservations.size());
  }
  return open;
}

ShardedStats ShardedArrangementService::Stats() const {
  ShardedStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats = stats_;
  }
  stats.rounds_completed =
      rounds_completed_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->wal_mu);
    stats.nondurable_rounds += shard->nondurable_rounds;
  }
  return stats;
}

HealthSnapshot ShardedArrangementService::ShardHealth(int shard) const {
  HealthSnapshot snapshot;
  if (shard < 0 || shard >= options_.num_shards) {
    snapshot.state = HealthState::kLameDuck;
    return snapshot;
  }
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  if (s.service == nullptr) {
    snapshot.state = HealthState::kLameDuck;  // Down until recovered.
    return snapshot;
  }
  snapshot = s.service->Health();
  std::lock_guard<std::mutex> lock(s.wal_mu);
  snapshot.wal_attached = s.wal != nullptr;
  snapshot.wal_degraded = s.degraded;
  snapshot.breaker_enabled = s.breaker != nullptr;
  if (s.breaker != nullptr) snapshot.breaker = s.breaker->state();
  snapshot.nondurable_rounds = s.nondurable_rounds;
  snapshot.wal_reopens = s.wal_reopens;
  if (snapshot.state == HealthState::kHealthy &&
      (s.degraded ||
       (s.breaker != nullptr &&
        s.breaker->state() != CircuitBreaker::State::kClosed))) {
    snapshot.state = HealthState::kDegraded;
  }
  return snapshot;
}

HealthState ShardedArrangementService::AggregateHealth() const {
  HealthState worst = HealthState::kHealthy;
  for (int s = 0; s < options_.num_shards; ++s) {
    const HealthState state = ShardHealth(s).state;
    if (static_cast<int>(state) > static_cast<int>(worst)) worst = state;
  }
  return worst;
}

}  // namespace fasea
