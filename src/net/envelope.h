// Typed request/response envelopes for the shard transport.
//
// Every message between the arrangement gateway and a shard node travels
// as one Envelope: a fixed header (64-bit request id, message kind,
// request/response flag, source and destination node, transaction id,
// trace id, status code) plus a kind-specific opaque body. Envelopes are
// encoded to bytes before they enter the SimulatedNetwork and decoded on
// delivery, so the wire format is exercised on every hop — a message that
// cannot round-trip through EncodeEnvelope/DecodeEnvelope cannot be sent.
//
// The request id is the unit of idempotency: a client retries a timed-out
// call with the SAME request id, and the server's replay cache answers
// retries of an already-executed request from memory instead of
// re-executing it (see net/server.h). Ids are assigned once per logical
// call, never per attempt.

#ifndef FASEA_NET_ENVELOPE_H_
#define FASEA_NET_ENVELOPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace fasea {

/// Message kinds of the two-phase arrangement protocol plus the
/// operational verbs (health probe, migration transfer).
enum class MessageKind : std::uint8_t {
  /// Gateway -> home shard: open a coordinator round (propose the home
  /// partition's portion of an arrangement).
  kServe = 1,
  /// Gateway -> participant shard: propose a spillover portion AND
  /// durably reserve it under a lease in one message (phase 1).
  kReserve = 2,
  /// Gateway -> shard: phase 2. To the home shard first as a decision
  /// append (the commit point), then to every shard as a portion apply.
  kCommit = 3,
  /// Gateway -> shard: release a reservation / abort a pending stage.
  kAbort = 4,
  /// Any node -> coordinator: in-doubt re-query against the decision
  /// index ("did txn T commit?"), optionally force-aborting an
  /// undecided transaction whose lease expired (presumed abort).
  kQueryDecision = 5,
  /// Liveness probe; response carries the shard's health state.
  kHealth = 6,
  /// Rebalance transfer: durably hand a set of events (consumed
  /// capacity + learner delta) to their new owner shard.
  kMigrate = 7,
};

/// Stable lowercase name ("serve", "reserve", ...) for logs and tests.
const char* MessageKindName(MessageKind kind);

/// One message. `body` is a kind-specific payload; for error responses it
/// carries the human-readable status message instead.
struct Envelope {
  std::uint64_t request_id = 0;
  MessageKind kind = MessageKind::kHealth;
  bool response = false;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::uint64_t txn = 0;
  std::uint64_t trace_id = 0;
  StatusCode status_code = StatusCode::kOk;  // Meaningful on responses.
  std::string body;

  /// The status a response envelope carries (OK, or the error code with
  /// the body as message).
  Status ToStatus() const;
};

/// Builds the response envelope for `request`: same request id, kind,
/// txn and trace, src/dst swapped, `response` set. An OK status puts
/// `body` on the wire; an error status puts its message in the body.
Envelope MakeResponse(const Envelope& request, const Status& status,
                      std::string body);

std::string EncodeEnvelope(const Envelope& envelope);

/// Rejects short buffers, trailing bytes, unknown kinds and status
/// codes with kInvalidArgument. Takes the buffer by value: the decoded
/// body reuses its storage, so a caller that moves the bytes in pays
/// no body copy.
StatusOr<Envelope> DecodeEnvelope(std::string bytes);

}  // namespace fasea

#endif  // FASEA_NET_ENVELOPE_H_
