#include "net/envelope.h"

#include <utility>

#include "common/bytes.h"
#include "common/strings.h"

namespace fasea {
namespace {

// Leading byte of every encoded envelope; catches frames from other
// subsystems (WAL bytes, checkpoint bytes) handed to DecodeEnvelope.
constexpr std::uint8_t kEnvelopeMagic = 0xE7;

constexpr std::uint8_t kFlagResponse = 0x01;

// Magic, request id, kind, flags, src, dst, txn, trace id, status code
// and body size: the encoded size before the body.
constexpr std::size_t kHeaderBytes = 1 + 8 + 1 + 1 + 4 + 4 + 8 + 8 + 1 + 4;

bool ValidKind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(MessageKind::kServe) &&
         kind <= static_cast<std::uint8_t>(MessageKind::kMigrate);
}

bool ValidStatusCode(std::uint8_t code) {
  return code <= static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded);
}

}  // namespace

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kServe:
      return "serve";
    case MessageKind::kReserve:
      return "reserve";
    case MessageKind::kCommit:
      return "commit";
    case MessageKind::kAbort:
      return "abort";
    case MessageKind::kQueryDecision:
      return "query-decision";
    case MessageKind::kHealth:
      return "health";
    case MessageKind::kMigrate:
      return "migrate";
  }
  return "unknown";
}

Status Envelope::ToStatus() const {
  if (status_code == StatusCode::kOk) return Status::Ok();
  return Status(status_code,
                body.empty() ? StrFormat("%s failed", MessageKindName(kind))
                             : body);
}

Envelope MakeResponse(const Envelope& request, const Status& status,
                      std::string body) {
  Envelope response;
  response.request_id = request.request_id;
  response.kind = request.kind;
  response.response = true;
  response.src = request.dst;
  response.dst = request.src;
  response.txn = request.txn;
  response.trace_id = request.trace_id;
  response.status_code = status.code();
  response.body = status.ok() ? std::move(body) : std::string(status.message());
  return response;
}

std::string EncodeEnvelope(const Envelope& envelope) {
  std::string out;
  out.reserve(kHeaderBytes + envelope.body.size());
  AppendU8(&out, kEnvelopeMagic);
  AppendU64(&out, envelope.request_id);
  AppendU8(&out, static_cast<std::uint8_t>(envelope.kind));
  AppendU8(&out, envelope.response ? kFlagResponse : 0);
  AppendU32(&out, static_cast<std::uint32_t>(envelope.src));
  AppendU32(&out, static_cast<std::uint32_t>(envelope.dst));
  AppendU64(&out, envelope.txn);
  AppendU64(&out, envelope.trace_id);
  AppendU8(&out, static_cast<std::uint8_t>(envelope.status_code));
  AppendU32(&out, static_cast<std::uint32_t>(envelope.body.size()));
  out.append(envelope.body);
  return out;
}

StatusOr<Envelope> DecodeEnvelope(std::string bytes) {
  ByteReader reader(bytes, "truncated envelope");
  auto magic = reader.ReadU8();
  if (!magic.ok()) return magic.status();
  if (*magic != kEnvelopeMagic) {
    return InvalidArgumentError(
        StrFormat("not an envelope (magic 0x%02x)", *magic));
  }

  Envelope envelope;
  auto request_id = reader.ReadU64();
  if (!request_id.ok()) return request_id.status();
  envelope.request_id = *request_id;
  auto kind = reader.ReadU8();
  if (!kind.ok()) return kind.status();
  if (!ValidKind(*kind)) {
    return InvalidArgumentError(
        StrFormat("unknown message kind %u", static_cast<unsigned>(*kind)));
  }
  envelope.kind = static_cast<MessageKind>(*kind);
  auto flags = reader.ReadU8();
  if (!flags.ok()) return flags.status();
  envelope.response = (*flags & kFlagResponse) != 0;
  auto src = reader.ReadU32();
  if (!src.ok()) return src.status();
  auto dst = reader.ReadU32();
  if (!dst.ok()) return dst.status();
  envelope.src = static_cast<std::int32_t>(*src);
  envelope.dst = static_cast<std::int32_t>(*dst);
  auto txn = reader.ReadU64();
  if (!txn.ok()) return txn.status();
  envelope.txn = *txn;
  auto trace_id = reader.ReadU64();
  if (!trace_id.ok()) return trace_id.status();
  envelope.trace_id = *trace_id;
  auto status_code = reader.ReadU8();
  if (!status_code.ok()) return status_code.status();
  if (!ValidStatusCode(*status_code)) {
    return InvalidArgumentError(StrFormat(
        "unknown status code %u", static_cast<unsigned>(*status_code)));
  }
  envelope.status_code = static_cast<StatusCode>(*status_code);
  auto body_size = reader.ReadU32();
  if (!body_size.ok()) return body_size.status();
  if (reader.remaining() != *body_size) {
    return InvalidArgumentError(StrFormat(
        "envelope body size %u does not match %zu remaining bytes",
        *body_size, reader.remaining()));
  }
  // The body is the rest of the buffer: drop the header in place
  // instead of copying the body out.
  bytes.erase(0, reader.position());
  envelope.body = std::move(bytes);
  return envelope;
}

}  // namespace fasea
