#include "ebsn/shard_wal.h"

#include <utility>

#include "common/bytes.h"
#include "common/strings.h"

namespace fasea {
namespace {

void AppendHeader(std::string* out, ShardFrameKind kind, std::uint64_t txn,
                  std::uint64_t trace_id, std::uint32_t epoch) {
  AppendU8(out, static_cast<std::uint8_t>(kind));
  AppendU64(out, txn);
  AppendU64(out, trace_id);
  AppendU32(out, epoch);
}

// Bytes of one migrated event before its observations: event id (u32),
// consumed (i64), observation count (u32) and dim (u32).
constexpr std::size_t kMigratedEventHeaderBytes = 4 + 8 + 4 + 4;

// A declared element count that the bytes left cannot hold. Checked
// before anything is reserved for it: the count comes from disk or the
// wire (a MIGRATE body is written to the WAL as it arrives).
Status CountTooLarge(const char* what, std::uint32_t count,
                     const ByteReader& reader) {
  return DataLossError(StrFormat(
      "shard frame: %u %s(s) declared but only %zu byte(s) left", count,
      what, reader.remaining()));
}

}  // namespace

std::string EncodeDecisionFrame(std::uint64_t txn, std::uint64_t trace_id,
                                std::uint32_t epoch,
                                const InteractionRecord& record) {
  std::string out;
  AppendHeader(&out, ShardFrameKind::kDecision, txn, trace_id, epoch);
  out += EncodeInteractionRecord(record);
  return out;
}

std::string EncodeReserveFrame(const ReservationRecord& reservation) {
  std::string out;
  AppendHeader(&out, ShardFrameKind::kReserve, reservation.txn,
               reservation.trace_id, reservation.epoch);
  AppendU32(&out, static_cast<std::uint32_t>(reservation.coordinator_shard));
  AppendI64(&out, reservation.coordinator_round);
  AppendI64(&out, reservation.user_id);
  AppendI64(&out, reservation.lease_expiry);
  AppendU32(&out, static_cast<std::uint32_t>(reservation.events.size()));
  for (EventId v : reservation.events) AppendU32(&out, v);
  return out;
}

std::string EncodePortionFrame(std::uint64_t txn, std::uint64_t trace_id,
                               std::uint32_t epoch,
                               const InteractionRecord& record) {
  std::string out;
  AppendHeader(&out, ShardFrameKind::kPortion, txn, trace_id, epoch);
  out += EncodeInteractionRecord(record);
  return out;
}

std::string EncodeMigrateFrame(std::uint64_t trace_id, std::uint32_t epoch,
                               const MigrateRecord& migrate) {
  std::string out;
  AppendHeader(&out, ShardFrameKind::kMigrate, /*txn=*/0, trace_id, epoch);
  AppendU32(&out, static_cast<std::uint32_t>(migrate.src_shard));
  AppendU32(&out, static_cast<std::uint32_t>(migrate.events.size()));
  for (const MigratedEvent& moved : migrate.events) {
    AppendU32(&out, moved.event);
    AppendI64(&out, moved.consumed);
    AppendU32(&out, static_cast<std::uint32_t>(moved.observations.size()));
    const std::uint32_t dim =
        moved.observations.empty()
            ? 0
            : static_cast<std::uint32_t>(moved.observations[0].context.size());
    AppendU32(&out, dim);
    for (const MigratedObservation& obs : moved.observations) {
      for (std::uint32_t j = 0; j < dim; ++j) {
        AppendDouble(&out, j < obs.context.size() ? obs.context[j] : 0.0);
      }
      AppendDouble(&out, obs.reward);
    }
  }
  return out;
}

StatusOr<ShardFrame> DecodeShardFrame(std::string_view payload) {
  ByteReader reader(payload, "shard frame: truncated payload");
  auto kind = reader.ReadU8();
  if (!kind.ok()) return kind.status();
  auto txn = reader.ReadU64();
  if (!txn.ok()) return txn.status();
  auto trace_id = reader.ReadU64();
  if (!trace_id.ok()) return trace_id.status();
  auto epoch = reader.ReadU32();
  if (!epoch.ok()) return epoch.status();

  ShardFrame frame;
  frame.txn = *txn;
  frame.trace_id = *trace_id;
  frame.epoch = *epoch;
  switch (*kind) {
    case static_cast<std::uint8_t>(ShardFrameKind::kDecision):
    case static_cast<std::uint8_t>(ShardFrameKind::kPortion): {
      frame.kind = static_cast<ShardFrameKind>(*kind);
      auto record =
          DecodeInteractionRecord(payload.substr(reader.position()));
      if (!record.ok()) return record.status();
      frame.record = std::move(record).value();
      return frame;
    }
    case static_cast<std::uint8_t>(ShardFrameKind::kReserve): {
      frame.kind = ShardFrameKind::kReserve;
      auto shard = reader.ReadU32();
      if (!shard.ok()) return shard.status();
      auto round = reader.ReadI64();
      if (!round.ok()) return round.status();
      auto user = reader.ReadI64();
      if (!user.ok()) return user.status();
      auto lease = reader.ReadI64();
      if (!lease.ok()) return lease.status();
      auto n = reader.ReadU32();
      if (!n.ok()) return n.status();
      if (*n > reader.remaining() / 4) {
        return CountTooLarge("event", *n, reader);
      }
      frame.reservation.txn = *txn;
      frame.reservation.trace_id = *trace_id;
      frame.reservation.epoch = *epoch;
      frame.reservation.coordinator_shard = static_cast<int>(*shard);
      frame.reservation.coordinator_round = *round;
      frame.reservation.user_id = *user;
      frame.reservation.lease_expiry = *lease;
      frame.reservation.events.reserve(*n);
      for (std::uint32_t i = 0; i < *n; ++i) {
        auto v = reader.ReadU32();
        if (!v.ok()) return v.status();
        frame.reservation.events.push_back(*v);
      }
      if (!reader.AtEnd()) {
        return DataLossError("shard frame: trailing bytes after "
                             "reservation body");
      }
      return frame;
    }
    case static_cast<std::uint8_t>(ShardFrameKind::kMigrate): {
      frame.kind = ShardFrameKind::kMigrate;
      auto src = reader.ReadU32();
      if (!src.ok()) return src.status();
      auto n_events = reader.ReadU32();
      if (!n_events.ok()) return n_events.status();
      frame.migrate.src_shard = static_cast<int>(*src);
      if (*n_events > reader.remaining() / kMigratedEventHeaderBytes) {
        return CountTooLarge("migrated event", *n_events, reader);
      }
      frame.migrate.events.reserve(*n_events);
      for (std::uint32_t i = 0; i < *n_events; ++i) {
        MigratedEvent moved;
        auto event = reader.ReadU32();
        if (!event.ok()) return event.status();
        auto consumed = reader.ReadI64();
        if (!consumed.ok()) return consumed.status();
        auto n_obs = reader.ReadU32();
        if (!n_obs.ok()) return n_obs.status();
        auto dim = reader.ReadU32();
        if (!dim.ok()) return dim.status();
        // Each observation is dim context doubles plus the reward.
        if (*n_obs > reader.remaining() / (8 * (std::uint64_t{*dim} + 1))) {
          return CountTooLarge("observation", *n_obs, reader);
        }
        moved.event = *event;
        moved.consumed = *consumed;
        moved.observations.reserve(*n_obs);
        for (std::uint32_t o = 0; o < *n_obs; ++o) {
          MigratedObservation obs;
          obs.context.resize(*dim);
          if (Status st = reader.ReadDoubles(obs.context); !st.ok()) {
            return st;
          }
          auto reward = reader.ReadDouble();
          if (!reward.ok()) return reward.status();
          obs.reward = *reward;
          moved.observations.push_back(std::move(obs));
        }
        frame.migrate.events.push_back(std::move(moved));
      }
      if (!reader.AtEnd()) {
        return DataLossError("shard frame: trailing bytes after "
                             "migrate body");
      }
      return frame;
    }
    default:
      return DataLossError(StrFormat(
          "shard frame: unknown kind 0x%02x", *kind));
  }
}

}  // namespace fasea
