#include "ebsn/interaction_log.h"

#include "common/bytes.h"
#include "common/strings.h"

namespace fasea {

Status ValidateInteractionRecord(const InteractionRecord& record,
                                 std::size_t num_events, std::size_t dim) {
  if (record.feedback.size() != record.arrangement.size() ||
      record.contexts.size() != record.arrangement.size()) {
    return InvalidArgumentError(
        "arrangement, feedback, and contexts must align");
  }
  if (static_cast<std::int64_t>(record.arrangement.size()) >
      record.user_capacity) {
    return InvalidArgumentError("arrangement exceeds user capacity");
  }
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    if (record.arrangement[i] >= num_events) {
      return InvalidArgumentError(
          StrFormat("event id %u out of range", record.arrangement[i]));
    }
    if (record.contexts[i].size() != dim) {
      return InvalidArgumentError("context row has wrong dimension");
    }
    if (record.feedback[i] > 1) {
      return InvalidArgumentError("feedback must be 0 or 1");
    }
  }
  return Status::Ok();
}

void FeedInteractionRecord(const InteractionRecord& record,
                           std::size_t num_events, std::size_t dim,
                           Policy* policy, RoundContext* scratch) {
  FASEA_CHECK(scratch->contexts.rows() == num_events &&
              scratch->contexts.cols() == dim);
  scratch->contexts.Fill(0.0);
  for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
    auto row = scratch->contexts.Row(record.arrangement[i]);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = record.contexts[i][j];
    }
  }
  scratch->user_capacity = record.user_capacity;
  scratch->user_id = record.user_id;
  policy->Learn(record.t, *scratch, record.arrangement, record.feedback);
}

namespace {
// Guards against absurd element counts in a structurally valid payload so
// decoding cannot be tricked into huge allocations.
constexpr std::uint32_t kMaxArrangementSize = 1u << 24;
constexpr std::uint32_t kMaxContextDim = 1u << 20;
}  // namespace

std::string EncodeInteractionRecord(const InteractionRecord& record) {
  const std::size_t n = record.arrangement.size();
  const std::size_t dim = n == 0 ? 0 : record.contexts[0].size();
  std::string out;
  out.reserve(32 + n * (5 + 8 * dim));
  AppendI64(&out, record.t);
  AppendI64(&out, record.user_id);
  AppendI64(&out, record.user_capacity);
  AppendU32(&out, static_cast<std::uint32_t>(n));
  AppendU32(&out, static_cast<std::uint32_t>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    AppendU32(&out, record.arrangement[i]);
    AppendU8(&out, record.feedback[i]);
    AppendDoubles(&out, record.contexts[i]);
  }
  return out;
}

StatusOr<InteractionRecord> DecodeInteractionRecord(
    std::string_view payload) {
  ByteReader reader(payload, "interaction record: truncated payload");
  const auto fail = [](std::string_view what) {
    return DataLossError(StrFormat("interaction record: %s",
                                   std::string(what).c_str()));
  };
  InteractionRecord record;
  auto t = reader.ReadI64();
  if (!t.ok()) return fail(t.status().message());
  record.t = *t;
  auto user_id = reader.ReadI64();
  if (!user_id.ok()) return fail(user_id.status().message());
  record.user_id = *user_id;
  auto user_capacity = reader.ReadI64();
  if (!user_capacity.ok()) return fail(user_capacity.status().message());
  record.user_capacity = *user_capacity;
  auto n = reader.ReadU32();
  if (!n.ok()) return fail(n.status().message());
  auto dim = reader.ReadU32();
  if (!dim.ok()) return fail(dim.status().message());
  if (*n > kMaxArrangementSize || *dim > kMaxContextDim) {
    return fail("implausible arrangement size or dimension");
  }
  // The remaining bytes must be exactly n fixed-size per-event entries.
  if (reader.remaining() !=
      static_cast<std::size_t>(*n) * (5 + 8 * static_cast<std::size_t>(*dim))) {
    return fail("payload size does not match the declared shape");
  }
  record.arrangement.reserve(*n);
  record.feedback.reserve(*n);
  record.contexts.reserve(*n);
  for (std::uint32_t i = 0; i < *n; ++i) {
    auto event = reader.ReadU32();
    if (!event.ok()) return fail(event.status().message());
    record.arrangement.push_back(*event);
    auto fb = reader.ReadU8();
    if (!fb.ok()) return fail(fb.status().message());
    record.feedback.push_back(*fb);
    std::vector<double> row(*dim);
    if (Status st = reader.ReadDoubles(row); !st.ok()) {
      return fail(st.message());
    }
    record.contexts.push_back(std::move(row));
  }
  FASEA_CHECK(reader.AtEnd());
  return record;
}

}  // namespace fasea
