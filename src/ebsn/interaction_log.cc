#include "ebsn/interaction_log.h"

#include <cstdlib>

#include "common/bytes.h"
#include "common/strings.h"

namespace fasea {

Status InteractionLog::Validate(const InteractionRecord& record) const {
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
    if (record.arrangement[i] >= num_events_) {
      return InvalidArgumentError(
          StrFormat("event id %u out of range", record.arrangement[i]));
    }
    if (record.contexts[i].size() != dim_) {
      return InvalidArgumentError("context row has wrong dimension");
    }
    if (record.feedback[i] > 1) {
      return InvalidArgumentError("feedback must be 0 or 1");
    }
  }
  return Status::Ok();
}

Status InteractionLog::Append(InteractionRecord record) {
  if (Status st = Validate(record); !st.ok()) return st;
  records_.push_back(std::move(record));
  return Status::Ok();
}

std::int64_t InteractionLog::TotalAccepted() const {
  std::int64_t total = 0;
  for (const auto& record : records_) total += NumAccepted(record.feedback);
  return total;
}

Status InteractionLog::Replay(Policy* policy, std::size_t num_events,
                              std::size_t dim) const {
  FASEA_CHECK(policy != nullptr);
  if (num_events_ != num_events || dim_ != dim) {
    return InvalidArgumentError(StrFormat(
        "interaction log shape (%zu events, dim %zu) does not match the "
        "instance (%zu events, dim %zu)",
        num_events_, dim_, num_events, dim));
  }
  RoundContext round;
  round.contexts = ContextMatrix(num_events_, dim_);
  for (const InteractionRecord& record : records_) {
    FeedRecord(record, num_events_, dim_, policy, &round);
  }
  return Status::Ok();
}

void InteractionLog::FeedRecord(const InteractionRecord& record,
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

std::string InteractionLog::ToCsv() const {
  std::string out = "t,user_id,user_capacity,event,feedback";
  for (std::size_t j = 0; j < dim_; ++j) out += StrFormat(",x%zu", j);
  out += "\n";
  for (const InteractionRecord& record : records_) {
    for (std::size_t i = 0; i < record.arrangement.size(); ++i) {
      out += StrFormat("%lld,%lld,%lld,%u,%d",
                       static_cast<long long>(record.t),
                       static_cast<long long>(record.user_id),
                       static_cast<long long>(record.user_capacity),
                       record.arrangement[i],
                       static_cast<int>(record.feedback[i]));
      for (double x : record.contexts[i]) {
        out += ",";
        out += FormatDouble(x, 17);
      }
      out += "\n";
    }
    if (record.arrangement.empty()) {
      // Keep empty arrangements in the log (event id -1 sentinel row).
      out += StrFormat("%lld,%lld,%lld,-1,0",
                       static_cast<long long>(record.t),
                       static_cast<long long>(record.user_id),
                       static_cast<long long>(record.user_capacity));
      for (std::size_t j = 0; j < dim_; ++j) out += ",0";
      out += "\n";
    }
  }
  return out;
}

StatusOr<InteractionLog> InteractionLog::FromCsv(std::string_view csv,
                                                 std::size_t num_events,
                                                 std::size_t dim) {
  InteractionLog log(num_events, dim);
  const std::vector<std::string> lines = StrSplit(csv, '\n');
  InteractionRecord current;
  bool has_current = false;

  const auto flush = [&]() -> Status {
    if (!has_current) return Status::Ok();
    has_current = false;
    return log.Append(std::move(current));
  };

  for (std::size_t line_no = 0; line_no < lines.size(); ++line_no) {
    const std::string_view line = StripAsciiWhitespace(lines[line_no]);
    if (line.empty()) continue;
    if (line_no == 0) {
      if (!StartsWith(line, "t,user_id")) {
        return InvalidArgumentError("interaction log: missing CSV header");
      }
      continue;
    }
    const std::vector<std::string> cells = StrSplit(line, ',');
    if (cells.size() != 5 + dim) {
      return InvalidArgumentError(
          StrFormat("interaction log line %zu: expected %zu cells, got %zu",
                    line_no + 1, 5 + dim, cells.size()));
    }
    const std::int64_t t = std::atoll(cells[0].c_str());
    const std::int64_t user_id = std::atoll(cells[1].c_str());
    const std::int64_t user_capacity = std::atoll(cells[2].c_str());
    const std::int64_t event = std::atoll(cells[3].c_str());
    const int feedback = std::atoi(cells[4].c_str());

    if (!has_current || current.t != t || current.user_id != user_id) {
      if (Status st = flush(); !st.ok()) return st;
      current = InteractionRecord();
      current.t = t;
      current.user_id = user_id;
      current.user_capacity = user_capacity;
      has_current = true;
    }
    if (event < 0) continue;  // Empty-arrangement sentinel row.
    current.arrangement.push_back(static_cast<EventId>(event));
    current.feedback.push_back(static_cast<std::uint8_t>(feedback));
    std::vector<double> row(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = std::atof(cells[5 + j].c_str());
    }
    current.contexts.push_back(std::move(row));
  }
  if (Status st = flush(); !st.ok()) return st;
  return log;
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
