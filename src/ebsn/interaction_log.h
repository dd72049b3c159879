// InteractionRecord: one served round — (user, arrangement, feedback)
// plus the context row of each arranged event — and the functions every
// reader of round history shares: its WAL codec, its shape validation,
// and the step that feeds it to a policy.
//
// The WAL is the only history of served rounds: a frame's payload is
// one encoded record, and recovery (ebsn/recovery_manager.h) decodes,
// validates and feeds each one. Only the arranged events' context rows
// are stored: they are exactly what the ridge update consumes
// (Y += x xᵀ, b += r x over arranged events), so feeding the records in
// order into a fresh policy reproduces Y and b bit-for-bit.
#ifndef FASEA_EBSN_INTERACTION_LOG_H_
#define FASEA_EBSN_INTERACTION_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "model/types.h"

namespace fasea {

struct InteractionRecord {
  std::int64_t t = 0;
  std::int64_t user_id = 0;
  std::int64_t user_capacity = 0;
  Arrangement arrangement;
  Feedback feedback;
  /// Context row of each arranged event (arrangement.size() × dim).
  std::vector<std::vector<double>> contexts;
};

/// Shape/bounds validation of one record against an instance of
/// `num_events` events in dimension `dim`: arrangement, feedback and
/// contexts align, the arrangement fits the user capacity, event ids are
/// in range, rows have `dim` entries and feedback is 0/1.
Status ValidateInteractionRecord(const InteractionRecord& record,
                                 std::size_t num_events, std::size_t dim);

/// Feeds one record into `policy->Learn`, using `scratch` as the |V|×d
/// context buffer (must be num_events × dim): the arranged rows are
/// scattered into an otherwise zero matrix. Shared by crash recovery and
/// the offline evaluator.
void FeedInteractionRecord(const InteractionRecord& record,
                           std::size_t num_events, std::size_t dim,
                           Policy* policy, RoundContext* scratch);

/// Binary codec for one InteractionRecord — the payload format of WAL
/// frames (little-endian, self-describing arrangement size and context
/// dimension; see io/wal.h for the framing around it).
std::string EncodeInteractionRecord(const InteractionRecord& record);

/// Decodes a WAL payload. Fails with kDataLoss on any structural problem:
/// the frame passed its checksum, so a malformed payload means a format
/// mismatch rather than bit rot.
StatusOr<InteractionRecord> DecodeInteractionRecord(
    std::string_view payload);

}  // namespace fasea

#endif  // FASEA_EBSN_INTERACTION_LOG_H_
