// RecoveryManager: rebuilds an ArrangementService after a crash from the
// two durable artifacts a deployment keeps — the latest policy checkpoint
// blob (optional) and the write-ahead log.
//
// Invariants enforced:
//   1. The WAL tail is truncated at the first torn frame (a crash mid-
//      append loses at most the unacknowledged record); mid-file
//      corruption is fatal (kDataLoss) or skipped-and-counted per
//      CorruptFramePolicy.
//   2. Records whose observations are already inside the checkpoint
//      restore only platform state (capacities) and the round counter;
//      records past the checkpoint additionally
//      replay policy learning. The boundary must fall exactly on a round
//      boundary, and the WAL must reach the checkpoint's horizon —
//      anything else is kDataLoss.
//   3. After replay the policy's observation count is verified against
//      checkpoint header + replayed records; a mismatch is kDataLoss.
//
// The result is bit-identical to a service that ran uninterrupted
// through the last durable record: same (Y, b), same rounds_served(),
// same remaining capacities. With no checkpoint every record is replayed
// through the same Learn calls into a fresh policy — the replay path
// for a deployment that keeps only the WAL.
#ifndef FASEA_EBSN_RECOVERY_MANAGER_H_
#define FASEA_EBSN_RECOVERY_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "ebsn/arrangement_service.h"
#include "io/wal.h"

namespace fasea {

struct RecoveryOptions {
  /// How ScanWal treats corrupt frames that are not the torn tail.
  CorruptFramePolicy corrupt_frames = CorruptFramePolicy::kFail;
  /// Policy to construct when no checkpoint blob is supplied (with a
  /// checkpoint, kind/params come from the blob).
  PolicyKind kind = PolicyKind::kUcb;
  PolicyParams params;
  /// Seed of the recovered policy; the original's seed makes it draw
  /// exactly as the original would (rng/seed.h KeyedEngine).
  std::uint64_t seed = 0;
};

/// What recovery did — returned on success, and printable for operators
/// (`fasea_cli recover`).
struct RecoveryReport {
  bool had_checkpoint = false;
  std::int64_t checkpoint_observations = 0;

  std::int64_t segments_scanned = 0;
  std::int64_t records_scanned = 0;   // Frames that decoded successfully.
  std::int64_t bytes_truncated = 0;   // Torn tail dropped by ScanWal.
  std::int64_t corrupt_frames_skipped = 0;  // Only under kSkip.
  /// Frames repeating the previous frame's round: an append whose fsync
  /// failed persisted the frame anyway, the acknowledgement was withheld,
  /// and the retry wrote the round again. Replaying once is exact.
  std::int64_t duplicate_frames_skipped = 0;

  std::int64_t records_restored = 0;  // Pre-checkpoint: state only.
  std::int64_t records_replayed = 0;  // Post-checkpoint: learned too.
  std::int64_t observations_replayed = 0;
  std::int64_t rounds_served = 0;     // Final round counter.

  std::string ToString() const;
};

struct RecoveredService {
  std::unique_ptr<ArrangementService> service;
  RecoveryReport report;
  /// Every record recovery restored, in WAL (= round) order, after
  /// duplicate frames collapsed: the durable round history, for callers
  /// that audit it (the chaos harness checks it against its own ledger).
  std::vector<InteractionRecord> records;
};

/// Restores a service from `checkpoint_blob` (empty → fresh policy from
/// `options`) plus the WAL in `wal_dir`. A missing/empty WAL is fine for
/// a fresh or zero-observation checkpoint; a checkpoint with learned
/// state and no WAL covering it is kDataLoss (invariant 2 — the platform
/// state behind those observations is unrecoverable).
/// The recovered service has no WAL attached; callers that
/// want to continue logging attach a fresh writer (WalWriter::Open picks
/// a new segment, never rewriting recovered frames).
StatusOr<RecoveredService> RecoverArrangementService(
    const ProblemInstance* instance, Env* env, const std::string& wal_dir,
    std::string_view checkpoint_blob, const RecoveryOptions& options = {});

/// Instance-free dry run: scans the WAL, decodes every frame, and fills
/// the scan/boundary fields of the report without constructing a service
/// (records_replayed etc. are computed as a full recovery would). Backs
/// the `fasea_cli recover` subcommand.
StatusOr<RecoveryReport> InspectWal(
    Env* env, const std::string& wal_dir, std::string_view checkpoint_blob,
    CorruptFramePolicy policy = CorruptFramePolicy::kFail);

}  // namespace fasea

#endif  // FASEA_EBSN_RECOVERY_MANAGER_H_
