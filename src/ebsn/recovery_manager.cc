#include "ebsn/recovery_manager.h"

#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"

namespace fasea {

namespace {

/// Scan + decode + boundary classification shared by full recovery and
/// the dry run. Fills every scan/boundary field of `report`; appends the
/// decoded records (classified: learn or restore-only) to `decoded` when
/// it is non-null.
struct ClassifiedRecord {
  InteractionRecord record;
  bool learn = false;
};

Status ScanAndClassify(Env* env, const std::string& wal_dir,
                       std::string_view checkpoint_blob,
                       CorruptFramePolicy policy, RecoveryReport* report,
                       std::vector<ClassifiedRecord>* decoded) {
  std::int64_t checkpoint_observations = 0;
  if (!checkpoint_blob.empty()) {
    auto checkpoint = ParseCheckpoint(checkpoint_blob);
    if (!checkpoint.ok()) return checkpoint.status();
    report->had_checkpoint = true;
    checkpoint_observations = checkpoint->num_observations;
    report->checkpoint_observations = checkpoint_observations;
  }

  auto scan = ScanWal(env, wal_dir, policy);
  if (!scan.ok()) return scan.status();
  report->segments_scanned = scan->segments_scanned;
  report->bytes_truncated = scan->bytes_truncated;
  report->corrupt_frames_skipped = scan->corrupt_frames_skipped;

  std::int64_t cumulative_observations = 0;
  std::int64_t last_t = 0;
  for (const std::string& payload : scan->payloads) {
    auto record = DecodeInteractionRecord(payload);
    if (!record.ok()) return record.status();
    if (record->t <= last_t) {
      // A retried append of a round already in the log: its fsync failed
      // after the bytes reached the disk, the acknowledgement was
      // withheld, and the retry wrote the round again (see the
      // report-field comment). Round ids are strictly increasing, so any
      // frame at or below the highest round seen is such a retry — and
      // retries need not land adjacent to the original: a retry storm
      // interleaved across users can separate the duplicate from its
      // first copy by several later rounds. Apply each round once.
      ++report->duplicate_frames_skipped;
      continue;
    }
    last_t = record->t;
    ++report->records_scanned;
    const auto observations =
        static_cast<std::int64_t>(record->arrangement.size());

    bool learn;
    if (report->had_checkpoint &&
        cumulative_observations + observations <= checkpoint_observations) {
      // Already inside the checkpoint: the policy knows this round;
      // capacities and the round counter still need it.
      learn = false;
      ++report->records_restored;
    } else if (report->had_checkpoint &&
               cumulative_observations < checkpoint_observations) {
      return DataLossError(StrFormat(
          "recovery: checkpoint horizon (%lld observations) falls inside "
          "round %lld — checkpoint and WAL disagree",
          static_cast<long long>(checkpoint_observations),
          static_cast<long long>(record->t)));
    } else {
      learn = true;
      ++report->records_replayed;
      report->observations_replayed += observations;
    }
    cumulative_observations += observations;
    report->rounds_served = record->t;
    if (decoded != nullptr) {
      decoded->push_back(
          ClassifiedRecord{std::move(record).value(), learn});
    }
  }

  if (report->had_checkpoint &&
      cumulative_observations < checkpoint_observations) {
    return DataLossError(StrFormat(
        "recovery: the WAL ends at %lld observations but the checkpoint "
        "was cut at %lld — the durable log does not cover the "
        "checkpoint's state",
        static_cast<long long>(cumulative_observations),
        static_cast<long long>(checkpoint_observations)));
  }
  return Status::Ok();
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out;
  out += StrFormat("checkpoint:               %s\n",
                   had_checkpoint
                       ? StrFormat("present (%lld observations)",
                                   static_cast<long long>(
                                       checkpoint_observations))
                             .c_str()
                       : "none");
  out += StrFormat("segments scanned:         %lld\n",
                   static_cast<long long>(segments_scanned));
  out += StrFormat("records scanned:          %lld\n",
                   static_cast<long long>(records_scanned));
  out += StrFormat("bytes truncated (tail):   %lld\n",
                   static_cast<long long>(bytes_truncated));
  out += StrFormat("corrupt frames skipped:   %lld\n",
                   static_cast<long long>(corrupt_frames_skipped));
  out += StrFormat("duplicate frames skipped: %lld\n",
                   static_cast<long long>(duplicate_frames_skipped));
  out += StrFormat("records restored (state): %lld\n",
                   static_cast<long long>(records_restored));
  out += StrFormat("records replayed (learn): %lld\n",
                   static_cast<long long>(records_replayed));
  out += StrFormat("observations replayed:    %lld\n",
                   static_cast<long long>(observations_replayed));
  out += StrFormat("rounds served:            %lld\n",
                   static_cast<long long>(rounds_served));
  return out;
}

StatusOr<RecoveredService> RecoverArrangementService(
    const ProblemInstance* instance, Env* env, const std::string& wal_dir,
    std::string_view checkpoint_blob, const RecoveryOptions& options) {
  FASEA_CHECK(instance != nullptr);
  FASEA_CHECK(env != nullptr);

  RecoveredService result;
  std::vector<ClassifiedRecord> records;
  if (Status st =
          ScanAndClassify(env, wal_dir, checkpoint_blob,
                          options.corrupt_frames, &result.report, &records);
      !st.ok()) {
    return st;
  }

  if (!checkpoint_blob.empty()) {
    auto service = ArrangementService::FromCheckpoint(
        instance, checkpoint_blob, options.seed);
    if (!service.ok()) return service.status();
    result.service = std::move(service).value();
  } else {
    result.service = std::make_unique<ArrangementService>(
        instance, options.kind, options.params, options.seed);
  }

  result.records.reserve(records.size());
  for (ClassifiedRecord& classified : records) {
    if (Status st = result.service->RestoreInteraction(classified.record,
                                                       classified.learn);
        !st.ok()) {
      return st;
    }
    result.records.push_back(std::move(classified.record));
  }

  // Verify the rebuilt sufficient statistics against the checkpoint
  // header: the policy must have folded in exactly the checkpoint's
  // observations plus every replayed one.
  const auto* base =
      dynamic_cast<const LinearPolicyBase*>(&result.service->policy());
  if (base != nullptr) {
    const std::int64_t expected = result.report.had_checkpoint
                                      ? result.report.checkpoint_observations +
                                            result.report.observations_replayed
                                      : result.report.observations_replayed;
    if (base->ridge().num_observations() != expected) {
      return DataLossError(StrFormat(
          "recovery: policy holds %lld observations, expected %lld — "
          "checkpoint and WAL disagree",
          static_cast<long long>(base->ridge().num_observations()),
          static_cast<long long>(expected)));
    }
    if (!base->ridge().healthy()) {
      return DataLossError(
          "recovery: replayed learning state failed refactorization");
    }
  }
  result.report.rounds_served = result.service->rounds_served();

  // Publish what this recovery did — operators watch these after every
  // restart to confirm nothing was lost beyond the torn tail.
  MetricsRegistry* metrics = Metrics();
  metrics->GetCounter("fasea.recovery.runs")->Increment();
  metrics->GetCounter("fasea.recovery.records_restored")
      ->Add(result.report.records_restored);
  metrics->GetCounter("fasea.recovery.records_replayed")
      ->Add(result.report.records_replayed);
  metrics->GetCounter("fasea.recovery.torn_tail_bytes")
      ->Add(result.report.bytes_truncated);
  metrics->GetCounter("fasea.recovery.corrupt_frames_skipped")
      ->Add(result.report.corrupt_frames_skipped);
  metrics->GetCounter("fasea.recovery.duplicate_frames_skipped")
      ->Add(result.report.duplicate_frames_skipped);
  return result;
}

StatusOr<RecoveryReport> InspectWal(Env* env, const std::string& wal_dir,
                                    std::string_view checkpoint_blob,
                                    CorruptFramePolicy policy) {
  FASEA_CHECK(env != nullptr);
  RecoveryReport report;
  if (Status st = ScanAndClassify(env, wal_dir, checkpoint_blob, policy,
                                  &report, nullptr);
      !st.ok()) {
    return st;
  }
  return report;
}

}  // namespace fasea
