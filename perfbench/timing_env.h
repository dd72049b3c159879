// Timing decorators for the library's two pluggable boundaries.
//
// TimingEnv wraps an Env (the WAL / decision-log filesystem boundary) and
// TimingContextSource wraps a ContextSource (the lazy-context feature
// store the model layer's cache reads). Both forward every call
// unchanged — same arguments, same results — and open a trace span
// around each call so the traced run can split time across layers;
// TimingEnv also counts appends, bytes and write time.
#ifndef PERFBENCH_TIMING_ENV_H_
#define PERFBENCH_TIMING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"
#include "model/context_cache.h"
#include "trace.h"

namespace perfbench {

/// Write-path totals of one TimingEnv.
struct IoTotals {
  std::int64_t appends = 0;    // WritableFile::Append calls.
  std::int64_t bytes = 0;      // Bytes passed to Append.
  std::int64_t write_ns = 0;   // Time in Append + Flush.
};

class TimingEnv final : public fasea::Env {
 public:
  /// `base` must outlive this env and every file it opens; spans are
  /// attributed to `layer`.
  TimingEnv(fasea::Env* base, Layer layer) : base_(base), layer_(layer) {}

  fasea::StatusOr<std::unique_ptr<fasea::WritableFile>> NewWritableFile(
      const std::string& path) override;
  fasea::StatusOr<std::string> ReadFileToString(
      const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  fasea::StatusOr<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }
  fasea::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  fasea::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

  IoTotals Totals() const;

 private:
  friend class TimingFile;
  void AddWrite(std::int64_t bytes, std::int64_t ns, bool is_append);

  fasea::Env* base_;
  Layer layer_;
  std::atomic<std::int64_t> appends_{0};
  std::atomic<std::int64_t> bytes_{0};
  std::atomic<std::int64_t> write_ns_{0};
};

class TimingContextSource final : public fasea::ContextSource {
 public:
  /// `base` must outlive this source.
  explicit TimingContextSource(const fasea::ContextSource* base)
      : base_(base) {}

  std::size_t num_events() const override { return base_->num_events(); }
  std::size_t dim() const override { return base_->dim(); }
  void Materialize(fasea::EventId v, std::span<double> row) const override;

 private:
  const fasea::ContextSource* base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_ENV_H_
