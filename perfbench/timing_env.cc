#include "timing_env.h"

#include <utility>

#include "common.h"

namespace perfbench {

class TimingFile final : public fasea::WritableFile {
 public:
  TimingFile(std::unique_ptr<fasea::WritableFile> base, TimingEnv* env)
      : base_(std::move(base)), env_(env) {}

  fasea::Status Append(std::string_view data) override {
    Span span(env_->layer_, "WritableFile::Append");
    const std::int64_t start = NowNs();
    fasea::Status st = base_->Append(data);
    env_->AddWrite(static_cast<std::int64_t>(data.size()), NowNs() - start,
                   /*is_append=*/true);
    return st;
  }
  fasea::Status Flush() override {
    Span span(env_->layer_, "WritableFile::Flush");
    const std::int64_t start = NowNs();
    fasea::Status st = base_->Flush();
    env_->AddWrite(0, NowNs() - start, /*is_append=*/false);
    return st;
  }
  fasea::Status Sync() override {
    Span span(env_->layer_, "WritableFile::Sync");
    return base_->Sync();
  }
  fasea::Status Close() override {
    Span span(env_->layer_, "WritableFile::Close");
    return base_->Close();
  }

 private:
  std::unique_ptr<fasea::WritableFile> base_;
  TimingEnv* env_;
};

fasea::StatusOr<std::unique_ptr<fasea::WritableFile>>
TimingEnv::NewWritableFile(const std::string& path) {
  Span span(layer_, "Env::NewWritableFile");
  auto file = base_->NewWritableFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<fasea::WritableFile>(
      std::make_unique<TimingFile>(std::move(file).value(), this));
}

void TimingEnv::AddWrite(std::int64_t bytes, std::int64_t ns, bool is_append) {
  if (is_append) appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(ns, std::memory_order_relaxed);
}

IoTotals TimingEnv::Totals() const {
  IoTotals totals;
  totals.appends = appends_.load();
  totals.bytes = bytes_.load();
  totals.write_ns = write_ns_.load();
  return totals;
}

void TimingContextSource::Materialize(fasea::EventId v,
                                      std::span<double> row) const {
  Span span(Layer::kModel, "ContextSource::Materialize");
  base_->Materialize(v, row);
}

}  // namespace perfbench
