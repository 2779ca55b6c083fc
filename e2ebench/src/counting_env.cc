#include "counting_env.h"

#include <utility>

namespace e2ebench {

namespace common = semitri::common;

namespace {

bool IsWalFile(const std::string& path) {
  constexpr std::string_view kWal = "wal.log";
  return path.size() >= kWal.size() &&
         path.compare(path.size() - kWal.size(), kWal.size(), kWal) == 0 &&
         (path.size() == kWal.size() ||
          path[path.size() - kWal.size() - 1] == '/');
}

}  // namespace

class CountingEnv::File final : public common::WritableFile {
 public:
  File(std::unique_ptr<common::WritableFile> base, CountingEnv* env,
       bool wal)
      : base_(std::move(base)), env_(env), wal_(wal) {}

  common::Status Append(std::string_view data) override {
    SpanScope span(env_->tracer_, Tracer::kHarness, -1);
    if (wal_) env_->counts_.wal_bytes += data.size();
    return base_->Append(data);
  }
  common::Status Sync() override {
    SpanScope span(env_->tracer_, Tracer::kHarness, -1);
    ++env_->counts_.syncs;
    return base_->Sync();
  }
  common::Status Truncate(uint64_t size) override {
    SpanScope span(env_->tracer_, Tracer::kHarness, -1);
    ++env_->counts_.syncs;
    return base_->Truncate(size);
  }
  common::Status Close() override {
    SpanScope span(env_->tracer_, Tracer::kHarness, -1);
    return base_->Close();
  }

 private:
  std::unique_ptr<common::WritableFile> base_;
  CountingEnv* env_;
  bool wal_;
};

common::Result<std::unique_ptr<common::WritableFile>>
CountingEnv::NewWritableFile(const std::string& path,
                             common::WriteMode mode) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  auto file = base_->NewWritableFile(path, mode);
  if (!file.ok()) return file.status();
  return std::unique_ptr<common::WritableFile>(
      new File(std::move(file.value()), this, IsWalFile(path)));
}

common::Status CountingEnv::ReadFileToString(const std::string& path,
                                             std::string* out) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->ReadFileToString(path, out);
}

common::Status CountingEnv::WriteStringToFile(const std::string& path,
                                              std::string_view data,
                                              bool sync) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  if (sync) ++counts_.syncs;
  return base_->WriteStringToFile(path, data, sync);
}

common::Status CountingEnv::RenameFile(const std::string& from,
                                       const std::string& to) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->RenameFile(from, to);
}

common::Status CountingEnv::SyncDir(const std::string& dir) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  ++counts_.syncs;
  return base_->SyncDir(dir);
}

common::Status CountingEnv::RemoveFile(const std::string& path) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->RemoveFile(path);
}

common::Status CountingEnv::CreateDirs(const std::string& dir) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->CreateDirs(dir);
}

common::Status CountingEnv::RemoveDirRecursive(const std::string& dir) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->RemoveDirRecursive(dir);
}

common::Result<std::vector<std::string>> CountingEnv::ListDir(
    const std::string& dir) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->ListDir(dir);
}

bool CountingEnv::FileExists(const std::string& path) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->FileExists(path);
}

bool CountingEnv::IsDirectory(const std::string& path) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->IsDirectory(path);
}

common::Result<uint64_t> CountingEnv::FileSize(const std::string& path) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  return base_->FileSize(path);
}

common::Status CountingEnv::TruncateFile(const std::string& path,
                                         uint64_t size) {
  SpanScope span(tracer_, Tracer::kHarness, -1);
  ++counts_.syncs;
  return base_->TruncateFile(path, size);
}

}  // namespace e2ebench
