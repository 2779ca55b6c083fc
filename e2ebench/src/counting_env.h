#ifndef SEMITRI_E2EBENCH_COUNTING_ENV_H_
#define SEMITRI_E2EBENCH_COUNTING_ENV_H_

// A common::Env decorator that counts what the library writes and, in a
// traced pass, opens a Tracer::kHarness span around every filesystem
// call, so that the time the benchmark's own Env spends is counted in
// `other` rather than in the layer that made the call. The durable
// workload hands it to ShardCluster, so WAL bytes and fsyncs are counted
// where they happen.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "trace.h"

namespace e2ebench {

class CountingEnv final : public semitri::common::Env {
 public:
  struct Counts {
    // Bytes appended to store WAL files (wal.log).
    uint64_t wal_bytes = 0;
    // fsyncs of files and directories (including whole-file writes
    // with sync).
    uint64_t syncs = 0;
  };

  // `base` does the work; `tracer` may be null. Both must outlive the
  // Env.
  CountingEnv(semitri::common::Env* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  const Counts& counts() const { return counts_; }

  semitri::common::Result<std::unique_ptr<semitri::common::WritableFile>>
  NewWritableFile(const std::string& path,
                  semitri::common::WriteMode mode) override;
  semitri::common::Status ReadFileToString(const std::string& path,
                                           std::string* out) override;
  semitri::common::Status WriteStringToFile(const std::string& path,
                                            std::string_view data,
                                            bool sync) override;
  semitri::common::Status RenameFile(const std::string& from,
                                     const std::string& to) override;
  semitri::common::Status SyncDir(const std::string& dir) override;
  semitri::common::Status RemoveFile(const std::string& path) override;
  semitri::common::Status CreateDirs(const std::string& dir) override;
  semitri::common::Status RemoveDirRecursive(const std::string& dir) override;
  semitri::common::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  bool FileExists(const std::string& path) override;
  bool IsDirectory(const std::string& path) override;
  semitri::common::Result<uint64_t> FileSize(const std::string& path) override;
  semitri::common::Status TruncateFile(const std::string& path,
                                       uint64_t size) override;

 private:
  class File;

  semitri::common::Env* base_;
  Tracer* tracer_;
  Counts counts_;
};

}  // namespace e2ebench

#endif  // SEMITRI_E2EBENCH_COUNTING_ENV_H_
