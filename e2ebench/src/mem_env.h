#ifndef SEMITRI_E2EBENCH_MEM_ENV_H_
#define SEMITRI_E2EBENCH_MEM_ENV_H_

// An in-memory common::Env: files and directories live in this object,
// with POSIX-like semantics (a file needs its parent directory, a
// rename replaces its target, an open file keeps its contents when its
// path is renamed or removed). Sync is a no-op.
//
// The durable workload runs its shard WALs, checkpoints and standby
// copies here. On the machine the benchmark was tuned on, a rename over
// an existing file blocked 30-75 ms and the disk stalled for tens of
// seconds at times, so wall-clock figures on the real filesystem spread
// by 13-96% from run to run and measured the disk, not the code. Every
// byte the library writes still goes through the same calls.
//
// On a real filesystem those bytes would sit in the page cache, outside
// the process; here they are process memory. MemEnv counts them, so a
// memory figure can leave them out.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"

namespace e2ebench {

class MemEnv final : public semitri::common::Env {
 public:
  MemEnv() = default;

  // The most bytes of file contents all MemEnv objects have held at
  // once since the process started (allocated capacity, so what the
  // contents take in memory).
  static uint64_t PeakHeldBytes();

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
  struct Data;
  using Contents = std::shared_ptr<Data>;
  class File;

  std::mutex mutex_;
  std::map<std::string, Contents> files_;
  std::set<std::string> dirs_;
};

}  // namespace e2ebench

#endif  // SEMITRI_E2EBENCH_MEM_ENV_H_
