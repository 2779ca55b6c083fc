#include "mem_env.h"

#include <atomic>
#include <iterator>
#include <utility>

namespace e2ebench {

namespace common = semitri::common;

namespace {

std::atomic<uint64_t> held_bytes{0};
std::atomic<uint64_t> peak_held_bytes{0};

// Counts what the file contents allocate in held_bytes/peak_held_bytes.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) {}

  T* allocate(size_t n) {
    const uint64_t bytes = n * sizeof(T);
    const uint64_t held = held_bytes.fetch_add(bytes) + bytes;
    uint64_t peak = peak_held_bytes.load();
    while (held > peak && !peak_held_bytes.compare_exchange_weak(peak, held)) {
    }
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) {
    held_bytes.fetch_sub(n * sizeof(T));
    std::allocator<T>().deallocate(p, n);
  }

  friend bool operator==(const CountingAllocator&, const CountingAllocator&) {
    return true;
  }
  friend bool operator!=(const CountingAllocator&, const CountingAllocator&) {
    return false;
  }
};

// Collapses repeated slashes and drops a trailing one.
std::string Normalize(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) {
    if (c == '/' && !out.empty() && out.back() == '/') continue;
    out.push_back(c);
  }
  if (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

std::string Parent(const std::string& path) {
  size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "";
  return slash == 0 ? "/" : path.substr(0, slash);
}

// Whether `path` lies under directory `dir`.
bool Under(const std::string& path, const std::string& dir) {
  const std::string prefix = dir == "/" ? dir : dir + "/";
  return path.size() > prefix.size() &&
         path.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

struct MemEnv::Data {
  std::basic_string<char, std::char_traits<char>, CountingAllocator<char>>
      bytes;
};

uint64_t MemEnv::PeakHeldBytes() { return peak_held_bytes.load(); }

class MemEnv::File final : public common::WritableFile {
 public:
  explicit File(Contents contents) : contents_(std::move(contents)) {}

  common::Status Append(std::string_view data) override {
    if (closed_) return common::Status::IoError("append on a closed file");
    contents_->bytes.append(data.data(), data.size());
    return common::Status::OK();
  }
  common::Status Sync() override {
    if (closed_) return common::Status::IoError("sync on a closed file");
    return common::Status::OK();
  }
  common::Status Truncate(uint64_t size) override {
    if (closed_) return common::Status::IoError("truncate on a closed file");
    contents_->bytes.resize(size);
    return common::Status::OK();
  }
  common::Status Close() override {
    closed_ = true;
    return common::Status::OK();
  }

 private:
  Contents contents_;
  bool closed_ = false;
};

common::Result<std::unique_ptr<common::WritableFile>> MemEnv::NewWritableFile(
    const std::string& path, common::WriteMode mode) {
  const std::string p = Normalize(path);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string parent = Parent(p);
  if (!parent.empty() && parent != "/" && dirs_.count(parent) == 0) {
    return common::Status::IoError("cannot open for write: " + path +
                                   ": no such directory");
  }
  if (dirs_.count(p) != 0) {
    return common::Status::IoError("cannot open for write: " + path +
                                   ": is a directory");
  }
  Contents& contents = files_[p];
  if (contents == nullptr || mode == common::WriteMode::kTruncate) {
    contents = std::make_shared<Data>();
  }
  return std::unique_ptr<common::WritableFile>(new File(contents));
}

common::Status MemEnv::ReadFileToString(const std::string& path,
                                        std::string* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(Normalize(path));
  if (it == files_.end()) {
    out->clear();
    return common::Status::NotFound("no such file: " + path);
  }
  out->assign(it->second->bytes.data(), it->second->bytes.size());
  return common::Status::OK();
}

common::Status MemEnv::WriteStringToFile(const std::string& path,
                                         std::string_view data, bool sync) {
  auto file = NewWritableFile(path, common::WriteMode::kTruncate);
  if (!file.ok()) return file.status();
  SEMITRI_RETURN_IF_ERROR((*file)->Append(data));
  if (sync) SEMITRI_RETURN_IF_ERROR((*file)->Sync());
  return (*file)->Close();
}

common::Status MemEnv::RenameFile(const std::string& from,
                                  const std::string& to) {
  const std::string src = Normalize(from);
  const std::string dst = Normalize(to);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string parent = Parent(dst);
  if (!parent.empty() && parent != "/" && dirs_.count(parent) == 0) {
    return common::Status::IoError("rename failed: " + from + " -> " + to +
                                   ": no such directory");
  }
  auto file = files_.find(src);
  if (file != files_.end()) {
    Contents contents = file->second;
    files_.erase(file);
    files_[dst] = std::move(contents);
    return common::Status::OK();
  }
  if (dirs_.count(src) == 0) {
    return common::Status::IoError("rename failed: " + from + " -> " + to +
                                   ": no such file");
  }
  // A directory: move it and everything under it.
  std::map<std::string, Contents> moved_files;
  for (auto it = files_.begin(); it != files_.end();) {
    if (Under(it->first, src)) {
      moved_files[dst + it->first.substr(src.size())] = it->second;
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  std::set<std::string> moved_dirs{dst};
  for (auto it = dirs_.begin(); it != dirs_.end();) {
    if (*it == src || Under(*it, src)) {
      if (*it != src) moved_dirs.insert(dst + it->substr(src.size()));
      it = dirs_.erase(it);
    } else {
      ++it;
    }
  }
  files_.insert(moved_files.begin(), moved_files.end());
  dirs_.insert(moved_dirs.begin(), moved_dirs.end());
  return common::Status::OK();
}

common::Status MemEnv::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dirs_.count(Normalize(dir)) == 0) {
    return common::Status::IoError("cannot open dir for sync: " + dir);
  }
  return common::Status::OK();
}

common::Status MemEnv::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  files_.erase(Normalize(path));
  return common::Status::OK();
}

common::Status MemEnv::CreateDirs(const std::string& dir) {
  std::string p = Normalize(dir);
  std::lock_guard<std::mutex> lock(mutex_);
  while (!p.empty() && p != "/" && dirs_.count(p) == 0) {
    if (files_.count(p) != 0) {
      return common::Status::IoError("cannot create dir " + dir +
                                     ": a file is in the way");
    }
    dirs_.insert(p);
    p = Parent(p);
  }
  return common::Status::OK();
}

common::Status MemEnv::RemoveDirRecursive(const std::string& dir) {
  const std::string p = Normalize(dir);
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = files_.begin(); it != files_.end();) {
    it = Under(it->first, p) ? files_.erase(it) : std::next(it);
  }
  for (auto it = dirs_.begin(); it != dirs_.end();) {
    it = (*it == p || Under(*it, p)) ? dirs_.erase(it) : std::next(it);
  }
  return common::Status::OK();
}

common::Result<std::vector<std::string>> MemEnv::ListDir(
    const std::string& dir) {
  const std::string p = Normalize(dir);
  const std::string prefix = p == "/" ? p : p + "/";
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::string> names;
  auto add = [&](const std::string& path) {
    if (!Under(path, p)) return;
    std::string rest = path.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.insert(rest);
  };
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && Under(it->first, p); ++it) {
    add(it->first);
  }
  for (auto it = dirs_.lower_bound(prefix);
       it != dirs_.end() && Under(*it, p); ++it) {
    add(*it);
  }
  return std::vector<std::string>(names.begin(), names.end());
}

bool MemEnv::FileExists(const std::string& path) {
  const std::string p = Normalize(path);
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(p) != 0 || dirs_.count(p) != 0;
}

bool MemEnv::IsDirectory(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return dirs_.count(Normalize(path)) != 0;
}

common::Result<uint64_t> MemEnv::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(Normalize(path));
  if (it == files_.end()) {
    return common::Status::IoError("cannot stat " + path);
  }
  return static_cast<uint64_t>(it->second->bytes.size());
}

common::Status MemEnv::TruncateFile(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(Normalize(path));
  if (it == files_.end()) {
    return common::Status::IoError("truncate failed: " + path);
  }
  it->second->bytes.resize(size);
  return common::Status::OK();
}

}  // namespace e2ebench
