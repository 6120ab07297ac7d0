#pragma once
// RAM-backed FileOps for the benchmark's result store and batch manifest.
//
// The store and the manifest fsync every write.  On a shared disk that
// fsync latency is the largest noise source a job can hit, and it belongs to
// the host, not to the generator, so the benchmark keeps both in memory:
// records are real byte vectors (written, renamed, read back and decoded
// exactly as on disk), fsyncs and directory syncs are no-ops.  Journal
// appends are counted, not retained — nothing reads the journal back during
// a run, and a retained journal would grow by a full serialized report
// (about 0.3 MB) per job.  A store that is only written (the cold
// workloads, whose every circuit is distinct) need not retain its records
// either: on disk they would not count against the process's memory, and
// retained here they would make peak RSS grow with the jobs a run completes.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/fileio.hpp"

namespace perfbench {

class MemFileOps final : public bist::FileOps {
 public:
  /// `keep_contents` = false keeps only each file's size: reads then miss.
  explicit MemFileOps(bool keep_contents = true) : keep_(keep_contents) {}

  bool write_file(const std::string& path,
                  std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lock(mu_);
    sizes_[path] = data.size();
    if (keep_) files_[path].assign(data.begin(), data.end());
    return true;
  }
  bool append_file(const std::string& path,
                   std::span<const std::uint8_t> data) override {
    std::lock_guard<std::mutex> lock(mu_);
    appended_[path] += data.size();
    return true;
  }
  bool read_file(const std::string& path,
                 std::vector<std::uint8_t>& out) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) return false;
    out = it->second;
    return true;
  }
  bool rename_file(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto size = sizes_.extract(from);
    if (size.empty()) return false;
    sizes_[to] = size.mapped();
    if (auto node = files_.extract(from); !node.empty())
      files_[to] = std::move(node.mapped());
    return true;
  }
  bool remove_file(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(path);
    sizes_.erase(path);
    appended_.erase(path);
    return true;
  }
  bool make_dirs(const std::string&) override { return true; }
  bool exists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return sizes_.count(path) != 0 || appended_.count(path) != 0;
  }
  bool sync_parent_dir(const std::string&) override { return true; }

  /// Size of a stored file in bytes, 0 when absent.
  std::size_t file_size(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sizes_.find(path);
    return it == sizes_.end() ? 0 : it->second;
  }

 private:
  const bool keep_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::uint8_t>> files_;
  std::map<std::string, std::size_t> sizes_;
  std::map<std::string, std::uint64_t> appended_;
};

}  // namespace perfbench
