// NullBackend: accepts and discards all data.
//
// Mirrors the paper's Fig 5 methodology: "Once a filled chunk is picked
// up by an IO thread it is discarded without being written to a back-end
// filesystem. With this we can measure the raw performance of CRFS to
// aggregate write streams, precluding the impacts of different back-end
// filesystems."
#pragma once

#include <atomic>

#include "backend/backend_fs.h"

namespace crfs {

class NullBackend final : public BackendFs {
 public:
  Result<BackendFile> open_file(const std::string&, OpenFlags) override {
    open_files_.fetch_add(1, std::memory_order_relaxed);
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  Status close_file(BackendFile) override {
    open_files_.fetch_sub(1, std::memory_order_relaxed);
    return {};
  }
  Status pwrite(BackendFile, std::span<const std::byte> data, std::uint64_t) override {
    bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    writes_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  Status pwritev(BackendFile, std::span<const BackendIoVec> iov, std::uint64_t) override {
    std::size_t total = 0;
    for (const auto& seg : iov) total += seg.len;
    bytes_.fetch_add(total, std::memory_order_relaxed);
    writes_.fetch_add(1, std::memory_order_relaxed);  // one call for the whole scatter list
    return {};
  }
  Result<std::size_t> pread(BackendFile, std::span<std::byte>, std::uint64_t) override {
    return std::size_t{0};  // always EOF
  }
  Status fsync(BackendFile) override { return {}; }
  Status truncate(BackendFile, std::uint64_t) override { return {}; }

  Result<BackendStat> stat(const std::string&) override { return BackendStat{}; }
  Status mkdir(const std::string&) override { return {}; }
  Status rmdir(const std::string&) override { return {}; }
  Status unlink(const std::string&) override { return {}; }
  Status rename(const std::string&, const std::string&) override { return {}; }
  Result<std::vector<std::string>> list_dir(const std::string&) override {
    return std::vector<std::string>{};
  }
  std::string name() const override { return "null"; }

  std::uint64_t bytes_discarded() const { return bytes_.load(); }
  std::uint64_t writes_observed() const { return writes_.load(); }

 private:
  std::atomic<BackendFile> next_{1};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::int64_t> open_files_{0};
};

}  // namespace crfs
