// MemBackend: an in-memory BackendFs with a flat namespace tree.
//
// Unit tests stack CRFS over this backend so every aggregation /
// ordering / durability property can be asserted against exact byte
// content without touching the host filesystem. It also powers the
// integrity property tests: after any interleaving of writers, the file
// contents here must equal the writers' source buffers.
//
// Locking is two-level so the backend scales with concurrent streams
// (bench_multistream drives 16 writers through it): `mu_` guards the
// namespace tree and the handle map, while each Node carries its own
// mutex for its data bytes. Data ops (pwrite/pread/...) resolve the
// handle under a brief `mu_` critical section, then do the memcpy under
// the per-node lock only — two streams writing different files never
// serialize on each other.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <unordered_map>

#include "backend/backend_fs.h"

namespace crfs {

class MemBackend final : public BackendFs {
 public:
  MemBackend();

  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override;
  Status close_file(BackendFile file) override;
  Status pwrite(BackendFile file, std::span<const std::byte> data,
                std::uint64_t offset) override;
  /// One backend call (and one pwrite_calls_ tick) for the whole scatter
  /// list, same as one ::pwritev on a real filesystem.
  Status pwritev(BackendFile file, std::span<const BackendIoVec> iov,
                 std::uint64_t offset) override;
  Result<std::size_t> pread(BackendFile file, std::span<std::byte> data,
                            std::uint64_t offset) override;
  Status fsync(BackendFile file) override;
  Status truncate(BackendFile file, std::uint64_t size) override;

  Result<BackendStat> stat(const std::string& path) override;
  Status mkdir(const std::string& path) override;
  Status rmdir(const std::string& path) override;
  Status unlink(const std::string& path) override;
  Status rename(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> list_dir(const std::string& path) override;

  std::string name() const override { return "mem"; }

  // -- Test-introspection helpers ---------------------------------------
  /// Full contents of a file (empty + error if missing).
  Result<std::vector<std::byte>> contents(const std::string& path);
  /// Number of fsync() calls observed on the file, for durability tests.
  std::uint64_t fsync_count(const std::string& path);
  /// Number of pwrite/pwritev calls across all files (aggregation tests
  /// assert CRFS issues far fewer backend writes than app writes).
  std::uint64_t total_pwrites() const { return pwrite_calls_.load(); }
  std::uint64_t total_pwritten_bytes() const { return pwrite_bytes_.load(); }

 private:
  struct Node {
    bool is_dir = false;
    mutable std::mutex data_mu;  ///< guards data + fsyncs (never held with mu_)
    std::vector<std::byte> data;
    std::uint64_t fsyncs = 0;
    int open_handles = 0;
    bool unlinked = false;
  };

  struct Handle {
    std::shared_ptr<Node> node;
    bool writable = false;
  };

  /// Normalizes to a canonical "a/b/c" key (no leading slash).
  static std::string normalize(const std::string& path);
  static std::string parent_of(const std::string& norm);

  std::shared_ptr<Node> find(const std::string& norm);

  /// Copies out the handle (node ptr + writable bit) under mu_; the
  /// caller then operates on the node under its own data_mu.
  Result<Handle> resolve(BackendFile file, const char* op) const;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Node>> tree_;  // ordered: list_dir scans
  std::unordered_map<BackendFile, Handle> handles_;
  BackendFile next_handle_ = 1;
  std::atomic<std::uint64_t> pwrite_calls_{0};
  std::atomic<std::uint64_t> pwrite_bytes_{0};
};

}  // namespace crfs
