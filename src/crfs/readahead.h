// Readahead: the restart-side read pipeline (read mirror of the write
// aggregation machinery; ROADMAP item "read path").
//
// The paper leaves read() a synchronous passthrough; a BLCR-style restore
// is a strict forward scan, so every pread stalls the restart for one full
// backend round trip. This prefetcher recognizes the sequential scan (a
// per-file expected-offset streak), then keeps up to `window` chunk-sized
// reads ahead of the reader: each is one blocking backend pread into a
// pool chunk, issued on the reading thread. Prefetched chunks are parked
// in pool-backed cache slots and consumed by later reads, so the backend
// sees chunk-sized reads instead of one per FUSE request; anything
// unconsumed on a seek, a write, or close is counted as wasted and the
// chunks go back to the pool.
//
// Coherence: the cache is valid only for the FileEntry::write_gen it was
// filled under. Every serve snapshots the generation; if a write or
// truncate moved it, the whole cache for that file is dropped before
// serving (the caller has already barriered the file's queued chunks, so
// a fresh backend read observes them).
//
// Concurrency: every file has its own state and lock, so ranks restoring
// different files never wait on each other. A file's lock covers its whole
// read, including the blocking backend preads (the uncovered tail and the
// window reads); no other lock is held across a backend read. The map lock
// `mu_` covers only the file map and the finalized ledger ring. Lock
// order: a file's lock, then `mu_` (evict finalizes the ledger row under
// both).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend_fs.h"
#include "crfs/buffer_pool.h"
#include "obs/metrics.h"

namespace crfs {

class FileEntry;

/// Metric sinks for the read pipeline (owned by the mount registry; all
/// optional so standalone tests can run unsinked).
struct ReadObs {
  obs::Counter* ops = nullptr;              ///< crfs.read.ops
  obs::Counter* bytes = nullptr;            ///< crfs.read.bytes
  obs::Counter* prefetch_issued = nullptr;  ///< crfs.read.prefetch_issued
  obs::Counter* prefetch_hits = nullptr;    ///< crfs.read.prefetch_hits
  obs::Counter* prefetch_wasted = nullptr;  ///< crfs.read.prefetch_wasted
  obs::Counter* sync_preads = nullptr;      ///< crfs.read.sync_preads
  obs::LatencyHistogram* pread_ns = nullptr;  ///< crfs.read.pread_ns
  /// Slow-read forensics hook (path, offset, len, t_start, t_done);
  /// thresholding happens in the sink (SlowStore).
  std::function<void(const std::string& path, std::uint64_t offset, std::size_t len,
                     std::uint64_t t_start, std::uint64_t t_done)>
      on_slow;
};

/// Per-restore attribution row (crfsctl report "Restores" table): one
/// file's read scan, finalized when the file is evicted (closed).
struct RestoreLedgerEntry {
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_wasted = 0;
  std::uint64_t sync_preads = 0;
  std::uint64_t ttfb_ns = 0;        ///< latency of the scan's first read
  std::uint64_t first_read_ns = 0;  ///< monotonic stamp of first read
  std::uint64_t last_read_ns = 0;   ///< monotonic stamp of last read
  bool active = false;              ///< still open (snapshot of a live scan)
};

class Readahead {
 public:
  Readahead(BackendFs& backend, BufferPool& pool, ReadObs obs, std::size_t ledger_capacity);

  /// Releases every parked chunk; must run before the pool shuts down.
  ~Readahead();

  Readahead(const Readahead&) = delete;
  Readahead& operator=(const Readahead&) = delete;

  /// Serves one application read at `offset`, from the prefetch cache
  /// where possible, with a blocking backend pread for the uncovered
  /// tail. When `enabled` and the file's sequential streak is
  /// established, tops the window back up to `window` chunks ahead before
  /// returning. Returns bytes read (short only at EOF).
  Result<std::size_t> read(const std::shared_ptr<FileEntry>& entry, std::span<std::byte> out,
                           std::uint64_t offset, bool enabled, unsigned window);

  /// Drops all cached state for `entry` (final close), finalizing its
  /// restore-ledger row. Idempotent.
  void evict(const FileEntry* entry);

  /// Finalized restore rows (oldest first) plus live scans (active=true),
  /// ordered by first read time.
  std::vector<RestoreLedgerEntry> ledger_snapshot() const;

 private:
  struct FileState;

  /// One pool-backed cache slot: a chunk filled from the backend.
  struct Slot {
    std::unique_ptr<Chunk> chunk;
    std::uint64_t offset = 0;  ///< file offset of the first byte
    std::size_t want = 0;      ///< bytes requested
    std::size_t valid = 0;     ///< bytes filled; < want means EOF inside
    bool failed = false;       ///< the backend read failed
    bool consumed = false;     ///< any byte served to the application
  };

  struct FileState {
    std::mutex mu;     ///< serializes this file's reads and its cache
    bool live = true;  ///< false once evicted; a racing reader looks up again
    std::uint64_t expected_next = 0;  ///< sequential-scan predictor
    std::uint64_t streak = 0;         ///< consecutive sequential reads
    std::uint64_t gen_seen = 0;       ///< FileEntry::write_gen of the cache
    std::uint64_t eof_at = ~std::uint64_t{0};  ///< lowest offset at/after EOF
    std::deque<std::unique_ptr<Slot>> slots;  ///< sorted, contiguous coverage
    RestoreLedgerEntry stats;
    bool touched = false;
  };

  /// The live state for `entry`, created on first use.
  std::shared_ptr<FileState> state_for(const FileEntry* entry);
  void drop_cache_locked(FileState& fs);
  void retire_front_locked(FileState& fs);
  void top_up_locked(const FileEntry* entry, FileState& fs, std::uint64_t next,
                     unsigned window);
  void finalize_locked(FileState& fs);

  BackendFs& backend_;
  BufferPool& pool_;
  ReadObs obs_;
  const std::size_t ledger_capacity_;

  mutable std::mutex mu_;  ///< files_ and ledger_ only
  std::unordered_map<const FileEntry*, std::shared_ptr<FileState>> files_;
  std::deque<RestoreLedgerEntry> ledger_;  ///< bounded ring, oldest first
};

}  // namespace crfs
