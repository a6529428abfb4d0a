// Readahead: the restart-side read pipeline (read mirror of the write
// aggregation machinery; ROADMAP item "read path").
//
// The paper leaves read() a synchronous passthrough; a BLCR-style restore
// is a strict forward scan, so every pread stalls the restart for one full
// backend round trip. This prefetcher recognizes the sequential scan (a
// per-file expected-offset streak), then keeps up to `window` chunk-sized
// reads in flight through a dedicated IoEngine (the same sync/uring
// machinery the write path uses — IORING_OP_READ_FIXED over the pool's
// registered chunk storage, synchronous preadv fallback). Prefetched
// chunks are parked in pool-backed cache slots and consumed by later
// reads; anything unconsumed on a seek, a write, or close is counted as
// wasted and the chunks go back to the pool.
//
// Coherence: the cache is valid only for the FileEntry::write_gen it was
// filled under. Every serve snapshots the generation; if a write or
// truncate moved it, the whole cache for that file is dropped before
// serving (the caller has already barriered the file's queued chunks, so
// a fresh backend read observes them).
//
// Concurrency: every file has its own state and lock, so ranks restoring
// different files never wait on each other. A file's lock covers its whole
// read, including the blocking backend preads (the uncovered tail, and the
// window reads a sync engine performs inline from submit_read); no other
// lock is held across a backend read. The map lock `mu_` covers only the
// file map and the finalized ledger ring. Lock order: a file's lock, then
// `mu_` (evict finalizes the ledger row under both).
//
// Completions find their slot through the read token, which is the Slot
// pointer itself. A ring engine's shared submission/completion state is
// driven under `engine_mu_`, held only across submit, flush and reap; a
// reader waiting on an in-flight slot reaps under it until that slot is
// done, and completions for other files land on their own slots. Files a
// ring engine serves inline (no raw fd), and every file under the sync
// engine, never take `engine_mu_`.
#pragma once

#include <atomic>
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
#include "crfs/io_engine.h"
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
  obs::LatencyHistogram* pread_ns = nullptr;        ///< crfs.read.pread_ns
  obs::LatencyHistogram* inflight_depth = nullptr;  ///< crfs.read.inflight_depth
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
  /// `engine_opts` mirrors the mount's write-engine choice; the read
  /// engine is a separate ring so restore traffic never competes with
  /// checkpoint SQEs for slots. `regions` enables READ_FIXED into pool
  /// chunk storage.
  Readahead(BackendFs& backend, BufferPool& pool, const IoEngineOptions& engine_opts,
            std::vector<ChunkRegion> regions, IoEngineObs engine_obs, ReadObs obs,
            std::size_t ledger_capacity);

  /// Drains and releases everything; must run before the pool shuts down.
  ~Readahead();

  Readahead(const Readahead&) = delete;
  Readahead& operator=(const Readahead&) = delete;

  /// Serves one application read at `offset`, from the prefetch cache
  /// where possible, with a blocking backend pread for the uncovered
  /// tail. When `enabled` and the file's sequential streak is
  /// established, tops the window back up to `window` chunk reads in
  /// flight before returning. Returns bytes read (short only at EOF).
  Result<std::size_t> read(const std::shared_ptr<FileEntry>& entry, std::span<std::byte> out,
                           std::uint64_t offset, bool enabled, unsigned window);

  /// Drops all cached and in-flight state for `entry` (final close),
  /// finalizing its restore-ledger row. Idempotent.
  void evict(const FileEntry* entry);

  /// Releases the read engine's registered-fd slot before the backend
  /// closes `file` (mirrors IoThreadPool::forget_backend_file).
  void forget_file(BackendFile file);

  /// Engine actually running after fallback ("sync"/"uring").
  const char* engine_name() const { return engine_->name(); }

  /// Reads currently in flight on the read engine (monitoring gauge;
  /// engine inflight() is thread-safe by contract).
  std::size_t engine_inflight() const { return engine_->inflight(); }

  /// Finalized restore rows (oldest first) plus live scans (active=true),
  /// ordered by first read time.
  std::vector<RestoreLedgerEntry> ledger_snapshot() const;

 private:
  struct FileState;

  /// One pool-backed cache slot: a chunk being (or already) filled from
  /// the backend.
  struct Slot {
    enum class State { kInflight, kReady, kError };

    std::unique_ptr<Chunk> chunk;
    FileState* owner = nullptr;
    std::uint64_t offset = 0;  ///< file offset of the first byte
    std::size_t want = 0;      ///< bytes requested
    std::size_t valid = 0;     ///< bytes filled; < want means EOF inside
    /// Set last by the completion (release); `valid` is read only after an
    /// acquire load sees it leave kInflight.
    std::atomic<State> state{State::kInflight};
    bool consumed = false;  ///< any byte served to the application
  };

  struct FileState {
    std::mutex mu;     ///< serializes this file's reads and its cache
    bool live = true;  ///< false once evicted; a racing reader looks up again
    std::uint64_t expected_next = 0;  ///< sequential-scan predictor
    std::uint64_t streak = 0;         ///< consecutive sequential reads
    std::uint64_t gen_seen = 0;       ///< FileEntry::write_gen of the cache
    /// Lowest offset at/after EOF; lowered (atomic min) by completions
    /// that may run on another reader's thread.
    std::atomic<std::uint64_t> eof_at{~std::uint64_t{0}};
    std::deque<std::unique_ptr<Slot>> slots;  ///< sorted, contiguous coverage
    RestoreLedgerEntry stats;
    bool touched = false;
  };

  /// The live state for `entry`, created on first use.
  std::shared_ptr<FileState> state_for(const FileEntry* entry);
  /// True when window reads of `file` go through the engine's shared ring
  /// (and so need `engine_mu_`); false when submit_read completes them
  /// inline.
  bool via_ring(BackendFile file) const;
  /// Blocks until `s` leaves kInflight.
  void wait_slot(Slot& s);
  void drop_cache_locked(FileState& fs);
  void retire_front_locked(FileState& fs);
  void top_up_locked(const FileEntry* entry, FileState& fs, std::uint64_t next,
                     unsigned window);
  void finalize_locked(FileState& fs);

  BackendFs& backend_;
  BufferPool& pool_;
  ReadObs obs_;
  const std::size_t ledger_capacity_;

  std::unique_ptr<IoEngine> engine_;
  bool ring_ = false;      ///< engine keeps shared ring state (uring)
  std::mutex engine_mu_;   ///< ring submit/flush/reap only (leaf lock)

  mutable std::mutex mu_;  ///< files_ and ledger_ only
  std::unordered_map<const FileEntry*, std::shared_ptr<FileState>> files_;
  std::deque<RestoreLedgerEntry> ledger_;  ///< bounded ring, oldest first
};

}  // namespace crfs
