// IoThreadPool: the pool of worker IO threads draining the work queue
// (paper §IV-B). Each worker pops one chunk and issues one blocking
// pwrite for it, so the thread count throttles the number of outstanding
// chunk writes hitting the backend at once, and no queued chunk waits
// behind a chunk another worker has popped but not started.
//
// Overwrite ordering is not the pool's concern: Crfs::flush_current_locked
// never queues a chunk that could overlap one of the same file still
// queued or being written (a chunk starting below the file's queued
// high-water mark waits for the file's outstanding chunks first). So any
// two chunks of one file that workers hold at once are disjoint, and the
// order in which different workers write them cannot change the bytes.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "backend/backend_fs.h"
#include "crfs/buffer_pool.h"
#include "crfs/work_queue.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/slow_store.h"
#include "obs/trace.h"

namespace crfs {

/// Optional per-stage instrumentation for the IO workers. All pointers
/// may be null (uninstrumented pool, the default); when set they must
/// outlive the pool. The histogram/counter writes are relaxed atomics, so
/// sharing them across all workers is contention-free.
struct IoPoolObs {
  obs::LatencyHistogram* pwrite_ns = nullptr;  ///< backend pwrite latency
  obs::Counter* pwrite_bytes = nullptr;        ///< bytes successfully written
  obs::Counter* pwrite_errors = nullptr;       ///< failed backend writes
  obs::TraceCollector* trace = nullptr;        ///< span sink for "pwrite"
  /// Structured event sink: every failed pwrite is recorded here with the
  /// file path, chunk offset/length, and errno, so a dropped chunk is
  /// attributable post-hoc (the chunk's data is gone either way — the
  /// sticky FileEntry error surfaces at close/fsync, this log says what
  /// and where).
  obs::EventBuffer* events = nullptr;
  /// Chunk-lifecycle ledger (docs/OBSERVABILITY.md "Durability lag"):
  /// copy-in (Chunk::born_ns) -> pwrite-complete, per chunk
  /// (crfs.chunk.durability_lag_ns). Chunks whose producer never stamped
  /// born_ns are skipped.
  obs::LatencyHistogram* durability_lag_ns = nullptr;
  /// Tail-latency forensic store (docs/OBSERVABILITY.md "Slow exemplars"):
  /// a chunk whose durability lag or device time crosses the store's
  /// threshold gets its full causal chain captured here. The threshold
  /// check is one relaxed load plus two compares per chunk; the capture
  /// itself only fires when the IO was already slow.
  obs::SlowStore* slow = nullptr;
  obs::Counter* slow_captured = nullptr;  ///< crfs.slow.captured
  /// Knob-plane generation at capture time (0 when no knob plane); lets a
  /// slow exemplar say which tuning state it was captured under.
  std::function<std::uint64_t()> knob_generation;
  /// Called after each completed chunk write (post chunk release) — the
  /// flight recorder's throttled-refresh hook. One indirect call per
  /// backend write, nullptr when no recorder exists.
  std::function<void()> on_write_complete;
};

class IoThreadPool {
 public:
  /// Starts `threads` workers. Each worker loops: pop one chunk, write it
  /// with one blocking pwrite, then bump the owning file's complete-chunk
  /// count and return the chunk to the pool.
  IoThreadPool(unsigned threads, WorkQueue& queue, BufferPool& pool, BackendFs& backend,
               IoPoolObs observe = {});

  /// Drains the queue and joins all workers.
  ~IoThreadPool();

  IoThreadPool(const IoThreadPool&) = delete;
  IoThreadPool& operator=(const IoThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Monitoring accessors. Relaxed loads are sufficient: these counters are
  // only read for progress/occupancy reporting and for the pool-exhaustion
  // rescue in Crfs::acquire_chunk, which re-polls in a timeout loop — a
  // stale value is retried, never trusted as a synchronization point. The
  // default seq_cst load would put a fence in the rescue path's spin for
  // no correctness gain.

  /// Chunks written so far across all workers.
  std::uint64_t chunks_written() const {
    return chunks_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  /// Jobs currently being written by a worker (popped, not yet finished).
  unsigned in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

 private:
  void worker_loop();
  /// Accounts one finished chunk write (metrics, epoch attribution,
  /// sticky error), completes and releases the chunk. `t_start`/`t_done`
  /// bracket the backend write.
  void complete_job(WriteJob job, Status status, std::uint64_t t_start,
                    std::uint64_t t_done);

  WorkQueue& queue_;
  BufferPool& pool_;
  BackendFs& backend_;
  IoPoolObs obs_;
  std::atomic<std::uint64_t> chunks_written_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<unsigned> in_flight_{0};
  std::vector<std::thread> workers_;
};

}  // namespace crfs
