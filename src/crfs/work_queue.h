// WorkQueue: FIFO of filled chunks awaiting backend writing (paper §IV-B,
// "Work Queue and IO Throttling").
//
// Producers are application threads (full chunks, and partial chunks at
// close/fsync); consumers are the IO thread pool. The queue is unbounded:
// backpressure is applied upstream by the finite BufferPool, never here —
// a chunk that exists always has a queue slot, so enqueue cannot block
// and close() cannot deadlock against a full queue.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "crfs/chunk.h"
#include "obs/epoch.h"
#include "obs/metrics.h"

namespace crfs {

class FileEntry;  // defined in file_table.h

/// One unit of IO work: write `chunk`'s payload to `file`'s backend handle
/// at the chunk's recorded file offset.
struct WriteJob {
  std::shared_ptr<FileEntry> file;
  std::unique_ptr<Chunk> chunk;
  /// Epoch the chunk's bytes belong to (nullptr when epoch tracking is
  /// off). Captured at enqueue under the producer's agg_mu, so IO threads
  /// attribute durability without touching the file's lock or the
  /// tracker — and the state outlives any rotation that happens while
  /// the chunk is in flight.
  std::shared_ptr<obs::EpochState> epoch{};
  /// Chunk-lifecycle ledger stamps (obs::now_ns): push() stamps enqueue,
  /// pop() stamps dequeue. The delta is queue residency; the wait
  /// histogram (when installed) records the same quantity mount-wide.
  std::uint64_t enqueue_ns = 0;
  std::uint64_t dequeue_ns = 0;
};

class WorkQueue {
 public:
  /// Appends a job and wakes one IO thread.
  void push(WriteJob job);

  /// Blocks for the next job; nullopt after shutdown once drained. Each
  /// IO thread takes exactly one chunk per pop (paper §IV-B), so a queued
  /// chunk never waits behind another chunk parked in a busy worker.
  std::optional<WriteJob> pop();

  /// Lets pop() return nullopt once the queue is empty. Already-queued
  /// jobs are still handed out so teardown never loses buffered data.
  void shutdown();

  /// Installs the enqueue->pop wait histogram (crfs.queue.wait_ns). Call
  /// before any producer/consumer thread runs; the pointer is read
  /// without synchronization afterwards.
  void set_wait_histogram(obs::LatencyHistogram* hist) { wait_hist_ = hist; }

  std::size_t depth() const;
  std::uint64_t total_pushed() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<WriteJob> jobs_;
  std::uint64_t pushed_ = 0;
  bool shutdown_ = false;
  obs::LatencyHistogram* wait_hist_ = nullptr;
};

}  // namespace crfs
