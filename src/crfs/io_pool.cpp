#include "crfs/io_pool.h"

#include "crfs/file_table.h"

namespace crfs {

IoThreadPool::IoThreadPool(unsigned threads, WorkQueue& queue, BufferPool& pool,
                           BackendFs& backend, IoPoolObs observe)
    : queue_(queue), pool_(pool), backend_(backend), obs_(std::move(observe)) {
  const unsigned n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

IoThreadPool::~IoThreadPool() {
  queue_.shutdown();
  for (auto& w : workers_) w.join();
}

void IoThreadPool::worker_loop() {
  // An empty pop means the queue was shut down and drained.
  while (std::optional<WriteJob> job = queue_.pop()) {
    // In flight until its chunk is released: the pool-exhaustion rescue
    // in Crfs::acquire_chunk treats in_flight() > 0 as "chunks are
    // coming back soon".
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t t_start = obs::now_ns();
    Status status = backend_.pwrite(job->file->backend_file(), job->chunk->payload(),
                                    job->chunk->file_offset());
    complete_job(std::move(*job), std::move(status), t_start, obs::now_ns());
  }
}

void IoThreadPool::complete_job(WriteJob job, Status status, std::uint64_t t_start,
                                std::uint64_t t_done) {
  // t_start/t_done bracket the backend IO: the single time source for the
  // pwrite histogram, the trace span, durability lag (copy-in -> durable,
  // via Chunk::born_ns), and epoch attribution.
  FileEntry& file = *job.file;
  const std::uint64_t id = job.chunk->trace_id();
  const std::uint64_t len = job.chunk->fill();
  const std::uint64_t residency =
      job.enqueue_ns != 0 && job.dequeue_ns > job.enqueue_ns
          ? job.dequeue_ns - job.enqueue_ns
          : 0;
  const std::uint64_t submit_wait =
      job.dequeue_ns != 0 && t_start > job.dequeue_ns ? t_start - job.dequeue_ns : 0;
  const std::uint64_t device = t_done > t_start ? t_done - t_start : 0;
  if (obs_.pwrite_ns != nullptr) obs_.pwrite_ns->record(t_done - t_start);
  if (obs_.trace != nullptr && obs_.trace->enabled()) {
    // Stitch the cross-thread chain: the producer recorded write/pool_wait
    // spans under the chunk's trace id; here the worker retro-records the
    // queue and submit-wait stages from the stamps the job already carries
    // (no new clock reads), then the device span. All land on this
    // worker's own ring — single-writer invariant holds.
    const char* path_tag = obs_.trace->intern(file.path());
    obs::TraceRing& ring = obs_.trace->ring();
    if (residency != 0) ring.record("queue", job.enqueue_ns, residency, id, path_tag);
    if (submit_wait != 0) ring.record("submit", job.dequeue_ns, submit_wait, id, path_tag);
    ring.record("pwrite", t_start, t_done - t_start, id, path_tag);
  }
  // Critical-path attribution: submit-wait and device time of the backend
  // call go to the chunk's epoch.
  if (job.epoch != nullptr) {
    obs::EpochState& ep = *job.epoch;
    if (submit_wait != 0) ep.submit_wait_ns.fetch_add(submit_wait, std::memory_order_relaxed);
    if (device != 0) ep.device_ns.fetch_add(device, std::memory_order_relaxed);
  }

  if (status.ok()) {
    chunks_written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(len, std::memory_order_relaxed);
    if (obs_.pwrite_bytes != nullptr) obs_.pwrite_bytes->add(len);
    const std::uint64_t born = job.chunk->born_ns();
    const std::uint64_t lag = born != 0 && t_done > born ? t_done - born : 0;
    if (obs_.durability_lag_ns != nullptr && born != 0) {
      obs_.durability_lag_ns->record(lag);
    }
    if (job.epoch != nullptr) {
      job.epoch->backend_writes.fetch_add(1, std::memory_order_relaxed);
      job.epoch->record_chunk_durable(len, lag, residency);
    }
    if (obs_.slow != nullptr && obs_.slow->over_threshold(lag, device)) {
      // Tail-latency forensics: this chunk blew the threshold — freeze
      // its whole causal chain plus the pipeline state it saw. Cold by
      // construction (the IO already took >= threshold).
      obs::SlowExemplar ex;
      ex.trace_id = id;
      ex.path = file.path();
      ex.offset = job.chunk->file_offset();
      ex.len = len;
      ex.born_ns = born;
      ex.enqueue_ns = job.enqueue_ns;
      ex.dequeue_ns = job.dequeue_ns;
      ex.submit_ns = t_start;
      ex.durable_ns = t_done;
      ex.pool_stall_ns = job.chunk->stall_ns();
      ex.fill_ns = born != 0 && job.enqueue_ns > born ? job.enqueue_ns - born : 0;
      ex.queue_ns = residency;
      ex.submit_wait_ns = submit_wait;
      ex.device_ns = device;
      ex.total_lag_ns = lag;
      ex.queue_depth = queue_.depth();
      ex.free_chunks = pool_.free_chunks();
      ex.knob_generation = obs_.knob_generation ? obs_.knob_generation() : 0;
      obs_.slow->capture(std::move(ex));
      if (obs_.slow_captured != nullptr) obs_.slow_captured->add(1);
    }
  } else {
    if (obs_.pwrite_errors != nullptr) obs_.pwrite_errors->add(1);
    if (job.epoch != nullptr) job.epoch->io_errors.fetch_add(1, std::memory_order_relaxed);
    if (obs_.events != nullptr) {
      const Error& err = status.error();
      obs_.events->push(obs::Event{
          obs::Severity::kCritical, "pwrite_error",
          file.path() + " offset=" + std::to_string(job.chunk->file_offset()) +
              " len=" + std::to_string(len) + " errno=" + std::to_string(err.code) +
              " (" + err.to_string() + ")",
          static_cast<double>(err.code), 0.0, t_done});
    }
  }
  // complete_one keeps close()/fsync() blocked until write_chunks ==
  // complete_chunks, and a failed write marks the sticky FileEntry error.
  file.complete_one(status);
  pool_.release(std::move(job.chunk));
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (obs_.on_write_complete) obs_.on_write_complete();
}

}  // namespace crfs
