#include "crfs/work_queue.h"

namespace crfs {

void WorkQueue::push(WriteJob job) {
  // One clock read per chunk (MBs of data), not per write: negligible.
  // Always stamped — the chunk-lifecycle ledger needs queue residency
  // even when no wait histogram is installed.
  job.enqueue_ns = obs::now_ns();
  {
    std::lock_guard lock(mu_);
    jobs_.push_back(std::move(job));
    pushed_ += 1;
  }
  ready_.notify_one();
}

std::optional<WriteJob> WorkQueue::pop() {
  std::optional<WriteJob> job;
  {
    std::unique_lock lock(mu_);
    ready_.wait(lock, [&] { return !jobs_.empty() || shutdown_; });
    if (jobs_.empty()) return std::nullopt;  // shutdown and drained
    job.emplace(std::move(jobs_.front()));
    jobs_.pop_front();
  }
  const std::uint64_t now = obs::now_ns();
  job->dequeue_ns = now;
  if (wait_hist_ != nullptr && job->enqueue_ns != 0) {
    wait_hist_->record(now > job->enqueue_ns ? now - job->enqueue_ns : 0);
  }
  return job;
}

void WorkQueue::shutdown() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  ready_.notify_all();
}

std::size_t WorkQueue::depth() const {
  std::lock_guard lock(mu_);
  return jobs_.size();
}

std::uint64_t WorkQueue::total_pushed() const {
  std::lock_guard lock(mu_);
  return pushed_;
}

}  // namespace crfs
