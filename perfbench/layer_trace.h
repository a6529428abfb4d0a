// Outside-the-mount instrumentation for the traced benchmark run: an
// in-memory span log and a timing BackendFs decorator. Nothing here
// reaches into CRFS internals; spans are taken around calls into each
// layer's public functions.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/backend_fs.h"
#include "obs/metrics.h"

namespace perfbench {

using crfs::obs::now_ns;

/// One timed call. `name` must be a string literal (spans outlive the
/// objects that record them). `trace_id` is the epoch the call belongs to.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t tid = 0;
};

/// Per-thread append-only span buffers. record() touches only the calling
/// thread's buffer; collect() may run only after every recording thread
/// has been joined.
class SpanLog {
 public:
  void set_trace_id(std::uint64_t id) { trace_id_.store(id, std::memory_order_relaxed); }

  void record(const char* name, std::uint64_t start, std::uint64_t end) {
    ThreadBuf& buf = local();
    buf.spans.push_back(
        Span{name, start, end, trace_id_.load(std::memory_order_relaxed), buf.tid});
  }

  std::vector<Span> collect() const {
    std::lock_guard lock(mu_);
    std::vector<Span> out;
    for (const auto& b : bufs_) out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
  }

 private:
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
  };

  // The cache is keyed by a per-log id, not the address, so a later log
  // allocated where an earlier one lived never sees a stale buffer.
  ThreadBuf& local() {
    thread_local std::uint64_t owner = 0;
    thread_local ThreadBuf* buf = nullptr;
    if (owner != id_) {
      std::lock_guard lock(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      buf = bufs_.back().get();
      buf->tid = static_cast<std::uint32_t>(bufs_.size());
      buf->spans.reserve(1 << 14);
      owner = id_;
    }
    return *buf;
  }

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const std::uint64_t id_ = next_id();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
  std::atomic<std::uint64_t> trace_id_{0};
};

/// Times one call into a layer; a null log makes it free of clock reads.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), name_(name), start_(log != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->record(name_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t start_;
};

/// Calls, bytes and busy time of one direction through a backend.
struct IoTally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> ns{0};

  void add(std::uint64_t b, std::uint64_t t) {
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(b, std::memory_order_relaxed);
    ns.fetch_add(t, std::memory_order_relaxed);
  }
};

/// Which backend a TimingBackend sits on; picks the span names.
enum class BackendLayer { kBackend, kStage, kRemote };

/// Forwards every call to `inner`, timing data transfers. raw_fd() is
/// forwarded, so an io_uring engine still submits straight to the kernel
/// fd (those writes then bypass this decorator). Wrap a tier's stage and
/// remote, never the TieredBackend itself: the mount finds the tier by
/// dynamic_cast.
class TimingBackend final : public crfs::BackendFs {
 public:
  TimingBackend(std::shared_ptr<crfs::BackendFs> inner, BackendLayer layer, SpanLog* log)
      : inner_(std::move(inner)), log_(log), layer_(layer) {}

  IoTally writes;
  IoTally reads;

  crfs::Result<crfs::BackendFile> open_file(const std::string& path,
                                            crfs::OpenFlags flags) override {
    return inner_->open_file(path, flags);
  }
  crfs::Status close_file(crfs::BackendFile f) override { return inner_->close_file(f); }

  crfs::Status pwrite(crfs::BackendFile f, std::span<const std::byte> d,
                      std::uint64_t off) override {
    const std::uint64_t t0 = now_ns();
    auto st = inner_->pwrite(f, d, off);
    finish(writes, write_name(), d.size(), t0);
    return st;
  }
  crfs::Status pwritev(crfs::BackendFile f, std::span<const crfs::BackendIoVec> iov,
                       std::uint64_t off) override {
    std::uint64_t n = 0;
    for (const auto& seg : iov) n += seg.len;
    const std::uint64_t t0 = now_ns();
    auto st = inner_->pwritev(f, iov, off);
    finish(writes, write_name(), n, t0);
    return st;
  }
  int raw_fd(crfs::BackendFile f) const override { return inner_->raw_fd(f); }

  crfs::Result<std::size_t> pread(crfs::BackendFile f, std::span<std::byte> d,
                                  std::uint64_t off) override {
    const std::uint64_t t0 = now_ns();
    auto r = inner_->pread(f, d, off);
    finish(reads, read_name(), r.ok() ? r.value() : 0, t0);
    return r;
  }
  crfs::Result<std::size_t> preadv(crfs::BackendFile f,
                                   std::span<const crfs::BackendMutIoVec> iov,
                                   std::uint64_t off) override {
    const std::uint64_t t0 = now_ns();
    auto r = inner_->preadv(f, iov, off);
    finish(reads, read_name(), r.ok() ? r.value() : 0, t0);
    return r;
  }

  crfs::Status fsync(crfs::BackendFile f) override { return inner_->fsync(f); }
  crfs::Status truncate(crfs::BackendFile f, std::uint64_t s) override {
    return inner_->truncate(f, s);
  }
  crfs::Result<crfs::BackendStat> stat(const std::string& p) override { return inner_->stat(p); }
  crfs::Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  crfs::Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  crfs::Status unlink(const std::string& p) override { return inner_->unlink(p); }
  crfs::Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  crfs::Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "timed(" + inner_->name() + ")"; }

 private:
  const char* write_name() const {
    switch (layer_) {
      case BackendLayer::kStage: return "tiered.stage.write";
      case BackendLayer::kRemote: return "tiered.remote.write";
      default: return "backend.write";
    }
  }
  const char* read_name() const {
    switch (layer_) {
      case BackendLayer::kStage: return "tiered.stage.read";
      case BackendLayer::kRemote: return "tiered.remote.read";
      default: return "backend.read";
    }
  }
  void finish(IoTally& tally, const char* name, std::uint64_t bytes, std::uint64_t t0) {
    const std::uint64_t t1 = now_ns();
    tally.add(bytes, t1 - t0);
    if (log_ != nullptr) log_->record(name, t0, t1);
  }

  std::shared_ptr<crfs::BackendFs> inner_;
  SpanLog* log_;
  BackendLayer layer_;
};

/// Self time per span name: each span's duration minus the part covered
/// by spans nested inside it on the same thread, summed by name.
inline std::vector<std::pair<std::string, double>> self_time_ns(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;  // parents before their children
  });
  std::vector<std::pair<std::string, double>> out;
  auto add = [&out](const char* name, double ns) {
    for (auto& [n, v] : out) {
      if (n == name) {
        v += ns;
        return;
      }
    }
    out.emplace_back(name, ns);
  };
  struct Open {
    const Span* span;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack;
  auto pop = [&] {
    const Open top = stack.back();
    stack.pop_back();
    const std::uint64_t dur = top.span->end_ns - top.span->start_ns;
    add(top.span->name, static_cast<double>(dur - std::min(dur, top.child_ns)));
    if (!stack.empty()) stack.back().child_ns += dur;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && spans[i - 1].tid != s.tid) {
      while (!stack.empty()) pop();
    }
    while (!stack.empty() && stack.back().span->end_ns <= s.start_ns) pop();
    stack.push_back(Open{&s, 0});
  }
  while (!stack.empty()) pop();
  return out;
}

}  // namespace perfbench
