// crfs::obs tracing: lock-free per-thread event rings for span capture.
//
// A TraceCollector owns one TraceRing per participating thread. Recording
// a span is two relaxed atomic loads (enabled? which ring?) plus four
// relaxed stores into the thread's own ring slot — no locks, no
// allocation, no contention between threads. When tracing is disabled
// (Config::enable_tracing = false, the default) TraceSpan costs a single
// relaxed bool load and no clock read, so the write hot path pays only
// counters.
//
// Events are "complete" spans (begin timestamp + duration), which export
// directly as Chrome trace_event `"ph":"X"` records (chrome_trace.h) and
// load in chrome://tracing and Perfetto.
//
// Concurrency contract: each ring is written by exactly one thread.
// snapshot() may run while writers are active; every slot field is a
// relaxed atomic, so a reader racing a wrap-around sees a torn-but-
// well-typed event rather than undefined behaviour (and ThreadSanitizer
// stays quiet). For an exact trace, export after quiescing the pipeline —
// which is what Crfs::export_trace and `crfsctl trace` do.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace crfs::obs {

/// One completed span, in the export-facing (plain, copyable) form.
struct TraceEvent {
  const char* name = "";    ///< static string; never freed
  std::uint32_t tid = 0;    ///< ring index (creation order) or sim node id
  std::uint64_t ts_ns = 0;  ///< begin timestamp (monotonic or virtual ns)
  std::uint64_t dur_ns = 0; ///< span duration
  std::uint64_t trace_id = 0;  ///< causal chain id (0 = unattributed)
  const char* tag = "";     ///< interned/static detail (file path); never freed
};

/// Fixed-capacity single-writer ring of spans. Oldest events are
/// overwritten once `capacity` is exceeded (recorded() keeps the total).
class TraceRing {
 public:
  TraceRing(std::uint32_t tid, std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Called only by the owning thread.
  void record(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
              std::uint64_t trace_id = 0, const char* tag = "") {
    Slot& slot = slots_[head_.load(std::memory_order_relaxed) % slots_.size()];
    slot.name.store(name, std::memory_order_relaxed);
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.tag.store(tag, std::memory_order_relaxed);
    // Release-publish so a snapshot that observes the new head also
    // observes the slot it covers.
    head_.fetch_add(1, std::memory_order_release);
  }

  std::uint32_t tid() const { return tid_; }
  std::size_t capacity() const { return slots_.size(); }
  /// Total events ever recorded (>= what the ring still holds).
  std::uint64_t recorded() const { return head_.load(std::memory_order_acquire); }

  /// Ring contents oldest-first, at most capacity() events.
  std::vector<TraceEvent> snapshot() const;

 private:
  struct Slot {
    std::atomic<const char*> name{""};
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<const char*> tag{""};
  };

  std::uint32_t tid_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

/// Owns the per-thread rings of one traced pipeline (one Crfs mount).
class TraceCollector {
 public:
  explicit TraceCollector(std::size_t ring_capacity = 64 * 1024);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The calling thread's ring, created on first use. A one-entry
  /// thread_local cache keyed by collector id makes the steady state a
  /// pair of relaxed loads; the mutex is only paid on first contact.
  TraceRing& ring();

  /// All rings' events merged and sorted by begin timestamp.
  std::vector<TraceEvent> snapshot() const;

  std::uint64_t total_recorded() const;
  std::size_t ring_count() const;
  /// Spans overwritten before any snapshot could see them: per ring,
  /// max(0, recorded - capacity), summed. Monotone; feeds the
  /// `crfs.trace.dropped_spans` self-health gauge.
  std::uint64_t dropped() const;

  /// Interns a string (e.g. a file path) into collector-lifetime stable
  /// storage so TraceEvent::tag can outlive the FileEntry that named it.
  /// Deduplicated; mutex-guarded (cold path — once per traced chunk write).
  const char* intern(const std::string& s);

 private:
  std::uint64_t id_;
  std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<TraceRing>> rings_;
  std::unordered_map<std::thread::id, TraceRing*> by_thread_;
  std::deque<std::string> interned_;
  std::unordered_map<std::string, const char*> intern_index_;
};

/// RAII span: stamps begin on construction, records on destruction.
/// No-op (no clock read) when the collector is disabled.
class TraceSpan {
 public:
  TraceSpan(TraceCollector& collector, const char* name)
      : collector_(collector.enabled() ? &collector : nullptr),
        name_(name),
        start_ns_(collector_ ? now_ns() : 0) {}

  ~TraceSpan() {
    if (collector_ != nullptr) {
      collector_->ring().record(name_, start_ns_, now_ns() - start_ns_, trace_id_, tag_);
    }
  }

  /// Attaches a causal chain id, discovered after construction (e.g. the
  /// id of the chunk a write() call landed in). Plain stores — safe to
  /// call unconditionally on the hot path.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  void set_tag(const char* tag) { tag_ = tag; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceCollector* collector_;
  const char* name_;
  std::uint64_t start_ns_;
  std::uint64_t trace_id_ = 0;
  const char* tag_ = "";
};

/// Unbounded single-threaded span log — the simulator's sink, recording
/// the same TraceEvent schema in virtual time (src/sim/engine.h).
class EventLog {
 public:
  void record(const char* name, std::uint32_t tid, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::uint64_t trace_id = 0,
              const char* tag = "") {
    events_.push_back(TraceEvent{name, tid, ts_ns, dur_ns, trace_id, tag});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace crfs::obs
