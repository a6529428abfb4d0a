#include "crfs/crfs.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "obs/chrome_trace.h"
#include "obs/json_lite.h"

namespace crfs {

MountStats::MountStats(obs::Registry& reg)
    : app_writes(reg.counter("crfs.mount.app_writes")),
      app_bytes(reg.counter("crfs.mount.app_bytes")),
      full_flushes(reg.counter("crfs.mount.full_flushes")),
      partial_flushes(reg.counter("crfs.mount.partial_flushes")),
      reopens(reg.counter("crfs.mount.reopens")),
      chunk_steals(reg.counter("crfs.mount.chunk_steals")),
      bypass_writes(reg.counter("crfs.mount.bypass_writes")),
      reads(reg.counter("crfs.read.ops")),
      read_bytes(reg.counter("crfs.read.bytes")) {}

MountStats::Snapshot MountStats::snapshot() const {
  return Snapshot{
      .app_writes = app_writes.value(),
      .app_bytes = app_bytes.value(),
      .full_flushes = full_flushes.value(),
      .partial_flushes = partial_flushes.value(),
      .reopens = reopens.value(),
      .chunk_steals = chunk_steals.value(),
      .bypass_writes = bypass_writes.value(),
      .reads = reads.value(),
      .read_bytes = read_bytes.value(),
  };
}

Result<std::unique_ptr<Crfs>> Crfs::mount(std::shared_ptr<BackendFs> backend, Config cfg) {
  if (backend == nullptr) return Error{EINVAL, "mount: null backend"};
  CRFS_RETURN_IF_ERROR(cfg.validate());
  return std::unique_ptr<Crfs>(new Crfs(std::move(backend), cfg));
}

Crfs::Crfs(std::shared_ptr<BackendFs> backend, Config cfg)
    : backend_(std::move(backend)),
      cfg_(cfg),
      telemetry_(cfg_, obs::now_ns),
      stats_(telemetry_.registry()),
      epochs_(telemetry_.epochs()),
      trace_(cfg.trace_ring_events) {
  trace_.set_enabled(cfg_.enable_tracing);
  obs::Registry& reg = telemetry_.registry();
  obs::EventBuffer& events = telemetry_.events();
  pool_ = std::make_unique<BufferPool>(cfg_.pool_size, cfg_.chunk_size, cfg_.pool_shards);

  // Resolve every hot-path metric once, before any worker thread exists;
  // after this point the registry is only touched through these handles
  // and snapshot().
  h_write_copy_ = &reg.histogram("crfs.write.copy_ns");
  h_pool_wait_ = &reg.histogram("crfs.write.pool_wait_ns");
  h_drain_wait_ = &reg.histogram("crfs.drain.wait_ns");
  h_pwrite_ = &reg.histogram("crfs.io.pwrite_ns");
  c_pwrite_bytes_ = &reg.counter("crfs.io.pwrite_bytes");
  c_pwrite_errors_ = &reg.counter("crfs.io.pwrite_errors");
  c_bypass_bytes_ = &reg.counter("crfs.write.bypass_bytes");
  queue_.set_wait_histogram(&reg.histogram("crfs.queue.wait_ns"));

  // Tiered staging (docs/PERFORMANCE.md "Tiered staging"): when the
  // backend is a TieredBackend, bind its crfs.tier.* telemetry and wire
  // the epoch ledger to the drain — a finalized epoch seals its drain
  // unit, and a remote-durable unit reports back into the ledger row.
  // Both listeners fire outside the respective locks (epoch.h/tier
  // contracts), so neither callback can deadlock against the other plane.
  tier_ = dynamic_cast<TieredBackend*>(backend_.get());
  if (tier_ != nullptr) {
    tier_->bind_obs(&reg, &events);
    if (epochs_ != nullptr) {
      epochs_->set_finalize_listener(
          [this](const obs::EpochRecord& rec) { tier_->seal_epoch(rec.id); });
      tier_->set_drain_listener([this](std::uint64_t epoch_id, std::uint64_t bytes,
                                       std::uint64_t drain_ns, std::uint64_t end_ns) {
        if (epoch_id != 0) epochs_->attach_drain(epoch_id, bytes, drain_ns, end_ns);
      });
    }
  }

  IoPoolObs io_obs;
  io_obs.pwrite_ns = h_pwrite_;
  io_obs.pwrite_bytes = c_pwrite_bytes_;
  io_obs.pwrite_errors = c_pwrite_errors_;
  io_obs.trace = &trace_;
  io_obs.events = &events;
  io_obs.durability_lag_ns = &reg.histogram("crfs.chunk.durability_lag_ns");
  io_obs.slow = &telemetry_.slow();
  io_obs.slow_captured = &reg.counter("crfs.slow.captured");
  // The knob plane is built after the pool (define_knobs below); no job
  // can complete before the ctor finishes, but guard anyway.
  io_obs.knob_generation = [this]() -> std::uint64_t {
    return knobs_ != nullptr ? knobs_->generation() : 0;
  };

  // Flight recorder before the IO pool exists: the pool's run-complete
  // hook and the event listener below reference it, and nothing can fire
  // until the workers start.
  if (!cfg_.postmortem_path.empty()) {
    flight_ = std::make_unique<obs::FlightRecorder>(obs::FlightRecorder::Options{
        .path = cfg_.postmortem_path, .capacity = cfg_.postmortem_buffer});
    flight_->install_signal_handlers();
    io_obs.on_write_complete = [this] { refresh_flight(/*force=*/false); };
  }
  // After the journal records an event, the flight recorder dumps on
  // criticals: error bursts and failed pwrites should leave a dump even
  // when the process survives them, so refresh with the event included,
  // then write the file. Runs outside the EventBuffer lock.
  if (flight_ != nullptr) {
    telemetry_.on_event([this](const obs::Event& ev) {
      if (ev.severity == obs::Severity::kCritical) {
        refresh_flight(/*force=*/true);
        (void)flight_->dump_now();
      }
    });
  }
  io_pool_ = std::make_unique<IoThreadPool>(cfg_.io_threads, queue_, *pool_, *backend_,
                                            io_obs);

  // Restore-side read pipeline (docs/PERFORMANCE.md "Read path and
  // restore").
  ReadObs read_obs;
  read_obs.ops = &stats_.reads;
  read_obs.bytes = &stats_.read_bytes;
  read_obs.prefetch_issued = &reg.counter("crfs.read.prefetch_issued");
  read_obs.prefetch_hits = &reg.counter("crfs.read.prefetch_hits");
  read_obs.prefetch_wasted = &reg.counter("crfs.read.prefetch_wasted");
  read_obs.sync_preads = &reg.counter("crfs.read.sync_preads");
  read_obs.pread_ns = &reg.histogram("crfs.read.pread_ns");
  // Slow-read forensics: same store and threshold as the write side, with
  // kind="read". A blocking restore read has no copy/queue chain — the
  // whole duration is device time.
  read_obs.on_slow = [this, c_slow = &reg.counter("crfs.slow.captured")](
                         const std::string& path, std::uint64_t offset, std::size_t len,
                         std::uint64_t t_start, std::uint64_t t_done) {
    const std::uint64_t dur = t_done - t_start;
    obs::SlowStore& slow = telemetry_.slow();
    if (!slow.over_threshold(dur, dur)) return;
    obs::SlowExemplar ex;
    ex.kind = "read";
    ex.path = path;
    ex.offset = offset;
    ex.len = len;
    ex.submit_ns = t_start;
    ex.durable_ns = t_done;
    ex.device_ns = dur;
    ex.total_lag_ns = dur;
    ex.queue_depth = queue_.depth();
    ex.free_chunks = pool_->free_chunks();
    ex.knob_generation = knobs_ != nullptr ? knobs_->generation() : 0;
    slow.capture(std::move(ex));
    c_slow->add(1);
  };
  readahead_ = std::make_unique<Readahead>(*backend_, *pool_, std::move(read_obs),
                                           cfg_.epoch_ledger);
  readahead_on_.store(cfg_.readahead, std::memory_order_relaxed);
  readahead_window_.store(cfg_.readahead_window, std::memory_order_relaxed);

  // Occupancy gauges, sampled at snapshot time straight from the stages.
  reg.gauge_fn("crfs.pool.free_chunks", [this] {
    return static_cast<std::int64_t>(pool_->free_chunks());
  });
  reg.gauge_fn("crfs.pool.parked_chunks", [this] {
    return static_cast<std::int64_t>(pool_->in_use_chunks());
  });
  reg.gauge_fn("crfs.pool.contentions", [this] {
    return static_cast<std::int64_t>(pool_->contention_count());
  });
  reg.gauge_fn("crfs.queue.depth", [this] {
    return static_cast<std::int64_t>(queue_.depth());
  });
  reg.gauge_fn("crfs.io.in_flight", [this] {
    return static_cast<std::int64_t>(io_pool_->in_flight());
  });
  reg.gauge_fn("crfs.files.open", [this] {
    return static_cast<std::int64_t>(table_.open_count());
  });
  // Self-health gauges (docs/OBSERVABILITY.md "Observing the observer"):
  // spans lost to ring wrap-around, and slow-exemplar buffer occupancy.
  reg.gauge_fn("crfs.trace.dropped_spans", [this] {
    return static_cast<std::int64_t>(trace_.dropped());
  });
  reg.gauge_fn("crfs.slow.exemplars", [this] {
    return static_cast<std::int64_t>(telemetry_.slow().size());
  });

  // Live telemetry plane: background sampler + health rules. Construction
  // only here — the thread starts below, after the control plane is wired,
  // so the first tick already sees the tick observer.
  if (cfg_.sample_ms > 0) {
    health_ = std::make_unique<obs::HealthMonitor>(cfg_.health, events);
    sampler_ = std::make_unique<obs::Sampler>(
        reg, obs::SamplerOptions{.ring_capacity = cfg_.sample_ring});
    sampler_->set_health_monitor(health_.get());
    sampler_->set_overrun_counter(&reg.counter("crfs.obs.sampler_overruns"));
  }

  // Control plane (docs/OBSERVABILITY.md "Control plane"): the knob plane
  // and decision log always exist (crfsctl tune works on any mount); the
  // feedback controller only with controller=on.
  define_knobs();
  decisions_ = std::make_unique<obs::DecisionLog>(cfg_.event_capacity, &reg, &events);
  if (flight_ != nullptr) {
    // Every audited decision refreshes the postmortem (throttled), so a
    // crash shortly after a knob change still shows what was retuned.
    decisions_->set_listener([this](const obs::CtlDecision&) { refresh_flight(false); });
  }
  reg.gauge_fn("crfs.ctl.generation", [this] {
    return static_cast<std::int64_t>(knobs_->generation());
  });
  for (const KnobDef& def : knobs_->defs()) {
    reg.gauge_fn("crfs.knob." + def.name, [this, name = def.name] {
      return static_cast<std::int64_t>(knobs_->snapshot()->get(name, 0.0));
    });
  }
  if (cfg_.controller) {
    // validate() guarantees sample_ms > 0 here, so sampler_ exists.
    controller_ = std::make_unique<obs::Controller>(
        obs::ControllerConfig{}, *decisions_, &events, &reg,
        [this](std::string_view name, double fallback) {
          return knobs_->snapshot()->get(name, fallback);
        },
        [this](std::string_view name, double requested) {
          const TuneResult r = knobs_->tune(name, requested);
          return obs::TuneOutcome{r.outcome, r.from, r.to, r.reason, r.generation};
        });
  }
  // The tick observer is a single slot: the controller first, then the
  // telemetry plane (SLO monitor, journal). validate() guarantees a
  // sampler whenever SLOs or the controller are configured.
  if (sampler_ != nullptr) {
    sampler_->set_tick_observer([this](const obs::Sample& s) {
      if (controller_ != nullptr) controller_->tick(s);
      telemetry_.observe(s);
    });
  }
  if (obs::Journal* journal = telemetry_.journal()) journal->start();

  if (sampler_ != nullptr) sampler_->start(std::chrono::milliseconds(cfg_.sample_ms));

  // Seed the flight recorder so a crash before the first IO completion
  // still leaves a (mostly empty) parseable document.
  refresh_flight(/*force=*/true);
}

void Crfs::define_knobs() {
  knobs_ = std::make_unique<KnobPlane>();

  // pool_chunks: grow/shrink the buffer pool by whole chunks, ceiling from
  // tune_pool_max (0 = 4x the mount-time pool). Shrinks are best-effort
  // over free chunks, so the apply reports what it actually achieved.
  const std::size_t pool_cap_bytes =
      cfg_.tune_pool_max != 0 ? cfg_.tune_pool_max : cfg_.pool_size * 4;
  const std::size_t pool_cap_chunks =
      std::max<std::size_t>(1, pool_cap_bytes / cfg_.chunk_size);
  knobs_->define(
      KnobDef{"pool_chunks", 1.0, static_cast<double>(pool_cap_chunks), "chunks"},
      static_cast<double>(cfg_.num_chunks()),
      [this](double v, double* achieved, std::string* reason) {
        const std::size_t got = pool_->resize(static_cast<std::size_t>(v));
        if (got != static_cast<std::size_t>(v)) {
          *achieved = static_cast<double>(got);
          *reason = "shrink bounded by free chunks";
        }
        return true;
      });

  // sample_ms: background sampler period, picked up on the next wakeup.
  knobs_->define(
      KnobDef{"sample_ms", 1.0, 10000.0, "ms"}, static_cast<double>(cfg_.sample_ms),
      [this](double v, double*, std::string* reason) {
        if (sampler_ == nullptr) {
          *reason = "sampler disabled (mount with sample_ms > 0)";
          return false;
        }
        sampler_->set_interval(std::chrono::milliseconds(static_cast<long long>(v)));
        return true;
      });

  // slow_pwrite_ms: the health rule's p99 threshold; 0 disables the rule.
  knobs_->define(
      KnobDef{"slow_pwrite_ms", 0.0, 100000.0, "ms"},
      static_cast<double>(cfg_.health.slow_pwrite_p99_ns) / 1e6,
      [this](double v, double*, std::string* reason) {
        if (health_ == nullptr) {
          *reason = "health monitor disabled (mount with sample_ms > 0)";
          return false;
        }
        health_->set_slow_pwrite_p99_ns(static_cast<std::uint64_t>(v * 1e6));
        return true;
      });

  // slow_capture_ms: the tail-latency exemplar threshold (durability lag
  // OR device time); 0 disables capture. Applied as one relaxed store.
  knobs_->define(
      KnobDef{"slow_capture_ms", 0.0, 100000.0, "ms"},
      static_cast<double>(cfg_.slow_capture_ms),
      [this](double v, double*, std::string*) {
        telemetry_.slow().set_threshold_ns(static_cast<std::uint64_t>(v) * 1'000'000);
        return true;
      });

  // epoch_gap_ms: the auto-rotation quiet window of the epoch tracker.
  knobs_->define(
      KnobDef{"epoch_gap_ms", 1.0, 600000.0, "ms"},
      static_cast<double>(cfg_.epoch_gap_ms),
      [this](double v, double*, std::string* reason) {
        if (epochs_ == nullptr) {
          *reason = "epoch tracking disabled (no_epochs)";
          return false;
        }
        epochs_->set_gap_ns(static_cast<std::uint64_t>(v) * 1'000'000);
        return true;
      });

  // readahead: restore-prefetch master switch. One relaxed store; an
  // in-progress scan sees the change on its next read (already-parked
  // prefetch slots still serve, then the window stops topping up).
  knobs_->define(
      KnobDef{"readahead", 0.0, 1.0, "bool"}, cfg_.readahead ? 1.0 : 0.0,
      [this](double v, double*, std::string*) {
        readahead_on_.store(v >= 0.5, std::memory_order_relaxed);
        return true;
      });

  // readahead_window: chunk reads kept ahead of each sequential restore
  // scan (free pool chunks still cap it). Floor 1 gives the
  // controller's shed_readahead rule a halving path that never hits 0.
  knobs_->define(
      KnobDef{"readahead_window", 1.0, 1024.0, "chunks"},
      static_cast<double>(cfg_.readahead_window),
      [this](double v, double*, std::string*) {
        readahead_window_.store(static_cast<unsigned>(v), std::memory_order_relaxed);
        return true;
      });

  // journal_fsync_ms: durability cadence of the telemetry journal; 0 means
  // fsync only on rotation and shutdown. Picked up on the next flush.
  knobs_->define(
      KnobDef{"journal_fsync_ms", 0.0, 600000.0, "ms"},
      static_cast<double>(cfg_.journal_fsync_ms),
      [this](double v, double*, std::string* reason) {
        if (telemetry_.journal() == nullptr) {
          *reason = "journal disabled (mount with journal=<dir>)";
          return false;
        }
        telemetry_.journal()->set_fsync_ms(static_cast<unsigned>(v));
        return true;
      });

  // drain_mbps: the tier's drain throttle toward the remote; 0 removes
  // the cap. One relaxed store, picked up by the next drain chunk. The
  // controller's shed_drain rule halves/restores this under remote
  // saturation. Vetoed on non-tiered mounts.
  knobs_->define(
      KnobDef{"drain_mbps", 0.0, 1e6, "MB/s"},
      tier_ != nullptr ? tier_->drain_mbps() : static_cast<double>(cfg_.drain_mbps),
      [this](double v, double*, std::string* reason) {
        if (tier_ == nullptr) {
          *reason = "tiered backend not mounted (stage=/remote=)";
          return false;
        }
        tier_->set_drain_mbps(v);
        return true;
      });

  // drain_parallel: helper threads splitting one drain unit's runs.
  // Picked up by the next unit drained.
  knobs_->define(
      KnobDef{"drain_parallel", 1.0, 64.0, "threads"},
      tier_ != nullptr ? static_cast<double>(tier_->drain_parallel())
                       : static_cast<double>(cfg_.drain_parallel),
      [this](double v, double*, std::string* reason) {
        if (tier_ == nullptr) {
          *reason = "tiered backend not mounted (stage=/remote=)";
          return false;
        }
        tier_->set_drain_parallel(static_cast<unsigned>(v));
        return true;
      });
}

Crfs::~Crfs() {
  // Stop the sampler first: its gauge callbacks read the pool/queue/IO
  // stages this destructor is about to tear down.
  if (sampler_ != nullptr) sampler_->stop();
  // Flush buffered data of any files the application failed to close, so
  // unmounting never silently drops bytes.
  for (const HandleState& state : handles_.snapshot()) drain(state.entry);
  // Destroy the IO pool first: drains the queue, joins workers.
  io_pool_.reset();
  // The read pipeline parks pool chunks in its prefetch slots; tear it
  // down (draining its in-flight reads) before the pool shuts down.
  readahead_.reset();
  pool_->shutdown();
  // All chunk writes have landed: the final epoch record sees complete
  // durable counts. A clean unmount leaves no postmortem file (the
  // recorder only dumps on signals/critical events/dump_postmortem).
  if (tier_ != nullptr) {
    // Finalize first: the seal listener makes the last epoch's unit
    // drain-eligible under its own id (flush() would seal it unlabelled).
    // Then drain to remote-durable and detach the drain listener: backend_
    // (and its drain thread) outlives the telemetry plane in member order.
    if (epochs_ != nullptr) epochs_->finalize_open(obs::now_ns());
    (void)tier_->flush();
    tier_->set_drain_listener(nullptr);
  }
  // Journal last: the finalized epoch and any trailing slow exemplars,
  // then flush+fsync the tail so the segments outlive us.
  telemetry_.finish(obs::now_ns());
}

Result<Crfs::FileHandle> Crfs::open(const std::string& path, OpenFlags flags) {
  // Epoch control file: writes carry "begin [label]" / "end" commands and
  // nothing reaches the backend. The dummy entry is detached (not in the
  // FileTable) so the handle machinery treats the slot as live.
  if (cfg_.epoch_tracking && path == cfg_.epoch_marker_path) {
    auto dummy = std::make_shared<FileEntry>(path, BackendFile{0});
    return handles_.insert(HandleState{std::move(dummy), flags.write, /*epoch_marker=*/true});
  }
  // Tune control file: same detached-dummy scheme, writes carry
  // "knob=value" commands for the knob plane.
  if (!cfg_.tune_marker_path.empty() && path == cfg_.tune_marker_path) {
    auto dummy = std::make_shared<FileEntry>(path, BackendFile{0});
    return handles_.insert(HandleState{std::move(dummy), flags.write,
                                       /*epoch_marker=*/false, /*tune_marker=*/true});
  }

  bool reopened = true;
  auto entry = table_.find_or_create(path, [&]() -> Result<std::shared_ptr<FileEntry>> {
    reopened = false;
    auto bf = backend_->open_file(path, flags);
    if (!bf.ok()) return bf.error();
    return std::make_shared<FileEntry>(path, bf.value());
  });
  if (!entry.ok()) return entry.error();
  if (reopened) {
    stats_.reopens.add(1);
    if (flags.truncate && flags.write) {
      // Truncating reopen: discard buffered data (the partial chunk goes
      // back to the pool) and truncate the backend.
      auto& e = *entry.value();
      {
        std::lock_guard agg(e.agg_mu);
        if (e.current != nullptr) pool_->release(std::move(e.current));
        e.size_seen.store(0, std::memory_order_relaxed);
        e.write_gen.fetch_add(1, std::memory_order_release);
      }
      const std::uint64_t target = e.write_chunks.load(std::memory_order_acquire);
      e.wait_for_completion(target);
      CRFS_RETURN_IF_ERROR(backend_->truncate(e.backend_file(), 0));
    }
  }

  // Epoch attribution is resolved once here (cold path) and cached on the
  // entry; write() and the IO workers never touch the tracker.
  if (epochs_ != nullptr && flags.write) {
    auto epoch = epochs_->on_open(path, obs::now_ns());
    std::lock_guard agg(entry.value()->agg_mu);
    entry.value()->epoch = std::move(epoch);
  }

  return handles_.insert(HandleState{entry.value(), flags.write});
}

Result<HandleState> Crfs::state_for(FileHandle handle) {
  auto state = handles_.get(handle);
  if (!state) return Error{EBADF, "unknown CRFS handle"};
  return std::move(*state);
}

std::uint64_t Crfs::flush_current_locked(const std::shared_ptr<FileEntry>& entry,
                                         bool partial) {
  if (entry->current != nullptr && !entry->current->empty()) {
    obs::TraceSpan span(trace_, "flush");
    auto chunk = std::move(entry->current);
    span.set_trace_id(chunk->trace_id());
    // Overwrite ordering, the one rule for every flush (full, partial,
    // stolen, fsync, close): a chunk that starts below the file's queued
    // high-water mark may overlap a chunk still queued or being written,
    // and two IO threads could write the pair in either order. So it
    // waits here until the file's outstanding chunks are durable. IO
    // threads never take agg_mu, so they drain those chunks while this
    // thread holds it. Sequential and sparse-forward streams never start
    // below the mark and never wait.
    if (chunk->file_offset() < entry->queued_end) {
      entry->wait_for_completion(entry->write_chunks.load(std::memory_order_acquire));
    }
    entry->queued_end = std::max(entry->queued_end, chunk->append_point());
    entry->write_chunks.fetch_add(1, std::memory_order_acq_rel);
    (partial ? stats_.partial_flushes : stats_.full_flushes).add(1);
    // Capture the epoch under agg_mu (the only lock that guards the
    // field); the IO threads attribute through the job's copy, never
    // through the entry.
    WriteJob job{entry, std::move(chunk), entry->epoch};
    if (job.epoch != nullptr) job.epoch->chunks.fetch_add(1, std::memory_order_relaxed);
    queue_.push(std::move(job));
  } else if (entry->current != nullptr) {
    // Empty chunk: just return it to the pool.
    pool_->release(std::move(entry->current));
  }
  return entry->write_chunks.load(std::memory_order_acquire);
}

Status Crfs::write(FileHandle handle, std::span<const std::byte> data, std::uint64_t offset) {
  auto state_result = state_for(handle);
  if (!state_result.ok()) return state_result.error();
  if (!state_result.value().writable) return Error{EBADF, "write on read-only handle"};
  if (state_result.value().epoch_marker) return handle_epoch_marker(data);
  if (state_result.value().tune_marker) return handle_tune_marker(data);
  const std::shared_ptr<FileEntry>& entry_sp = state_result.value().entry;
  FileEntry& entry = *entry_sp;

  const std::size_t nbytes = data.size();
  stats_.app_writes.add(1);
  stats_.app_bytes.add(nbytes);

  // Per-stage accounting: one clock pair for the whole call, plus slow-path
  // clocks inside acquire_chunk only when the pool actually blocks. The
  // difference is the aggregation (copy + enqueue) cost the paper attributes
  // to CRFS itself; the pool wait is backpressure from the backend.
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceSpan span(trace_, "write");
  std::uint64_t pool_wait_ns = 0;

  std::lock_guard agg(entry.agg_mu);

  // Large-write copy bypass (docs/PERFORMANCE.md): a chunk-size-or-larger
  // write at/past the file's high-water mark goes straight to the backend,
  // skipping the memcpy and the pool round-trip. Safe exactly because
  // size_seen is the max append point this file has ever reached (only
  // advanced under agg_mu): every buffered, queued, or in-flight chunk
  // lies entirely below it, so the direct write cannot race a chunk write
  // for the same byte range — ordering is irrelevant for disjoint ranges.
  // current == nullptr keeps the common partial-chunk stream on the
  // aggregation path (a parked chunk may end exactly at `offset`, and
  // flushing it here just to bypass would cost more than the memcpy).
  if (cfg_.large_write_bypass && nbytes >= cfg_.chunk_size && entry.current == nullptr &&
      offset >= entry.size_seen.load(std::memory_order_relaxed)) {
    const Status st = backend_->pwrite(entry.backend_file(), data, offset);
    const std::uint64_t t_done = obs::now_ns();
    h_pwrite_->record(t_done - t0);
    if (!st.ok()) {
      c_pwrite_errors_->add(1);
      if (entry.epoch != nullptr) {
        entry.epoch->io_errors.fetch_add(1, std::memory_order_relaxed);
      }
      // The app thread sees the failure synchronously — no sticky error
      // needed, nothing was buffered.
      return st;
    }
    c_pwrite_bytes_->add(nbytes);
    c_bypass_bytes_->add(nbytes);
    stats_.bypass_writes.add(1);
    if (entry.epoch != nullptr) {
      entry.epoch->app_writes.fetch_add(1, std::memory_order_relaxed);
      entry.epoch->bytes.fetch_add(nbytes, std::memory_order_relaxed);
      entry.epoch->backend_writes.fetch_add(1, std::memory_order_relaxed);
      // Durable immediately, with zero queue residency; note this counts
      // as one chunk-equivalent backend write, so epoch aggregation
      // ratios reflect that bypassed bytes were never aggregated.
      entry.epoch->record_chunk_durable(nbytes, t_done - t0, 0);
      // Critical path: the whole call was device time (direct pwrite).
      entry.epoch->device_ns.fetch_add(t_done - t0, std::memory_order_relaxed);
    }
    const std::uint64_t end = offset + nbytes;
    std::uint64_t seen = entry.size_seen.load(std::memory_order_relaxed);
    while (end > seen &&
           !entry.size_seen.compare_exchange_weak(seen, end, std::memory_order_relaxed)) {
    }
    entry.write_gen.fetch_add(1, std::memory_order_release);
    return {};
  }

  while (!data.empty()) {
    // Non-contiguous write: flush the current chunk and restart at the new
    // offset. Checkpoint streams are sequential so this is the cold path.
    if (entry.current != nullptr && entry.current->append_point() != offset) {
      flush_current_locked(entry_sp, /*partial=*/true);
    }
    if (entry.current == nullptr) {
      const std::uint64_t wait_before = pool_wait_ns;
      entry.current = acquire_chunk(entry, offset, &pool_wait_ns);
      if (entry.current == nullptr) return Error{EIO, "CRFS shutting down"};
      // Chunk-lifecycle ledger: birth = first copy-in. Reuses this call's
      // t0 instead of a fresh clock read; the IO pool derives durability
      // lag (copy-in -> pwrite-complete) from it.
      entry.current->set_born_ns(t0);
      // Causal chain: one relaxed fetch_add per chunk; the id rides the
      // chunk across the queue so the IO worker's spans stitch to this
      // call's. The stall is the wait THIS chunk's acquisition cost, so
      // the chunk's fill window (born -> enqueue) splits into stall+copy.
      const std::uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
      entry.current->set_trace_id(id);
      entry.current->set_stall_ns(pool_wait_ns - wait_before);
      span.set_trace_id(id);
    }
    const std::size_t consumed = entry.current->append(data);
    data = data.subspan(consumed);
    offset += consumed;
    if (entry.current->full()) {
      flush_current_locked(entry_sp, /*partial=*/false);
    }
  }

  const std::uint64_t elapsed = obs::now_ns() - t0;
  h_write_copy_->record(elapsed > pool_wait_ns ? elapsed - pool_wait_ns : 0);
  if (pool_wait_ns > 0) h_pool_wait_->record(pool_wait_ns);

  // Epoch attribution: three relaxed fetch_adds, still under agg_mu (the
  // lock that guards the epoch pointer itself).
  if (entry.epoch != nullptr) {
    entry.epoch->app_writes.fetch_add(1, std::memory_order_relaxed);
    entry.epoch->bytes.fetch_add(nbytes, std::memory_order_relaxed);
    if (pool_wait_ns > 0) {
      entry.epoch->pool_stall_ns.fetch_add(pool_wait_ns, std::memory_order_relaxed);
    }
    // Critical-path attribution: the same copy-stage quantity the
    // crfs.write.copy_ns histogram records, charged to the epoch.
    entry.epoch->copy_ns.fetch_add(elapsed > pool_wait_ns ? elapsed - pool_wait_ns : 0,
                                   std::memory_order_relaxed);
  }

  // Track the furthest byte written for getattr on still-buffered files.
  std::uint64_t seen = entry.size_seen.load(std::memory_order_relaxed);
  while (offset > seen &&
         !entry.size_seen.compare_exchange_weak(seen, offset, std::memory_order_relaxed)) {
  }
  // Invalidate any read-side prefetch cache for this file (still under
  // agg_mu, the lock that orders writes).
  entry.write_gen.fetch_add(1, std::memory_order_release);
  return {};
}

std::unique_ptr<Chunk> Crfs::acquire_chunk(FileEntry& entry, std::uint64_t offset,
                                           std::uint64_t* wait_ns) {
  // Fast path: a chunk is free, or becomes free quickly (IO threads never
  // take agg_mu, so they keep draining while we hold this entry's lock).
  if (auto chunk = pool_->try_acquire(offset)) return chunk;

  // Slow path only from here on: clocks and spans are off the fast path.
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceSpan span(trace_, "pool_wait");
  for (;;) {
    // Normal backpressure first: IO threads are draining, a chunk will
    // come back. Only when the whole pipeline is PROVABLY idle — nothing
    // queued, nothing being written — can every chunk be parked as some
    // other file's partial current chunk, which would deadlock.
    if (auto chunk = pool_->acquire_for(offset, std::chrono::milliseconds(10))) {
      *wait_ns += obs::now_ns() - t0;
      return chunk;
    }
    if (pool_->is_shutdown()) {
      *wait_ns += obs::now_ns() - t0;
      return nullptr;
    }
    if (pool_->free_chunks() == 0 && queue_.depth() == 0 && io_pool_->in_flight() == 0) {
      // Exhaustion rescue: flush the fullest parked partial to the work
      // queue ("steal"). try_lock keeps this deadlock-free: two writers
      // can never wait on each other's agg_mu.
      std::shared_ptr<FileEntry> victim;
      std::size_t victim_fill = 0;
      for (const auto& other : table_.snapshot()) {
        if (other.get() == &entry) continue;
        std::unique_lock other_lock(other->agg_mu, std::try_to_lock);
        if (!other_lock.owns_lock()) continue;
        if (other->current != nullptr && other->current->fill() > victim_fill) {
          victim = other;
          victim_fill = other->current->fill();
        }
      }
      if (victim != nullptr) {
        std::unique_lock victim_lock(victim->agg_mu, std::try_to_lock);
        if (victim_lock.owns_lock() && victim->current != nullptr &&
            !victim->current->empty()) {
          flush_current_locked(victim, /*partial=*/true);
          stats_.chunk_steals.add(1);
        }
      }
    }
  }
}

void Crfs::drain(const std::shared_ptr<FileEntry>& entry) {
  std::uint64_t target;
  std::shared_ptr<obs::EpochState> epoch;
  {
    std::lock_guard agg(entry->agg_mu);
    target = flush_current_locked(entry, /*partial=*/true);
    epoch = entry->epoch;  // captured under the lock that guards it
  }
  // Drain wait: how long close()/fsync() block on the pipeline emptying —
  // the paper's §IV-C reconciliation of write vs. complete chunk counts.
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceSpan span(trace_, "drain");
  if (trace_.enabled()) span.set_tag(trace_.intern(entry->path()));
  entry->wait_for_completion(target);
  const std::uint64_t waited = obs::now_ns() - t0;
  h_drain_wait_->record(waited);
  // Critical path: the fsync/close barrier. NOTE this overlaps the
  // background stages (queue/submit/device run while we wait), so it is
  // reported beside, not summed into, the chunk-lifetime decomposition.
  if (epoch != nullptr && waited > 0) {
    epoch->barrier_ns.fetch_add(waited, std::memory_order_relaxed);
  }
}

Result<std::size_t> Crfs::read(FileHandle handle, std::span<std::byte> data,
                               std::uint64_t offset) {
  auto state_result = state_for(handle);
  if (!state_result.ok()) return state_result.error();
  if (state_result.value().epoch_marker || state_result.value().tune_marker) {
    return std::size_t{0};  // control files read as empty
  }
  const std::shared_ptr<FileEntry>& entry_sp = state_result.value().entry;
  FileEntry& entry = *entry_sp;

  if (cfg_.flush_before_read) {
    // Barrier THIS file's pending chunks only: flush the dirty current
    // chunk (if any), then wait until everything already handed to the
    // work queue for this file is durable. A clean file — nothing
    // buffered, nothing in flight — short-circuits with two atomic loads;
    // other files' traffic is never waited on.
    std::uint64_t target;
    std::shared_ptr<obs::EpochState> epoch;
    {
      std::lock_guard agg(entry.agg_mu);
      if (entry.current != nullptr && !entry.current->empty()) {
        target = flush_current_locked(entry_sp, /*partial=*/true);
      } else {
        target = entry.write_chunks.load(std::memory_order_acquire);
      }
      epoch = entry.epoch;
    }
    if (entry.complete_chunks.load(std::memory_order_acquire) < target) {
      const std::uint64_t t0 = obs::now_ns();
      obs::TraceSpan span(trace_, "read_barrier");
      entry.wait_for_completion(target);
      const std::uint64_t waited = obs::now_ns() - t0;
      h_drain_wait_->record(waited);
      if (epoch != nullptr && waited > 0) {
        epoch->barrier_ns.fetch_add(waited, std::memory_order_relaxed);
      }
    }
  }

  // Readahead counts the call and its bytes (crfs.read.ops/bytes, which
  // MountStats::reads/read_bytes read).
  return readahead_->read(entry_sp, data, offset,
                          readahead_on_.load(std::memory_order_relaxed),
                          readahead_window_.load(std::memory_order_relaxed));
}

Status Crfs::fsync(FileHandle handle) {
  auto state_result = state_for(handle);
  if (!state_result.ok()) return state_result.error();
  if (state_result.value().epoch_marker || state_result.value().tune_marker) {
    return {};  // nothing buffered, no backend
  }
  const std::shared_ptr<FileEntry>& entry_sp = state_result.value().entry;

  drain(entry_sp);
  if (auto err = entry_sp->take_error()) return *err;
  return backend_->fsync(entry_sp->backend_file());
}

Status Crfs::close(FileHandle handle) {
  auto removed = handles_.remove(handle);
  if (!removed) return Error{EBADF, "close: unknown CRFS handle"};
  if (removed->epoch_marker || removed->tune_marker) {
    return {};  // control file: nothing to flush
  }
  std::shared_ptr<FileEntry> entry = std::move(removed->entry);

  // Paper §IV-C: enqueue remaining data, then block until the complete
  // chunk count equals the write chunk count.
  drain(entry);

  // The epoch's open/close correlation window advances only after the
  // drain: a "closed" file has all its chunks enqueued (durability still
  // trails via the in-flight WriteJobs' epoch pointers).
  if (epochs_ != nullptr && removed->writable) {
    epochs_->on_close(entry->path(), obs::now_ns());
  }

  Status result;
  if (auto err = entry->take_error()) result = *err;

  if (auto last = table_.release(entry->path())) {
    // Final close: drop the read-side prefetch cache (finalizing the
    // restore-ledger row).
    readahead_->evict(last.get());
    const Status close_status = backend_->close_file(last->backend_file());
    if (result.ok() && !close_status.ok()) result = close_status;
  }
  return result;
}

Result<BackendStat> Crfs::getattr(const std::string& path) {
  auto st = backend_->stat(path);
  if (!st.ok()) return st;
  // A still-open file may have bytes buffered in its current chunk or in
  // flight in the work queue; report the logical size the app produced.
  if (auto entry = table_.find(path)) {
    const std::uint64_t seen = entry->size_seen.load(std::memory_order_relaxed);
    if (seen > st.value().size) st.value().size = seen;
  }
  return st;
}

Status Crfs::mkdir(const std::string& path) { return backend_->mkdir(path); }
Status Crfs::rmdir(const std::string& path) { return backend_->rmdir(path); }
Status Crfs::unlink(const std::string& path) { return backend_->unlink(path); }

Status Crfs::rename(const std::string& from, const std::string& to) {
  // Flush buffered data so the renamed file is complete under its new name.
  if (auto entry = table_.find(from)) drain(entry);
  return backend_->rename(from, to);
}

Result<std::vector<std::string>> Crfs::list_dir(const std::string& path) {
  return backend_->list_dir(path);
}

std::string Crfs::stats_report() const {
  const MountStats::Snapshot s = stats_.snapshot();
  std::string out = "CRFS pipeline stats (" + cfg_.describe() +
                    ", engine=" + active_io_engine() + ")\n";
  TextTable mount({"Mount counter", "Value"});
  mount.add_row({"app_writes", std::to_string(s.app_writes)});
  mount.add_row({"app_bytes", std::to_string(s.app_bytes)});
  mount.add_row({"full_flushes", std::to_string(s.full_flushes)});
  mount.add_row({"partial_flushes", std::to_string(s.partial_flushes)});
  mount.add_row({"reopens", std::to_string(s.reopens)});
  mount.add_row({"chunk_steals", std::to_string(s.chunk_steals)});
  mount.add_row({"bypass_writes", std::to_string(s.bypass_writes)});
  mount.add_row({"reads", std::to_string(s.reads)});
  mount.add_row({"read_bytes", std::to_string(s.read_bytes)});
  out += mount.render();
  out += "\n";
  out += metrics().snapshot().render_table();
  if (tier_ != nullptr) {
    const TierStats t = tier_->tier_stats();
    TextTable tt({"Tier", "Value"});
    tt.add_row({"stage_used", std::to_string(t.stage_used)});
    tt.add_row({"stage_cap", std::to_string(t.stage_cap)});
    tt.add_row({"staged_bytes", std::to_string(t.staged_bytes)});
    tt.add_row({"drained_bytes", std::to_string(t.drained_bytes)});
    tt.add_row({"spill_bytes", std::to_string(t.spill_bytes)});
    tt.add_row({"pending_units", std::to_string(t.pending_units)});
    tt.add_row({"units_evicted", std::to_string(t.units_evicted)});
    tt.add_row({"stalls", std::to_string(t.stalls)});
    tt.add_row({"retries", std::to_string(t.retries)});
    char num[64];
    std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(t.drain_lag_ns) / 1e6);
    tt.add_row({"drain_lag_ms", num});
    out += "\n";
    out += tt.render();
  }
  if (epochs_ != nullptr) {
    auto recs = epochs_->records();
    if (auto open = epochs_->open_epoch(obs::now_ns())) recs.push_back(*open);
    if (!recs.empty()) {
      TextTable ep({"Epoch", "Label", "Files", "Bytes", "Chunks", "Agg ratio",
                    "BW (MiB/s)", "Lag max (ms)", "Drained", "Drain BW", "State"});
      char num[64];
      for (const auto& r : recs) {
        std::snprintf(num, sizeof(num), "%.2f", r.aggregation_ratio());
        std::string agg = num;
        std::snprintf(num, sizeof(num), "%.1f", r.effective_bw() / (1024.0 * 1024.0));
        std::string bw = num;
        std::snprintf(num, sizeof(num), "%.3f",
                      static_cast<double>(r.durability_lag_max_ns) / 1e6);
        std::string lag = num;
        std::snprintf(num, sizeof(num), "%.1f", r.drain_bw() / (1024.0 * 1024.0));
        ep.add_row({std::to_string(r.id), r.label, std::to_string(r.files),
                    std::to_string(r.bytes), std::to_string(r.chunks), agg, bw, lag,
                    std::to_string(r.drained_bytes), num,
                    r.open ? "open" : "done"});
      }
      out += "\n";
      out += ep.render();
    }
  }
  const auto restores = readahead_->ledger_snapshot();
  if (!restores.empty()) {
    TextTable rt({"Restore", "Bytes", "Ops", "Issued", "Hits", "Wasted", "Sync",
                  "TTFB (ms)", "BW (MiB/s)", "State"});
    char num[64];
    for (const auto& r : restores) {
      std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(r.ttfb_ns) / 1e6);
      std::string ttfb = num;
      const std::uint64_t span_ns =
          r.last_read_ns > r.first_read_ns ? r.last_read_ns - r.first_read_ns : 0;
      const double bw = span_ns > 0
                            ? static_cast<double>(r.bytes) * 1e9 /
                                  (static_cast<double>(span_ns) * 1024.0 * 1024.0)
                            : 0.0;
      std::snprintf(num, sizeof(num), "%.1f", bw);
      rt.add_row({r.path, std::to_string(r.bytes), std::to_string(r.ops),
                  std::to_string(r.prefetch_issued), std::to_string(r.prefetch_hits),
                  std::to_string(r.prefetch_wasted), std::to_string(r.sync_preads), ttfb,
                  num, r.active ? "open" : "done"});
    }
    out += "\n";
    out += rt.render();
  }
  const auto events = telemetry_.events().snapshot();
  if (!events.empty()) {
    TextTable ev({"Severity", "Rule", "Detail"});
    for (const auto& e : events) {
      ev.add_row({obs::severity_name(e.severity), e.rule, e.message});
    }
    out += "\n";
    out += ev.render();
  }
  return out;
}

std::string Crfs::shared_sections_json(std::uint64_t now) const {
  const MountStats::Snapshot s = stats_.snapshot();
  // schema_version counts breaking shape changes of stats_json and the
  // postmortem: 2 = control plane, 3 = durable journal + SLO burn rates.
  std::string out = "\"schema_version\":3,\"mount\":{";
  out += "\"app_writes\":" + std::to_string(s.app_writes);
  out += ",\"app_bytes\":" + std::to_string(s.app_bytes);
  out += ",\"full_flushes\":" + std::to_string(s.full_flushes);
  out += ",\"partial_flushes\":" + std::to_string(s.partial_flushes);
  out += ",\"reopens\":" + std::to_string(s.reopens);
  out += ",\"chunk_steals\":" + std::to_string(s.chunk_steals);
  out += ",\"bypass_writes\":" + std::to_string(s.bypass_writes);
  out += ",\"reads\":" + std::to_string(s.reads);
  out += ",\"read_bytes\":" + std::to_string(s.read_bytes);
  // The engine keys keep the document's shape; there is one engine.
  out += ",\"io_engine\":\"sync\",\"io_engine_requested\":\"sync\",\"read_engine\":\"sync\"";
  out += "},\"pipeline\":" + metrics().snapshot().to_json();
  out += ",\"events\":" + obs::events_to_json(telemetry_.events().snapshot());
  out += ",\"slow\":" + slow_json();
  out += ",\"epoch_open\":";
  if (epochs_ != nullptr) {
    const auto open = epochs_->open_epoch(now);
    out += open.has_value() ? open->to_json() : std::string("null");
    out += ",\"epochs\":" + obs::epochs_to_json(epochs_->records());
    out += ",\"epochs_completed\":" + std::to_string(epochs_->total_finalized());
  } else {
    out += "null,\"epochs\":[],\"epochs_completed\":0";
  }
  out += ",\"controller\":" + controller_json();
  out += ",\"journal\":" + journal_json();
  out += ",\"slo\":" + slo_json();
  out += ",\"tier\":" + tier_json();
  if (sampler_ != nullptr) {
    out += ",\"samples_taken\":" + std::to_string(sampler_->samples_taken());
  }
  return out;
}

std::string Crfs::stats_json() const {
  std::string out = "{" + shared_sections_json(obs::now_ns());
  out += ",\"restores\":[";
  bool first = true;
  for (const auto& r : readahead_->ledger_snapshot()) {
    if (!first) out += ",";
    first = false;
    out += "{\"path\":";
    obs::append_json_string(out, r.path);
    out += ",\"bytes\":" + std::to_string(r.bytes);
    out += ",\"ops\":" + std::to_string(r.ops);
    out += ",\"prefetch_issued\":" + std::to_string(r.prefetch_issued);
    out += ",\"prefetch_hits\":" + std::to_string(r.prefetch_hits);
    out += ",\"prefetch_wasted\":" + std::to_string(r.prefetch_wasted);
    out += ",\"sync_preads\":" + std::to_string(r.sync_preads);
    out += ",\"ttfb_ns\":" + std::to_string(r.ttfb_ns);
    out += ",\"first_read_ns\":" + std::to_string(r.first_read_ns);
    out += ",\"last_read_ns\":" + std::to_string(r.last_read_ns);
    out += ",\"active\":";
    out += r.active ? "true" : "false";
    out += "}";
  }
  out += "]}";
  return out;
}

// -- Checkpoint epochs ------------------------------------------------------

Status Crfs::epoch_begin(const std::string& label) {
  if (epochs_ == nullptr) return Error{EINVAL, "epoch tracking disabled (no_epochs)"};
  epochs_->begin(label, obs::now_ns());
  refresh_flight(/*force=*/true);
  return {};
}

Status Crfs::epoch_end() {
  if (epochs_ == nullptr) return Error{EINVAL, "epoch tracking disabled (no_epochs)"};
  epochs_->end(obs::now_ns());
  refresh_flight(/*force=*/true);
  return {};
}

std::vector<obs::EpochRecord> Crfs::epochs() const {
  if (epochs_ == nullptr) return {};
  return epochs_->records();
}

std::optional<obs::EpochRecord> Crfs::open_epoch() const {
  if (epochs_ == nullptr) return std::nullopt;
  return epochs_->open_epoch(obs::now_ns());
}

Status Crfs::handle_epoch_marker(std::span<const std::byte> data) {
  std::string cmd(reinterpret_cast<const char*>(data.data()), data.size());
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!cmd.empty() && is_space(cmd.front())) cmd.erase(cmd.begin());
  while (!cmd.empty() && is_space(cmd.back())) cmd.pop_back();

  if (cmd == "end") return epoch_end();
  if (cmd == "begin") return epoch_begin("");
  if (cmd.rfind("begin", 0) == 0 && cmd.size() > 5 && is_space(cmd[5])) {
    std::string label = cmd.substr(6);
    while (!label.empty() && is_space(label.front())) label.erase(label.begin());
    return epoch_begin(label);
  }
  return Error{EINVAL, "epoch marker: expected \"begin [label]\" or \"end\", got \"" + cmd + "\""};
}

// -- Control plane ----------------------------------------------------------

obs::CtlDecision Crfs::tune(std::string_view knob, double value, std::string source) {
  const TuneResult r = knobs_->tune(knob, value);
  obs::CtlDecision d;
  d.ts_ns = obs::now_ns();
  d.source = std::move(source);
  d.rule = "tune";
  d.knob = r.knob;
  d.requested = r.requested;
  d.from = r.from;
  d.to = r.to;
  d.outcome = r.outcome;
  d.reason = r.reason;
  d.generation = r.generation;
  d.seq = decisions_->record(d);
  return d;
}

Status Crfs::handle_tune_marker(std::span<const std::byte> data) {
  const std::string text(reinterpret_cast<const char*>(data.data()), data.size());
  const auto is_sep = [](unsigned char c) { return std::isspace(c) != 0 || c == ','; };
  std::size_t i = 0;
  bool any = false;
  while (i < text.size()) {
    while (i < text.size() && is_sep(text[i])) ++i;
    std::size_t j = i;
    while (j < text.size() && !is_sep(text[j])) ++j;
    if (j > i) {
      const std::string token = text.substr(i, j - i);
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        return Error{EINVAL, "tune marker: expected knob=value, got \"" + token + "\""};
      }
      const std::string value_str = token.substr(eq + 1);
      char* end = nullptr;
      const double value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str() || *end != '\0') {
        return Error{EINVAL, "tune marker: bad value in \"" + token + "\""};
      }
      // Vetoes (unknown knob, apply refusal) fail the write with the
      // offending token; clamps succeed — the audit trail carries the
      // clamp detail either way.
      const obs::CtlDecision d = tune(token.substr(0, eq), value, "ctlfile");
      if (!d.outcome.empty() && d.outcome == "vetoed") {
        return Error{EINVAL, "tune marker: \"" + token + "\": " + d.reason};
      }
      any = true;
    }
    i = j;
  }
  if (!any) return Error{EINVAL, "tune marker: expected knob=value, got empty command"};
  return {};
}

std::string Crfs::controller_json() const {
  std::string out = "{\"enabled\":";
  out += controller_ != nullptr ? "true" : "false";
  out += ",\"generation\":" + std::to_string(knobs_->generation());
  out += ",\"ticks\":" + std::to_string(controller_ != nullptr ? controller_->ticks() : 0);
  out += ",\"knob_plane\":" + knobs_->to_json();
  out += ",\"decisions\":" + decisions_->to_json();
  out += ",\"decisions_total\":" + std::to_string(decisions_->total());
  out += "}";
  return out;
}

// -- Flight recorder --------------------------------------------------------

void Crfs::refresh_flight(bool force) {
  if (flight_ == nullptr) return;
  const std::uint64_t now = obs::now_ns();
  if (force) {
    last_flight_refresh_ns_.store(now, std::memory_order_relaxed);
  } else {
    // CAS-throttled: at most one render per postmortem_refresh_ms across
    // all IO threads; losers skip instead of queueing on the render.
    const std::uint64_t interval =
        static_cast<std::uint64_t>(cfg_.postmortem_refresh_ms) * 1'000'000;
    std::uint64_t last = last_flight_refresh_ns_.load(std::memory_order_relaxed);
    if (now < last + interval) return;
    if (!last_flight_refresh_ns_.compare_exchange_strong(last, now,
                                                         std::memory_order_relaxed)) {
      return;
    }
  }
  flight_->refresh(render_postmortem());
}

std::string Crfs::render_postmortem() const {
  const std::uint64_t now = obs::now_ns();
  std::string out = "{\"crfs_postmortem\":1";
  out += ",\"rendered_ns\":" + std::to_string(now);
  out += ",\"config\":";
  obs::append_json_string(out, cfg_.describe());
  out += "," + shared_sections_json(now);

  // Bounded trace tail: the last pipeline spans before the crash. Kept
  // small so the document fits the recorder's reserved buffer even with
  // large trace rings.
  constexpr std::size_t kTraceTail = 64;
  auto spans = trace_.snapshot();
  const std::size_t first = spans.size() > kTraceTail ? spans.size() - kTraceTail : 0;
  out += ",\"trace_tail\":[";
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (i > first) out += ",";
    out += "{\"name\":";
    obs::append_json_string(out, spans[i].name);
    out += ",\"tid\":" + std::to_string(spans[i].tid);
    out += ",\"ts_ns\":" + std::to_string(spans[i].ts_ns);
    out += ",\"dur_ns\":" + std::to_string(spans[i].dur_ns);
    out += ",\"trace_id\":" + std::to_string(spans[i].trace_id) + "}";
  }
  out += "]}";
  return out;
}

Status Crfs::dump_postmortem() {
  if (flight_ == nullptr) {
    return Error{EINVAL, "no flight recorder (set Config::postmortem_path)"};
  }
  refresh_flight(/*force=*/true);
  if (!flight_->dump_now()) {
    return Error{EIO, "postmortem dump to " + flight_->path() + " failed"};
  }
  return {};
}

Status Crfs::export_trace(const std::string& path) const {
  return obs::write_chrome_trace(path, trace_.snapshot());
}

Status Crfs::truncate(const std::string& path, std::uint64_t size) {
  auto entry = table_.find(path);
  if (entry != nullptr) {
    drain(entry);
    {
      std::lock_guard agg(entry->agg_mu);
      entry->size_seen.store(size, std::memory_order_relaxed);
      entry->write_gen.fetch_add(1, std::memory_order_release);
    }
    return backend_->truncate(entry->backend_file(), size);
  }
  // Not open: go through a temporary backend handle.
  auto bf = backend_->open_file(path, OpenFlags{.create = false, .truncate = false, .write = true});
  if (!bf.ok()) return bf.error();
  const Status st = backend_->truncate(bf.value(), size);
  const Status cl = backend_->close_file(bf.value());
  return st.ok() ? cl : st;
}

}  // namespace crfs
