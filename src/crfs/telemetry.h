// Telemetry: the telemetry plane one CRFS pipeline owns — shared as-is by
// the real mount (Crfs) and the DES node (sim::CrfsSimNode).
//
// Built from a Config plus a clock, it holds the registry, the event
// buffer, the slow-exemplar store, the epoch tracker, the durable journal
// (with its meta frame) and the SLO monitor, and it is the only place that
// moves their records into the journal. The owners differ only in the
// clock they pass and in who drives journal flushes: the mount starts the
// journal's flusher thread (Journal::start), the DES calls Journal::tick
// from its virtual-time sample loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "crfs/config.h"
#include "obs/epoch.h"
#include "obs/health.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/slow_store.h"

namespace crfs {

class Telemetry {
 public:
  /// Nanosecond clock: obs::now_ns for the mount, virtual time for the DES.
  using Clock = std::function<std::uint64_t()>;

  /// Journal and SLO monitor exist only when Config::journal_dir / an slo_*
  /// target is set; the epoch tracker only with Config::epoch_tracking.
  /// The journal's meta frame is written here, stamped with `clock()`.
  Telemetry(const Config& cfg, const Clock& clock);

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  obs::EventBuffer& events() { return events_; }
  const obs::EventBuffer& events() const { return events_; }
  obs::SlowStore& slow() { return slow_; }
  const obs::SlowStore& slow() const { return slow_; }
  obs::EpochTracker* epochs() { return epochs_.get(); }
  obs::Journal* journal() { return journal_.get(); }
  const obs::Journal* journal() const { return journal_.get(); }
  obs::SloMonitor* slo() { return slo_.get(); }
  const obs::SloMonitor* slo() const { return slo_.get(); }

  /// The stats_json "journal" / "slo" sections ({"enabled":false} when off).
  std::string journal_json() const;
  std::string slo_json() const;

  /// Runs `fn` on every event after the journal has recorded it (the
  /// event listener is a single slot; install before any pusher runs).
  void on_event(std::function<void(const obs::Event&)> fn);

  /// One sampler tick: SLO observation, the journal's sample frame, then
  /// every epoch record and slow exemplar finished since the last call.
  /// Single driver (the sampler thread or the DES sample loop).
  void observe(const obs::Sample& s);

  /// Unmount: finalizes the open epoch, journals what is still owed, then
  /// flushes and fsyncs the journal at `now_ns`.
  void finish(std::uint64_t now_ns);

 private:
  void journal_cold_sinks();

  obs::Registry registry_;
  obs::EventBuffer events_;
  obs::SlowStore slow_;
  std::unique_ptr<obs::EpochTracker> epochs_;
  std::unique_ptr<obs::Journal> journal_;
  std::unique_ptr<obs::SloMonitor> slo_;
  // Turns each Sample into the SloInput both the monitor and the journal's
  // sample frames consume.
  obs::SloExtractor slo_extract_;
  // High-water marks of what journal_cold_sinks already persisted.
  std::uint64_t journaled_epochs_ = 0;
  std::uint64_t journaled_slow_ = 0;
};

}  // namespace crfs
