#include "crfs/telemetry.h"

#include <algorithm>

#include "obs/json_lite.h"

namespace crfs {

Telemetry::Telemetry(const Config& cfg, const Clock& clock)
    : events_(cfg.event_capacity),
      slow_(cfg.slow_exemplars, static_cast<std::uint64_t>(cfg.slow_capture_ms) * 1'000'000) {
  if (cfg.epoch_tracking) {
    epochs_ = std::make_unique<obs::EpochTracker>(
        obs::EpochTracker::Options{
            .gap_ns = static_cast<std::uint64_t>(cfg.epoch_gap_ms) * 1'000'000,
            .ledger_capacity = cfg.epoch_ledger},
        &registry_);
  }
  if (!cfg.journal_dir.empty()) {
    journal_ = std::make_unique<obs::Journal>(
        obs::JournalOptions{.dir = cfg.journal_dir,
                            .segment_bytes = cfg.journal_segment_bytes,
                            .max_bytes = cfg.journal_max_bytes,
                            .flush_ms = cfg.journal_flush_ms,
                            .fsync_ms = cfg.journal_fsync_ms},
        &registry_);
    // Head of every segment: the mount, the sampling cadence and (when
    // set) the SLO targets — enough for an offline `crfsctl slo` replay to
    // rebuild the monitor after the process dies.
    std::string meta = "{\"crfs_journal\":1,\"config\":";
    obs::append_json_string(meta, cfg.describe());
    meta += ",\"sample_ms\":" + std::to_string(cfg.sample_ms);
    meta += ",\"slo\":";
    meta += cfg.slo_enabled() ? cfg.slo_config().to_json() : std::string("null");
    meta += "}";
    journal_->set_meta(meta, clock());
    on_event(nullptr);  // journal every event
  }
  if (cfg.slo_enabled()) {
    slo_ = std::make_unique<obs::SloMonitor>(cfg.slo_config(), &registry_, &events_);
  }
}

std::string Telemetry::journal_json() const {
  return journal_ != nullptr ? journal_->to_json() : "{\"enabled\":false}";
}

std::string Telemetry::slo_json() const {
  return slo_ != nullptr ? slo_->to_json() : "{\"enabled\":false}";
}

void Telemetry::on_event(std::function<void(const obs::Event&)> fn) {
  events_.set_listener([this, fn = std::move(fn)](const obs::Event& ev) {
    if (journal_ != nullptr) journal_->append(obs::FrameType::kEvent, ev.ts_ns, ev.to_json());
    if (fn) fn(ev);
  });
}

void Telemetry::observe(const obs::Sample& s) {
  if (journal_ == nullptr && slo_ == nullptr) return;
  const obs::SloInput in = slo_extract_.extract(s);
  if (slo_ != nullptr) slo_->observe(in);
  if (journal_ != nullptr) {
    journal_->append(obs::FrameType::kSample, s.ts_ns, obs::journal_sample_json(s, in));
    journal_cold_sinks();
  }
}

void Telemetry::finish(std::uint64_t now_ns) {
  if (epochs_ != nullptr) epochs_->finalize_open(now_ns);
  if (journal_ == nullptr) return;
  journal_cold_sinks();
  journal_->flush(now_ns, /*force_fsync=*/true);
}

void Telemetry::journal_cold_sinks() {
  // Epoch records and slow exemplars are pull-model stores with no change
  // hooks; journal whatever finished since the last call. Monotonic totals
  // guard against ring eviction: records()/snapshot() only hold the most
  // recent N, so index from the tail by how many are still owed.
  if (epochs_ != nullptr) {
    const std::uint64_t total = epochs_->total_finalized();
    if (total > journaled_epochs_) {
      const auto recs = epochs_->records();
      const std::size_t owed =
          static_cast<std::size_t>(std::min<std::uint64_t>(total - journaled_epochs_, recs.size()));
      for (std::size_t i = recs.size() - owed; i < recs.size(); ++i) {
        journal_->append(obs::FrameType::kEpoch, recs[i].end_ns, recs[i].to_json());
      }
      journaled_epochs_ = total;
    }
  }
  const std::uint64_t captured = slow_.captured();
  if (captured > journaled_slow_) {
    const auto exemplars = slow_.snapshot();
    const std::size_t owed = static_cast<std::size_t>(
        std::min<std::uint64_t>(captured - journaled_slow_, exemplars.size()));
    for (std::size_t i = exemplars.size() - owed; i < exemplars.size(); ++i) {
      journal_->append(obs::FrameType::kSlow, exemplars[i].durable_ns, exemplars[i].to_json());
    }
    journaled_slow_ = captured;
  }
}

}  // namespace crfs
