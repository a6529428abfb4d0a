#include "crfs/mount_options.h"

#include <cerrno>
#include <charconv>

namespace crfs {
namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

}  // namespace

Result<MountOptions> parse_mount_options(std::string_view text) {
  MountOptions out;

  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = trim(text.substr(pos, comma - pos));
    pos = comma + 1;
    if (item.empty()) {
      if (comma == text.size()) break;
      continue;
    }

    const std::size_t eq = item.find('=');
    const std::string_view key = eq == std::string_view::npos ? item : item.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{} : item.substr(eq + 1);

    auto need_size = [&](std::size_t& dest) -> Status {
      const auto parsed = parse_bytes(value);
      if (!parsed) {
        return Error{EINVAL, "bad size for option '" + std::string(key) + "': '" +
                                 std::string(value) + "'"};
      }
      dest = static_cast<std::size_t>(*parsed);
      return {};
    };

    if (key == "chunk") {
      CRFS_RETURN_IF_ERROR(need_size(out.config.chunk_size));
    } else if (key == "pool") {
      CRFS_RETURN_IF_ERROR(need_size(out.config.pool_size));
    } else if (key == "threads") {
      unsigned threads = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, threads);
      if (ec != std::errc{} || ptr != end || threads == 0) {
        return Error{EINVAL, "bad thread count: '" + std::string(value) + "'"};
      }
      out.config.io_threads = threads;
    } else if (key == "pool_shards") {
      std::size_t shards = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, shards);
      if (ec != std::errc{} || ptr != end) {
        return Error{EINVAL, "bad shard count: '" + std::string(value) + "'"};
      }
      out.config.pool_shards = shards;  // 0 = auto
    } else if (key == "bypass") {
      out.config.large_write_bypass = true;
    } else if (key == "no_bypass") {
      out.config.large_write_bypass = false;
    } else if (key == "readahead") {
      out.config.readahead = true;
    } else if (key == "no_readahead") {
      out.config.readahead = false;
    } else if (key == "readahead_window") {
      unsigned window = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, window);
      if (ec != std::errc{} || ptr != end || window == 0) {
        return Error{EINVAL, "bad readahead_window: '" + std::string(value) + "'"};
      }
      out.config.readahead_window = window;
    } else if (key == "epoch_gap_ms" || key == "epoch_ledger") {
      unsigned parsed = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc{} || ptr != end) {
        return Error{EINVAL, "bad value for option '" + std::string(key) + "': '" +
                                 std::string(value) + "'"};
      }
      if (key == "epoch_gap_ms") {
        out.config.epoch_gap_ms = parsed;
      } else {
        out.config.epoch_ledger = parsed;
      }
    } else if (key == "epochs") {
      out.config.epoch_tracking = true;
    } else if (key == "no_epochs") {
      out.config.epoch_tracking = false;
    } else if (key == "postmortem") {
      if (value.empty()) {
        return Error{EINVAL, "postmortem= needs a file path"};
      }
      out.config.postmortem_path = std::string(value);
    } else if (key == "postmortem_refresh_ms") {
      unsigned parsed = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc{} || ptr != end) {
        return Error{EINVAL, "bad value for option '" + std::string(key) + "': '" +
                                 std::string(value) + "'"};
      }
      out.config.postmortem_refresh_ms = parsed;
    } else if (key == "controller") {
      if (value.empty() || value == "on") {
        out.config.controller = true;
      } else if (value == "off") {
        out.config.controller = false;
      } else {
        return Error{EINVAL, "bad controller (want on|off): '" + std::string(value) + "'"};
      }
    } else if (key == "no_controller") {
      out.config.controller = false;
    } else if (key == "tune_pool_max") {
      CRFS_RETURN_IF_ERROR(need_size(out.config.tune_pool_max));
    } else if (key == "sample_ms" || key == "sample_ring" || key == "slow_pwrite_ms" ||
               key == "slow_capture_ms" || key == "slow_exemplars") {
      unsigned parsed = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc{} || ptr != end) {
        return Error{EINVAL, "bad value for option '" + std::string(key) + "': '" +
                                 std::string(value) + "'"};
      }
      if (key == "sample_ms") {
        out.config.sample_ms = parsed;
      } else if (key == "sample_ring") {
        out.config.sample_ring = parsed;
      } else if (key == "slow_capture_ms") {
        out.config.slow_capture_ms = parsed;
      } else if (key == "slow_exemplars") {
        out.config.slow_exemplars = parsed;
      } else {
        out.config.health.slow_pwrite_p99_ns =
            static_cast<std::uint64_t>(parsed) * 1'000'000;
      }
    } else if (key == "journal") {
      if (value.empty()) {
        return Error{EINVAL, "journal= needs a directory path"};
      }
      out.config.journal_dir = std::string(value);
    } else if (key == "journal_fsync_ms" || key == "slo_lag_ms" ||
               key == "slo_stall_pct" || key == "slo_ttfb_ms" ||
               key == "slo_short_s" || key == "slo_long_s") {
      unsigned parsed = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc{} || ptr != end) {
        return Error{EINVAL, "bad value for option '" + std::string(key) + "': '" +
                                 std::string(value) + "'"};
      }
      if (key == "journal_fsync_ms") {
        out.config.journal_fsync_ms = parsed;
      } else if (key == "slo_lag_ms") {
        out.config.slo_lag_ms = parsed;
      } else if (key == "slo_stall_pct") {
        out.config.slo_stall_pct = parsed;
      } else if (key == "slo_ttfb_ms") {
        out.config.slo_ttfb_ms = parsed;
      } else if (key == "slo_short_s") {
        out.config.slo_short_s = parsed;
      } else {
        out.config.slo_long_s = parsed;
      }
    } else if (key == "journal_segment") {
      CRFS_RETURN_IF_ERROR(need_size(out.config.journal_segment_bytes));
    } else if (key == "journal_max") {
      CRFS_RETURN_IF_ERROR(need_size(out.config.journal_max_bytes));
    } else if (key == "stage") {
      if (value.empty()) {
        return Error{EINVAL, "stage= needs 'mem' or a directory path"};
      }
      out.config.tier_stage = std::string(value);
    } else if (key == "remote") {
      if (value.empty()) {
        return Error{EINVAL, "remote= needs a directory path"};
      }
      out.config.tier_remote = std::string(value);
    } else if (key == "stage_cap") {
      CRFS_RETURN_IF_ERROR(need_size(out.config.stage_cap));
    } else if (key == "drain_mbps" || key == "drain_parallel") {
      unsigned parsed = 0;
      const auto* begin = value.data();
      const auto* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(begin, end, parsed);
      if (ec != std::errc{} || ptr != end) {
        return Error{EINVAL, "bad value for option '" + std::string(key) + "': '" +
                                 std::string(value) + "'"};
      }
      if (key == "drain_mbps") {
        out.config.drain_mbps = parsed;
      } else {
        out.config.drain_parallel = parsed;
      }
    } else if (key == "fsync_mode") {
      if (value != "stage" && value != "remote") {
        return Error{EINVAL,
                     "bad fsync_mode (want stage|remote): '" + std::string(value) + "'"};
      }
      out.config.fsync_mode = std::string(value);
    } else if (key == "big_writes") {
      out.fuse.big_writes = true;
    } else if (key == "no_big_writes") {
      out.fuse.big_writes = false;
    } else if (key == "flush_before_read") {
      out.config.flush_before_read = true;
    } else if (key == "paper_reads") {
      out.config.flush_before_read = false;
    } else if (key == "trace") {
      out.config.enable_tracing = true;
    } else if (key == "no_trace") {
      out.config.enable_tracing = false;
    } else {
      return Error{EINVAL, "unknown mount option: '" + std::string(key) + "'"};
    }
    if (comma == text.size()) break;
  }

  CRFS_RETURN_IF_ERROR(out.config.validate());
  return out;
}

namespace {

// Exact (re-parseable) size rendering: "4M", "512K", or raw bytes.
std::string exact_size(std::size_t bytes) {
  if (bytes != 0 && bytes % GiB == 0) return std::to_string(bytes / GiB) + "G";
  if (bytes != 0 && bytes % MiB == 0) return std::to_string(bytes / MiB) + "M";
  if (bytes != 0 && bytes % KiB == 0) return std::to_string(bytes / KiB) + "K";
  return std::to_string(bytes);
}

}  // namespace

std::string format_mount_options(const MountOptions& options) {
  std::string s = "chunk=" + exact_size(options.config.chunk_size) +
                  ",pool=" + exact_size(options.config.pool_size) +
                  ",threads=" + std::to_string(options.config.io_threads);
  if (options.config.pool_shards > 0) {
    s += ",pool_shards=" + std::to_string(options.config.pool_shards);
  }
  if (!options.config.large_write_bypass) s += ",no_bypass";
  if (!options.config.readahead) s += ",no_readahead";
  if (options.config.readahead_window != Config{}.readahead_window) {
    s += ",readahead_window=" + std::to_string(options.config.readahead_window);
  }
  s += options.fuse.big_writes ? ",big_writes" : ",no_big_writes";
  if (!options.config.flush_before_read) s += ",paper_reads";
  if (options.config.enable_tracing) s += ",trace";
  if (options.config.sample_ms > 0) {
    s += ",sample_ms=" + std::to_string(options.config.sample_ms);
    if (options.config.sample_ring != Config{}.sample_ring) {
      s += ",sample_ring=" + std::to_string(options.config.sample_ring);
    }
  }
  if (options.config.health.slow_pwrite_p99_ns > 0) {
    s += ",slow_pwrite_ms=" +
         std::to_string(options.config.health.slow_pwrite_p99_ns / 1'000'000);
  }
  if (options.config.slow_capture_ms != Config{}.slow_capture_ms) {
    s += ",slow_capture_ms=" + std::to_string(options.config.slow_capture_ms);
  }
  if (options.config.slow_exemplars != Config{}.slow_exemplars) {
    s += ",slow_exemplars=" + std::to_string(options.config.slow_exemplars);
  }
  if (!options.config.epoch_tracking) s += ",no_epochs";
  if (options.config.epoch_gap_ms != Config{}.epoch_gap_ms) {
    s += ",epoch_gap_ms=" + std::to_string(options.config.epoch_gap_ms);
  }
  if (options.config.epoch_ledger != Config{}.epoch_ledger) {
    s += ",epoch_ledger=" + std::to_string(options.config.epoch_ledger);
  }
  if (!options.config.postmortem_path.empty()) {
    s += ",postmortem=" + options.config.postmortem_path;
    if (options.config.postmortem_refresh_ms != Config{}.postmortem_refresh_ms) {
      s += ",postmortem_refresh_ms=" + std::to_string(options.config.postmortem_refresh_ms);
    }
  }
  if (!options.config.journal_dir.empty()) {
    s += ",journal=" + options.config.journal_dir;
    if (options.config.journal_fsync_ms != Config{}.journal_fsync_ms) {
      s += ",journal_fsync_ms=" + std::to_string(options.config.journal_fsync_ms);
    }
    if (options.config.journal_segment_bytes != Config{}.journal_segment_bytes) {
      s += ",journal_segment=" + exact_size(options.config.journal_segment_bytes);
    }
    if (options.config.journal_max_bytes != Config{}.journal_max_bytes) {
      s += ",journal_max=" + exact_size(options.config.journal_max_bytes);
    }
  }
  if (options.config.slo_lag_ms != 0) {
    s += ",slo_lag_ms=" + std::to_string(options.config.slo_lag_ms);
  }
  if (options.config.slo_stall_pct != 0) {
    s += ",slo_stall_pct=" + std::to_string(options.config.slo_stall_pct);
  }
  if (options.config.slo_ttfb_ms != 0) {
    s += ",slo_ttfb_ms=" + std::to_string(options.config.slo_ttfb_ms);
  }
  if (options.config.slo_enabled()) {
    if (options.config.slo_short_s != Config{}.slo_short_s) {
      s += ",slo_short_s=" + std::to_string(options.config.slo_short_s);
    }
    if (options.config.slo_long_s != Config{}.slo_long_s) {
      s += ",slo_long_s=" + std::to_string(options.config.slo_long_s);
    }
  }
  if (!options.config.tier_stage.empty()) {
    s += ",stage=" + options.config.tier_stage;
    if (!options.config.tier_remote.empty()) {
      s += ",remote=" + options.config.tier_remote;
    }
    if (options.config.stage_cap != 0) {
      s += ",stage_cap=" + exact_size(options.config.stage_cap);
    }
    if (options.config.drain_mbps != 0) {
      s += ",drain_mbps=" + std::to_string(options.config.drain_mbps);
    }
    if (options.config.drain_parallel != Config{}.drain_parallel) {
      s += ",drain_parallel=" + std::to_string(options.config.drain_parallel);
    }
    if (options.config.fsync_mode != Config{}.fsync_mode) {
      s += ",fsync_mode=" + options.config.fsync_mode;
    }
  }
  if (options.config.controller) s += ",controller=on";
  if (options.config.tune_pool_max != 0) {
    s += ",tune_pool_max=" + exact_size(options.config.tune_pool_max);
  }
  return s;
}

}  // namespace crfs
