// Mount-option string parsing: "chunk=4M,pool=16M,threads=4,big_writes".
//
// The real CRFS is configured through mount options (`-o` on the fuse
// command line); tools and scripts here use the same convention so a
// deployment can keep its tuning in one string.
#pragma once

#include <string_view>

#include "crfs/config.h"

namespace crfs {

/// Parsed mount options: the CRFS Config plus FUSE options.
struct MountOptions {
  Config config;
  FuseOptions fuse;
};

/// Parses a comma-separated option list. Recognised keys:
///   chunk=<size>        aggregation chunk size          (default 4M)
///   pool=<size>         buffer pool size                (default 16M)
///   threads=<n>         IO thread count                 (default 4)
///   pool_shards=<n>     buffer-pool shard count, 0=auto (default 0)
///   bypass              large-write copy bypass         (default on)
///   no_bypass           always aggregate through the buffer pool
///   big_writes          128 KB FUSE requests            (default on)
///   no_big_writes       4 KB FUSE requests
///   flush_before_read   reads see buffered data         (default on)
///   paper_reads         paper-faithful read passthrough (no flush)
///   trace               capture span events for Chrome-trace export
///   no_trace            counters/histograms only        (default)
///   epochs              checkpoint-epoch attribution    (default on)
///   no_epochs           no epoch ledger / attribution
///   epoch_gap_ms=<n>    open/close quiet gap that rotates an automatic
///                       epoch                           (default 500)
///   epoch_ledger=<n>    finished EpochRecords kept      (default 64)
///   postmortem=<path>   enable the flight recorder; dump the
///                       pre-rendered postmortem to <path> on a fatal
///                       signal or error burst
///   postmortem_refresh_ms=<n>
///                       min interval between IO-completion-driven
///                       postmortem refreshes, 0=every completion
///                                                       (default 50)
///   sample_ms=<n>       live sampler period, 0=off      (default 0)
///   sample_ring=<n>     sampler frames kept             (default 600)
///   slow_pwrite_ms=<n>  health threshold: pwrite p99 above this fires
///                       a slow_pwrite event
///   controller=on|off   feedback controller on the sampler tick path
///                       (requires sample_ms > 0)        (default off)
///   no_controller       same as controller=off
///   tune_pool_max=<size>
///                       runtime pool-growth ceiling for the knob
///                       plane, 0=auto (4x pool)         (default 0)
/// Sizes accept K/M/G suffixes. Unknown keys, malformed values, or a
/// configuration that fails Config::validate() return an error.
Result<MountOptions> parse_mount_options(std::string_view text);

/// Renders options back to the canonical string form.
std::string format_mount_options(const MountOptions& options);

}  // namespace crfs
