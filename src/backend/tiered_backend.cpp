#include "backend/tiered_backend.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "crfs/config.h"
#include "obs/json_lite.h"

namespace crfs {

namespace {

constexpr std::size_t kBounceBytes = 4 * 1024 * 1024;

/// "a/b/c" with no leading slash; "" for the root. Matches MemBackend's
/// normalization closely enough for the staged-name union in list_dir.
std::string normalize(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) {
    if (c == '/' && (out.empty() || out.back() == '/')) continue;
    out += c;
  }
  while (!out.empty() && out.back() == '/') out.pop_back();
  return out;
}

}  // namespace

TieredBackend::TieredBackend(std::shared_ptr<BackendFs> stage,
                             std::shared_ptr<BackendFs> remote, TieredOptions opts)
    : stage_(std::move(stage)),
      remote_(std::move(remote)),
      opts_(opts),
      drain_mbps_cap_(opts.drain_mbps),
      drain_parallel_(opts.drain_parallel == 0 ? 1 : opts.drain_parallel) {
  drain_thread_ = std::thread([this] { drain_loop(); });
}

TieredBackend::~TieredBackend() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
    shutdown_ = true;
  }
  drain_cv_.notify_all();
  space_cv_.notify_all();
  idle_cv_.notify_all();
  if (drain_thread_.joinable()) drain_thread_.join();

  std::unique_lock<std::mutex> lock(mu_);
  for (auto& [path, fs] : files_) {
    if (fs->stage_open) (void)stage_->close_file(fs->stage_file);
    if (fs->remote_read_open) (void)remote_->close_file(fs->remote_read);
  }
  files_.clear();
  for (auto& [path, handle] : remote_write_) (void)remote_->close_file(handle);
  remote_write_.clear();
}

void TieredBackend::bind_obs(obs::Registry* registry, obs::EventBuffer* events) {
  registry_ = registry;
  events_ = events;
  if (registry_ == nullptr) return;
  c_staged_bytes_ = &registry_->counter("crfs.tier.staged_bytes");
  c_drained_bytes_ = &registry_->counter("crfs.tier.drained_bytes");
  c_spill_bytes_ = &registry_->counter("crfs.tier.spill_bytes");
  c_evictions_ = &registry_->counter("crfs.tier.evictions");
  c_stalls_ = &registry_->counter("crfs.tier.stalls");
  c_stall_ns_ = &registry_->counter("crfs.tier.stall_ns");
  c_retries_ = &registry_->counter("crfs.tier.retries");
  h_drain_pwrite_ = &registry_->histogram("crfs.tier.drain_pwrite_ns");
  registry_->gauge_fn("crfs.tier.stage_used", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(stage_used_);
  });
  registry_->gauge_fn("crfs.tier.stage_cap",
                      [this] { return static_cast<std::int64_t>(opts_.stage_cap); });
  registry_->gauge_fn("crfs.tier.pending_units", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(sealed_.size());
  });
  registry_->gauge_fn("crfs.tier.drain_lag_ns", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t oldest = oldest_pending_seal_ns_locked();
    if (oldest == 0) return std::int64_t{0};
    const std::uint64_t now = obs::now_ns();
    return static_cast<std::int64_t>(now > oldest ? now - oldest : 0);
  });
}

void TieredBackend::set_drain_listener(DrainListener fn) {
  std::lock_guard<std::mutex> lock(mu_);
  drain_listener_ = std::move(fn);
}

void TieredBackend::set_drain_mbps(double mbps) {
  drain_mbps_cap_.store(mbps < 0.0 ? 0.0 : mbps, std::memory_order_relaxed);
}

void TieredBackend::set_drain_parallel(unsigned n) {
  drain_parallel_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

std::uint64_t TieredBackend::oldest_pending_seal_ns_locked() const {
  return sealed_.empty() ? 0 : sealed_.front().seal_ns;
}

std::shared_ptr<TieredBackend::FileState> TieredBackend::file_for(
    const std::string& path, std::unique_lock<std::mutex>&) {
  auto it = files_.find(path);
  if (it != files_.end()) return it->second;
  auto fs = std::make_shared<FileState>();
  fs->path = path;
  files_.emplace(path, fs);
  return fs;
}

Result<TieredBackend::OpenHandle> TieredBackend::resolve(BackendFile file,
                                                         const char* op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(file);
  if (it == handles_.end()) {
    return Error{EBADF, std::string(op) + " on unknown tiered handle"};
  }
  return it->second;
}

Status TieredBackend::ensure_stage_open_locked(FileState& fs) {
  if (fs.stage_open) return {};
  auto opened =
      stage_->open_file(fs.path, {.create = true, .truncate = false, .write = true});
  if (!opened.ok()) return opened.error();
  fs.stage_file = opened.value();
  fs.stage_open = true;
  return {};
}

Status TieredBackend::ensure_remote_read_locked(FileState& fs) {
  if (fs.remote_read_open) return {};
  auto opened = remote_->open_file(fs.path, {.write = false});
  if (!opened.ok()) return opened.error();
  fs.remote_read = opened.value();
  fs.remote_read_open = true;
  return {};
}

std::uint64_t TieredBackend::trim_extents_locked(FileState& fs, std::uint64_t offset,
                                                 std::uint64_t len) {
  if (len == 0) return 0;
  const std::uint64_t end =
      offset > ~std::uint64_t{0} - len ? ~std::uint64_t{0} : offset + len;
  std::uint64_t freed = 0;
  auto it = fs.extents.lower_bound(offset);
  if (it != fs.extents.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.len > offset) it = prev;
  }
  while (it != fs.extents.end() && it->first < end) {
    const std::uint64_t e_off = it->first;
    const Extent e = it->second;
    const std::uint64_t e_end = e_off + e.len;
    it = fs.extents.erase(it);
    // Keep the non-overlapped head/tail pieces (same unit tag).
    if (e_off < offset) {
      fs.extents.emplace(e_off, Extent{offset - e_off, e.unit});
    }
    if (e_end > end) {
      it = fs.extents.emplace(end, Extent{e_end - end, e.unit}).first;
      ++it;
    }
    const std::uint64_t cut =
        std::min(e_end, end) - std::max(e_off, offset);
    freed += cut;
    if (e.unit == open_unit_seq_ && open_unit_bytes_ >= cut) open_unit_bytes_ -= cut;
  }
  stage_used_ -= std::min(stage_used_, freed);
  return freed;
}

void TieredBackend::seal_locked(std::uint64_t epoch_id, std::uint64_t now_ns) {
  if (open_unit_bytes_ == 0) return;
  sealed_.push_back(DrainUnit{open_unit_seq_, epoch_id, open_unit_bytes_, now_ns});
  open_unit_seq_ = next_unit_seq_++;
  open_unit_bytes_ = 0;
  t_units_sealed_.fetch_add(1, std::memory_order_relaxed);
  drain_cv_.notify_all();
}

void TieredBackend::seal_epoch(std::uint64_t epoch_id) {
  std::unique_lock<std::mutex> lock(mu_);
  seal_locked(epoch_id, obs::now_ns());
}

void TieredBackend::release_file_locked(const std::shared_ptr<FileState>& fs) {
  if (fs->open_count > 0 || !fs->extents.empty()) return;
  if (fs->stage_open) {
    (void)stage_->close_file(fs->stage_file);
    fs->stage_open = false;
    (void)stage_->unlink(fs->path);  // reclaim staged bytes
  }
  if (fs->remote_read_open) {
    (void)remote_->close_file(fs->remote_read);
    fs->remote_read_open = false;
  }
  files_.erase(fs->path);
}

Result<BackendFile> TieredBackend::open_file(const std::string& path, OpenFlags flags) {
  std::unique_lock<std::mutex> lock(mu_);
  auto existing = files_.find(path);
  bool exists = existing != files_.end() && !existing->second->unlinked;
  std::uint64_t remote_size = 0;
  bool remote_exists = false;
  if (!exists || !flags.write) {
    lock.unlock();
    auto st = remote_->stat(path);
    lock.lock();
    if (st.ok() && !st.value().is_dir) {
      remote_exists = true;
      remote_size = st.value().size;
    }
    existing = files_.find(path);
    exists = (existing != files_.end() && !existing->second->unlinked) || remote_exists;
  }
  if (!exists && !(flags.write && flags.create)) {
    return Error{ENOENT, "tiered open: no such file: " + path};
  }
  if (!exists) {
    // A created file exists from its creating open, as on any other
    // backend. Make it on the remote now: a close with nothing staged
    // drops the in-memory state, and the file must outlive that even if
    // it is never written. Best effort — during a remote outage the
    // drain creates it later.
    lock.unlock();
    auto rw = remote_->open_file(path, {.create = true, .truncate = false, .write = true});
    if (rw.ok()) (void)remote_->close_file(rw.value());
    lock.lock();
  }

  auto fs = file_for(path, lock);
  fs->unlinked = false;
  if (remote_exists && fs->extents.empty() && fs->open_count == 0) {
    fs->size = std::max(fs->size, remote_size);
  }
  if (flags.write) {
    CRFS_RETURN_IF_ERROR(ensure_stage_open_locked(*fs));
    if (flags.truncate) {
      trim_extents_locked(*fs, 0, ~std::uint64_t{0});
      fs->size = 0;
      (void)stage_->truncate(fs->stage_file, 0);
      if (remote_exists) {
        lock.unlock();
        auto rw = remote_->open_file(path, {.create = false, .truncate = true, .write = true});
        if (rw.ok()) (void)remote_->close_file(rw.value());
        lock.lock();
      }
      space_cv_.notify_all();
    }
  }
  fs->open_count += 1;
  const BackendFile handle = next_handle_++;
  handles_.emplace(handle, OpenHandle{fs, flags.write});
  return handle;
}

Status TieredBackend::close_file(BackendFile file) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = handles_.find(file);
  if (it == handles_.end()) return Error{EBADF, "close of unknown tiered handle"};
  auto fs = it->second.file;
  handles_.erase(it);
  if (fs->open_count > 0) fs->open_count -= 1;
  release_file_locked(fs);
  return {};
}

Status TieredBackend::pwrite(BackendFile file, std::span<const std::byte> data,
                             std::uint64_t offset) {
  auto handle = resolve(file, "pwrite");
  if (!handle.ok()) return handle.error();
  if (!handle.value().writable) return Error{EBADF, "pwrite on read-only tiered handle"};
  auto fs = handle.value().file;
  const std::uint64_t len = data.size();
  if (len == 0) return {};

  std::unique_lock<std::mutex> lock(mu_);

  // Spill-through: a single write larger than the whole cap can never be
  // staged. Wait out any staged overlap (so the drain cannot later clobber
  // the fresher remote bytes), then write directly to the remote.
  if (opts_.stage_cap > 0 && len > opts_.stage_cap) {
    for (;;) {
      std::uint64_t overlap = 0;
      bool in_open_unit = false;
      auto it = fs->extents.lower_bound(offset);
      if (it != fs->extents.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > offset) it = prev;
      }
      for (; it != fs->extents.end() && it->first < offset + len; ++it) {
        overlap += it->second.len;
        in_open_unit |= it->second.unit == open_unit_seq_;
      }
      if (overlap == 0 || shutdown_) break;
      if (in_open_unit) seal_locked(0, obs::now_ns());
      idle_cv_.wait(lock);
    }
    BackendFile rw = 0;
    auto wit = remote_write_.find(fs->path);
    if (wit != remote_write_.end()) {
      rw = wit->second;
    } else {
      auto opened =
          remote_->open_file(fs->path, {.create = true, .truncate = false, .write = true});
      if (!opened.ok()) return opened.error();
      rw = opened.value();
      remote_write_.emplace(fs->path, rw);
    }
    fs->size = std::max(fs->size, offset + len);
    lock.unlock();
    CRFS_RETURN_IF_ERROR(remote_->pwrite(rw, data, offset));
    t_spill_bytes_.fetch_add(len, std::memory_order_relaxed);
    if (c_spill_bytes_ != nullptr) c_spill_bytes_->add(len);
    return {};
  }

  // Backpressure: block until eviction frees room for the net new bytes.
  if (opts_.stage_cap > 0) {
    bool stalled = false;
    std::uint64_t stall_start = 0;
    for (;;) {
      std::uint64_t replaced = 0;
      auto it = fs->extents.lower_bound(offset);
      if (it != fs->extents.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.len > offset) it = prev;
      }
      for (; it != fs->extents.end() && it->first < offset + len; ++it) {
        const std::uint64_t e_end = it->first + it->second.len;
        replaced += std::min(e_end, offset + len) - std::max(it->first, offset);
      }
      if (stage_used_ - replaced + len <= opts_.stage_cap) break;
      if (shutdown_) return Error{EIO, "tiered backend shutting down"};
      // Nothing sealed to drain? Auto-seal the open unit so the drain can
      // make progress — a tiny cap degrades to write-through, not deadlock.
      if (sealed_.empty() && open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
      if (!stalled) {
        stalled = true;
        stall_start = obs::now_ns();
        t_stalls_.fetch_add(1, std::memory_order_relaxed);
        if (c_stalls_ != nullptr) c_stalls_->add(1);
      }
      space_cv_.wait(lock);
    }
    if (stalled) {
      const std::uint64_t waited = obs::now_ns() - stall_start;
      t_stall_ns_.fetch_add(waited, std::memory_order_relaxed);
      if (c_stall_ns_ != nullptr) c_stall_ns_->add(waited);
    }
  }

  CRFS_RETURN_IF_ERROR(ensure_stage_open_locked(*fs));
  const BackendFile sf = fs->stage_file;
  fs->inflight += 1;
  lock.unlock();

  const Status wrote = stage_->pwrite(sf, data, offset);

  lock.lock();
  fs->inflight -= 1;
  if (!wrote.ok()) return wrote;
  trim_extents_locked(*fs, offset, len);
  fs->extents.emplace(offset, Extent{len, open_unit_seq_});
  fs->size = std::max(fs->size, offset + len);
  stage_used_ += len;
  open_unit_bytes_ += len;
  t_staged_bytes_.fetch_add(len, std::memory_order_relaxed);
  if (c_staged_bytes_ != nullptr) c_staged_bytes_->add(len);
  return {};
}

Result<std::size_t> TieredBackend::pread(BackendFile file, std::span<std::byte> data,
                                         std::uint64_t offset) {
  auto handle = resolve(file, "pread");
  if (!handle.ok()) return handle.error();
  auto fs = handle.value().file;

  struct Seg {
    bool staged;
    std::uint64_t offset;
    std::size_t buf_at;
    std::size_t len;
  };
  std::vector<Seg> segs;
  BackendFile stage_file = 0;
  BackendFile remote_file = 0;
  bool want_remote = false;
  std::size_t effective = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (offset >= fs->size) return std::size_t{0};
    effective = static_cast<std::size_t>(
        std::min<std::uint64_t>(data.size(), fs->size - offset));
    const std::uint64_t end = offset + effective;
    std::uint64_t cur = offset;
    auto it = fs->extents.lower_bound(offset);
    if (it != fs->extents.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.len > offset) it = prev;
    }
    while (cur < end) {
      if (it == fs->extents.end() || it->first >= end) {
        segs.push_back({false, cur, static_cast<std::size_t>(cur - offset),
                        static_cast<std::size_t>(end - cur)});
        want_remote = true;
        break;
      }
      const std::uint64_t e_off = it->first;
      const std::uint64_t e_end = e_off + it->second.len;
      if (e_off > cur) {
        segs.push_back({false, cur, static_cast<std::size_t>(cur - offset),
                        static_cast<std::size_t>(e_off - cur)});
        want_remote = true;
        cur = e_off;
      }
      const std::uint64_t s_end = std::min(e_end, end);
      if (s_end > cur) {
        segs.push_back({true, cur, static_cast<std::size_t>(cur - offset),
                        static_cast<std::size_t>(s_end - cur)});
        cur = s_end;
      }
      ++it;
    }
    if (!segs.empty()) {
      for (const Seg& s : segs) {
        if (s.staged) {
          // Extents exist => the stage handle is open (invariant).
          stage_file = fs->stage_file;
        }
      }
      if (want_remote) {
        // A gap can also be a never-written hole; remote open may fail
        // with ENOENT when nothing drained yet — the zero-fill covers it.
        if (ensure_remote_read_locked(*fs).ok()) remote_file = fs->remote_read;
      }
    }
  }

  // Gaps (sparse holes, short remote files) read as zeroes, matching the
  // zero-fill semantics of the concrete backends.
  std::fill(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(effective),
            std::byte{0});
  for (const Seg& s : segs) {
    std::span<std::byte> dst = data.subspan(s.buf_at, s.len);
    if (s.staged) {
      auto got = stage_->pread(stage_file, dst, s.offset);
      if (!got.ok()) return got.error();
      if (got.value() < s.len) {
        // Eviction raced this read: the drain truncated the stage copy
        // after the plan above. A unit is evicted only once remote-durable,
        // so the rest of the segment is on the remote.
        {
          std::lock_guard<std::mutex> lock(mu_);
          CRFS_RETURN_IF_ERROR(ensure_remote_read_locked(*fs));
          remote_file = fs->remote_read;
        }
        auto rest = remote_->pread(remote_file, dst.subspan(got.value()),
                                   s.offset + got.value());
        if (!rest.ok()) return rest.error();
      }
    } else if (remote_file != 0) {
      auto got = remote_->pread(remote_file, dst, s.offset);
      if (!got.ok()) return got.error();
    }
  }
  return effective;
}

Status TieredBackend::fsync(BackendFile file) {
  auto handle = resolve(file, "fsync");
  if (!handle.ok()) return handle.error();
  auto fs = handle.value().file;

  if (opts_.fsync_mode == TierFsyncMode::kStage) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!fs->stage_open) return {};
    const BackendFile sf = fs->stage_file;
    lock.unlock();
    return stage_->fsync(sf);
  }

  // fsync_mode=remote: seal what this file staged, then wait until every
  // staged byte of it is drained + evicted (the drain fsyncs the remote
  // before evicting, so empty extents == remote-durable).
  std::unique_lock<std::mutex> lock(mu_);
  if (!fs->extents.empty() && open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
  while (!fs->extents.empty() && !shutdown_) idle_cv_.wait(lock);
  if (!fs->extents.empty()) return Error{EIO, "tiered backend shutting down"};
  return {};
}

Status TieredBackend::truncate(BackendFile file, std::uint64_t size) {
  auto handle = resolve(file, "truncate");
  if (!handle.ok()) return handle.error();
  if (!handle.value().writable) return Error{EBADF, "truncate on read-only tiered handle"};
  auto fs = handle.value().file;

  std::unique_lock<std::mutex> lock(mu_);
  if (size < fs->size) {
    trim_extents_locked(*fs, size, ~std::uint64_t{0} - size);
    space_cv_.notify_all();
  }
  fs->size = size;
  BackendFile sf = 0;
  const bool have_stage = fs->stage_open;
  if (have_stage) sf = fs->stage_file;
  BackendFile rw = 0;
  bool have_remote = false;
  auto wit = remote_write_.find(fs->path);
  if (wit != remote_write_.end()) {
    rw = wit->second;
    have_remote = true;
  } else {
    auto opened =
        remote_->open_file(fs->path, {.create = true, .truncate = false, .write = true});
    if (opened.ok()) {
      rw = opened.value();
      remote_write_.emplace(fs->path, rw);
      have_remote = true;
    }
  }
  lock.unlock();
  if (have_stage) CRFS_RETURN_IF_ERROR(stage_->truncate(sf, size));
  if (have_remote) CRFS_RETURN_IF_ERROR(remote_->truncate(rw, size));
  return {};
}

Result<BackendStat> TieredBackend::stat(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it != files_.end() && !it->second->unlinked) {
      BackendStat st;
      st.size = it->second->size;
      st.is_dir = false;
      return st;
    }
  }
  auto remote = remote_->stat(path);
  if (remote.ok()) return remote;
  return stage_->stat(path);
}

Status TieredBackend::mkdir(const std::string& path) {
  (void)stage_->mkdir(path);
  return remote_->mkdir(path);
}

Status TieredBackend::rmdir(const std::string& path) {
  (void)stage_->rmdir(path);
  return remote_->rmdir(path);
}

Status TieredBackend::unlink(const std::string& path) {
  bool had_state = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it != files_.end()) {
      had_state = true;
      auto fs = it->second;
      trim_extents_locked(*fs, 0, ~std::uint64_t{0});
      fs->size = 0;
      fs->unlinked = true;
      space_cv_.notify_all();
      idle_cv_.notify_all();
      release_file_locked(fs);  // no-op while handles are open
    }
    auto wit = remote_write_.find(path);
    if (wit != remote_write_.end()) {
      (void)remote_->close_file(wit->second);
      remote_write_.erase(wit);
    }
  }
  (void)stage_->unlink(path);
  auto remote = remote_->unlink(path);
  if (!remote.ok() && had_state) return {};  // never drained: only staged
  return remote;
}

Status TieredBackend::rename(const std::string& from, const std::string& to) {
  bool had_state = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = files_.find(from);
    if (it != files_.end()) {
      had_state = true;
      auto fs = it->second;
      files_.erase(it);
      fs->path = to;
      files_[to] = fs;
    }
    auto wit = remote_write_.find(from);
    if (wit != remote_write_.end()) {
      (void)remote_->close_file(wit->second);
      remote_write_.erase(wit);
    }
  }
  (void)stage_->rename(from, to);
  auto remote = remote_->rename(from, to);
  if (!remote.ok() && had_state) return {};
  return remote;
}

Result<std::vector<std::string>> TieredBackend::list_dir(const std::string& path) {
  auto remote = remote_->list_dir(path);
  std::vector<std::string> names;
  if (remote.ok()) names = std::move(remote.value());
  const std::string prefix = normalize(path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [p, fs] : files_) {
      if (fs->unlinked) continue;
      const std::string norm = normalize(p);
      std::string rest;
      if (prefix.empty()) {
        rest = norm;
      } else if (norm.size() > prefix.size() + 1 &&
                 norm.compare(0, prefix.size(), prefix) == 0 &&
                 norm[prefix.size()] == '/') {
        rest = norm.substr(prefix.size() + 1);
      } else {
        continue;
      }
      if (rest.empty() || rest.find('/') != std::string::npos) continue;
      names.push_back(rest);
    }
  }
  if (!remote.ok() && names.empty()) return remote.error();
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::string TieredBackend::name() const {
  return "tiered(stage=" + stage_->name() + ",remote=" + remote_->name() + ")";
}

Status TieredBackend::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (open_unit_bytes_ > 0) seal_locked(0, obs::now_ns());
  while (!sealed_.empty() && !shutdown_) idle_cv_.wait(lock);
  if (!sealed_.empty()) return Error{EIO, "tiered backend shutting down"};
  return {};
}

void TieredBackend::throttle(std::uint64_t bytes) {
  const double mbps = drain_mbps_cap_.load(std::memory_order_relaxed);
  if (mbps <= 0.0) return;
  const unsigned workers = drain_parallel_.load(std::memory_order_relaxed);
  const double per_worker = mbps / static_cast<double>(workers == 0 ? 1 : workers);
  const double seconds = static_cast<double>(bytes) / (per_worker * 1e6);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

Status TieredBackend::copy_run_to_remote(const DrainRun& run) {
  BackendFile sf = 0;
  BackendFile rw = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!run.file->stage_open) {
      return Error{ESTALE, "staged data gone (unlinked mid-drain)"};
    }
    sf = run.file->stage_file;
    auto wit = remote_write_.find(run.file->path);
    if (wit != remote_write_.end()) {
      rw = wit->second;
    } else {
      auto opened = remote_->open_file(run.file->path,
                                       {.create = true, .truncate = false, .write = true});
      if (!opened.ok()) return opened.error();
      rw = opened.value();
      remote_write_.emplace(run.file->path, rw);
    }
  }
  std::vector<std::byte> bounce(
      static_cast<std::size_t>(std::min<std::uint64_t>(run.len, kBounceBytes)));
  std::uint64_t done = 0;
  while (done < run.len) {
    const std::size_t step = static_cast<std::size_t>(
        std::min<std::uint64_t>(run.len - done, bounce.size()));
    std::span<std::byte> buf(bounce.data(), step);
    auto got = stage_->pread(sf, buf, run.offset + done);
    if (!got.ok()) return got.error();
    if (got.value() < step) {
      // Staged extent shorter than recorded: superseded by a concurrent
      // truncate — the re-snapshot after retry sees the trimmed map.
      return Error{ESTALE, "staged extent truncated mid-drain"};
    }
    const std::uint64_t t0 = obs::now_ns();
    const Status wrote = remote_->pwrite(rw, {bounce.data(), step}, run.offset + done);
    const std::uint64_t dt = obs::now_ns() - t0;
    if (h_drain_pwrite_ != nullptr) h_drain_pwrite_->record(dt);
    if (!wrote.ok()) return wrote;
    t_drained_bytes_.fetch_add(step, std::memory_order_relaxed);
    if (c_drained_bytes_ != nullptr) c_drained_bytes_->add(step);
    throttle(step);
    done += step;
  }
  return {};
}

bool TieredBackend::drain_unit(const DrainUnit& unit) {
  // Snapshot this unit's extents (exact eviction keys) and the merged
  // adjacent runs (fewer remote calls) under the lock; copy outside it.
  std::vector<DrainRun> exact;
  std::vector<DrainRun> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [path, fs] : files_) {
      DrainRun open_run;
      for (auto& [off, ext] : fs->extents) {
        if (ext.unit != unit.seq) continue;
        exact.push_back(DrainRun{fs, off, ext.len});
        if (open_run.file != nullptr && open_run.offset + open_run.len == off) {
          open_run.len += ext.len;
        } else {
          if (open_run.file != nullptr) merged.push_back(open_run);
          open_run = DrainRun{fs, off, ext.len};
        }
      }
      if (open_run.file != nullptr) merged.push_back(open_run);
    }
  }

  const std::uint64_t drain_start = obs::now_ns();
  Status result;
  const unsigned workers =
      std::min<unsigned>(drain_parallel_.load(std::memory_order_relaxed),
                         static_cast<unsigned>(merged.empty() ? 1 : merged.size()));
  if (workers <= 1) {
    for (const DrainRun& run : merged) {
      result = copy_run_to_remote(run);
      if (!result.ok()) break;
    }
  } else {
    std::vector<Status> statuses(workers);
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    auto work = [&](unsigned w) {
      for (std::size_t i = w; i < merged.size(); i += workers) {
        statuses[w] = copy_run_to_remote(merged[i]);
        if (!statuses[w].ok()) return;
      }
    };
    for (unsigned w = 1; w < workers; ++w) helpers.emplace_back(work, w);
    work(0);
    for (auto& t : helpers) t.join();
    for (Status& st : statuses) {
      if (!st.ok()) {
        result = std::move(st);
        break;
      }
    }
  }

  // Eviction gate: the whole unit must be durable at the remote before a
  // single staged byte is released.
  if (result.ok()) {
    std::vector<std::pair<std::string, BackendFile>> to_sync;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const DrainRun& run : merged) {
        auto wit = remote_write_.find(run.file->path);
        if (wit != remote_write_.end()) to_sync.emplace_back(wit->first, wit->second);
      }
    }
    std::sort(to_sync.begin(), to_sync.end());
    to_sync.erase(std::unique(to_sync.begin(), to_sync.end()), to_sync.end());
    for (const auto& [path, rf] : to_sync) {
      result = remote_->fsync(rf);
      if (!result.ok()) break;
    }
  }

  if (!result.ok()) {
    // ESTALE means the staged bytes vanished legitimately (unlink or
    // truncate won the race); re-snapshotting on retry resolves it.
    // Anything else is the remote tier failing: raise the health event
    // once per episode (the caller counts retries).
    if (result.error().code != ESTALE && events_ != nullptr && !remote_down_) {
      obs::Event ev;
      ev.severity = obs::Severity::kWarning;
      ev.rule = "tier_remote_down";
      ev.message = "drain to remote failed: " + result.error().to_string() +
                   " (unit " + std::to_string(unit.seq) + ", stage retains data)";
      ev.value = static_cast<double>(unit.bytes);
      ev.ts_ns = obs::now_ns();
      events_->push(std::move(ev));
      remote_down_ = true;
    }
    return false;
  }

  const std::uint64_t drain_end = obs::now_ns();
  if (remote_down_ && events_ != nullptr) {
    obs::Event ev;
    ev.severity = obs::Severity::kInfo;
    ev.rule = "tier_remote_recovered";
    ev.message = "drain to remote resumed (unit " + std::to_string(unit.seq) + ")";
    ev.ts_ns = drain_end;
    events_->push(std::move(ev));
  }
  remote_down_ = false;

  // Evict: remove exactly the extents we drained, and only those still
  // tagged to this unit (an overwrite re-tagged fresher bytes — keep them).
  std::uint64_t evicted = 0;
  DrainListener listener;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const DrainRun& run : exact) {
      auto it = run.file->extents.find(run.offset);
      if (it == run.file->extents.end() || it->second.unit != unit.seq ||
          it->second.len != run.len) {
        continue;
      }
      run.file->extents.erase(it);
      evicted += run.len;
      if (run.file->extents.empty() && run.file->inflight == 0) {
        if (run.file->open_count == 0) {
          release_file_locked(run.file);
        } else if (run.file->stage_open) {
          // Still open but fully drained: reclaim the staged bytes now.
          (void)stage_->truncate(run.file->stage_file, 0);
        }
      }
    }
    stage_used_ -= std::min(stage_used_, evicted);
    t_units_evicted_.fetch_add(1, std::memory_order_relaxed);
    if (c_evictions_ != nullptr) c_evictions_->add(1);
    listener = drain_listener_;
  }
  space_cv_.notify_all();
  idle_cv_.notify_all();
  if (listener) {
    listener(unit.epoch_id, evicted, drain_end - drain_start, drain_end);
  }
  return true;
}

void TieredBackend::drain_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  auto backoff = opts_.retry_backoff;
  for (;;) {
    drain_cv_.wait(lock, [&] { return shutdown_ || !sealed_.empty(); });
    if (sealed_.empty()) {
      if (shutdown_) return;
      continue;
    }
    const DrainUnit unit = sealed_.front();
    lock.unlock();
    const bool ok = drain_unit(unit);
    lock.lock();
    if (ok) {
      if (!sealed_.empty() && sealed_.front().seq == unit.seq) sealed_.pop_front();
      backoff = opts_.retry_backoff;
      if (sealed_.empty()) {
        idle_cv_.notify_all();
        // A writer that stalled while this (already-drained) unit still sat
        // in sealed_ skipped its auto-seal; now that the queue is empty it
        // must re-check, or its open bytes never seal and nothing wakes it.
        space_cv_.notify_all();
      }
      continue;
    }
    // Remote down (or staged bytes moved underneath us): retry the unit
    // with exponential backoff. The stage retains every byte meanwhile.
    t_retries_.fetch_add(1, std::memory_order_relaxed);
    if (c_retries_ != nullptr) c_retries_->add(1);
    if (shutdown_ && backoff >= opts_.retry_backoff_max) {
      // Teardown with a dead remote: abandon the unit (bytes stay staged;
      // nothing is evicted, so nothing is lost silently).
      sealed_.pop_front();
      idle_cv_.notify_all();
      if (sealed_.empty()) space_cv_.notify_all();
      continue;
    }
    drain_cv_.wait_for(lock, backoff, [&] { return shutdown_; });
    backoff = std::min(backoff * 2, opts_.retry_backoff_max);
  }
}

TierStats TieredBackend::tier_stats() const {
  TierStats out;
  std::lock_guard<std::mutex> lock(mu_);
  out.stage_used = stage_used_;
  out.stage_cap = opts_.stage_cap;
  out.staged_bytes = t_staged_bytes_.load(std::memory_order_relaxed);
  out.drained_bytes = t_drained_bytes_.load(std::memory_order_relaxed);
  out.spill_bytes = t_spill_bytes_.load(std::memory_order_relaxed);
  out.units_sealed = t_units_sealed_.load(std::memory_order_relaxed);
  out.units_evicted = t_units_evicted_.load(std::memory_order_relaxed);
  out.pending_units = sealed_.size();
  out.stalls = t_stalls_.load(std::memory_order_relaxed);
  out.stall_ns = t_stall_ns_.load(std::memory_order_relaxed);
  out.retries = t_retries_.load(std::memory_order_relaxed);
  const std::uint64_t oldest = oldest_pending_seal_ns_locked();
  if (oldest != 0) {
    const std::uint64_t now = obs::now_ns();
    out.drain_lag_ns = now > oldest ? now - oldest : 0;
  }
  out.drain_mbps = drain_mbps_cap_.load(std::memory_order_relaxed);
  out.drain_parallel = drain_parallel_.load(std::memory_order_relaxed);
  return out;
}

std::string TieredBackend::tier_json() const {
  const TierStats s = tier_stats();
  char mbps[32];
  std::snprintf(mbps, sizeof(mbps), "%g", s.drain_mbps);
  std::string out = "{\"enabled\":true";
  out += ",\"stage\":";
  obs::append_json_string(out, stage_->name());
  out += ",\"remote\":";
  obs::append_json_string(out, remote_->name());
  out += ",\"stage_used\":" + std::to_string(s.stage_used);
  out += ",\"stage_cap\":" + std::to_string(s.stage_cap);
  out += ",\"staged_bytes\":" + std::to_string(s.staged_bytes);
  out += ",\"drained_bytes\":" + std::to_string(s.drained_bytes);
  out += ",\"spill_bytes\":" + std::to_string(s.spill_bytes);
  out += ",\"units_sealed\":" + std::to_string(s.units_sealed);
  out += ",\"units_evicted\":" + std::to_string(s.units_evicted);
  out += ",\"pending_units\":" + std::to_string(s.pending_units);
  out += ",\"stalls\":" + std::to_string(s.stalls);
  out += ",\"stall_ns\":" + std::to_string(s.stall_ns);
  out += ",\"retries\":" + std::to_string(s.retries);
  out += ",\"drain_lag_ns\":" + std::to_string(s.drain_lag_ns);
  out += ",\"drain_mbps\":" + std::string(mbps);
  out += ",\"drain_parallel\":" + std::to_string(s.drain_parallel);
  out += "}";
  return out;
}

Result<std::shared_ptr<BackendFs>> make_tiered_backend(const Config& cfg,
                                                       const std::string& remote_dir) {
  std::shared_ptr<BackendFs> stage;
  if (cfg.tier_stage == "mem") {
    stage = std::make_shared<MemBackend>();
  } else {
    ::mkdir(cfg.tier_stage.c_str(), 0755);  // best-effort; create() validates
    auto s = PosixBackend::create(cfg.tier_stage);
    if (!s.ok()) return s.error();
    stage = std::move(s.value());
  }
  auto remote = PosixBackend::create(remote_dir);
  if (!remote.ok()) return remote.error();
  std::shared_ptr<BackendFs> remote_fs = std::move(remote).value();
  TieredOptions opts;
  opts.stage_cap = cfg.stage_cap;
  opts.drain_mbps = static_cast<double>(cfg.drain_mbps);
  opts.drain_parallel = cfg.drain_parallel;
  opts.fsync_mode =
      cfg.fsync_mode == "remote" ? TierFsyncMode::kRemote : TierFsyncMode::kStage;
  return std::shared_ptr<BackendFs>(
      std::make_shared<TieredBackend>(std::move(stage), std::move(remote_fs), opts));
}

}  // namespace crfs
