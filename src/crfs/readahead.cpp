#include "crfs/readahead.h"

#include <algorithm>
#include <cstring>

#include "crfs/file_table.h"

namespace crfs {

Readahead::Readahead(BackendFs& backend, BufferPool& pool, ReadObs obs,
                     std::size_t ledger_capacity)
    : backend_(backend),
      pool_(pool),
      obs_(std::move(obs)),
      ledger_capacity_(ledger_capacity == 0 ? 1 : ledger_capacity) {}

Readahead::~Readahead() {
  std::vector<const FileEntry*> entries;
  {
    std::lock_guard lock(mu_);
    for (const auto& [entry, fs] : files_) entries.push_back(entry);
  }
  for (const FileEntry* entry : entries) evict(entry);
}

std::shared_ptr<Readahead::FileState> Readahead::state_for(const FileEntry* entry) {
  std::lock_guard lock(mu_);
  std::shared_ptr<FileState>& fs = files_[entry];
  if (fs == nullptr) fs = std::make_shared<FileState>();
  return fs;
}

Result<std::size_t> Readahead::read(const std::shared_ptr<FileEntry>& entry,
                                    std::span<std::byte> out, std::uint64_t offset,
                                    bool enabled, unsigned window) {
  const std::uint64_t t0 = obs::now_ns();
  std::shared_ptr<FileState> held = state_for(entry.get());
  std::unique_lock file_lock(held->mu);
  while (!held->live) {  // evicted between the lookup and the lock
    file_lock.unlock();
    held = state_for(entry.get());
    file_lock = std::unique_lock(held->mu);
  }
  FileState& fs = *held;
  if (!fs.touched) {
    fs.touched = true;
    fs.stats.path = entry->path();
    fs.stats.first_read_ns = t0;
    fs.gen_seen = entry->write_gen.load(std::memory_order_acquire);
  }

  // Coherence: a write or truncate since the cache was filled invalidates
  // every prefetched byte (the caller barriered the file's queued chunks
  // before entering, so fresh backend reads observe them).
  const std::uint64_t gen = entry->write_gen.load(std::memory_order_acquire);
  if (gen != fs.gen_seen) {
    drop_cache_locked(fs);
    fs.gen_seen = gen;
    fs.eof_at = ~std::uint64_t{0};
  }

  // Sequential-scan detection: a seek drops the window, a match extends
  // the streak that arms prefetching.
  if (offset == fs.expected_next) {
    fs.streak += 1;
  } else {
    drop_cache_locked(fs);
    fs.streak = 1;
  }

  // Serve from the cache window front-to-back.
  std::size_t served = 0;
  bool eof_hit = false;
  while (served < out.size() && !fs.slots.empty()) {
    const std::uint64_t pos = offset + served;
    Slot* s = fs.slots.front().get();
    if (pos < s->offset) break;  // gap below the window: sync tail fills it
    if (pos >= s->offset + s->want) {
      retire_front_locked(fs);
      continue;
    }
    if (s->failed) {
      // Drop the failed slot and retry the range synchronously below; the
      // retry reports any persistent error.
      retire_front_locked(fs);
      break;
    }
    if (pos >= s->offset + s->valid) {
      eof_hit = true;  // short slot: the file ends inside it
      break;
    }
    const std::size_t n =
        std::min(out.size() - served, static_cast<std::size_t>(s->offset + s->valid - pos));
    std::memcpy(out.data() + served, s->chunk->payload().data() + (pos - s->offset), n);
    if (!s->consumed) {
      s->consumed = true;
      if (obs_.prefetch_hits != nullptr) obs_.prefetch_hits->add(1);
      fs.stats.prefetch_hits += 1;
    }
    served += n;
    if (s->valid < s->want && offset + served == s->offset + s->valid) {
      eof_hit = true;
      break;
    }
  }

  // Blocking tail for whatever the window did not cover.
  Status tail_error;
  if (served < out.size() && !eof_hit) {
    auto r = backend_.pread(entry->backend_file(), out.subspan(served), offset + served);
    if (obs_.sync_preads != nullptr) obs_.sync_preads->add(1);
    fs.stats.sync_preads += 1;
    if (r.ok()) {
      if (r.value() < out.size() - served) {
        fs.eof_at = std::min(fs.eof_at, offset + served + r.value());
      }
      served += r.value();
    } else {
      tail_error = r.error();
    }
  }

  // Top the window back up while the scan is established.
  if (enabled && tail_error.ok() && fs.streak >= 2 && window > 0) {
    top_up_locked(entry.get(), fs, offset + served, window);
  }

  fs.expected_next = offset + served;
  const std::uint64_t t_done = obs::now_ns();
  if (obs_.ops != nullptr) obs_.ops->add(1);
  if (obs_.bytes != nullptr) obs_.bytes->add(served);
  if (obs_.pread_ns != nullptr) obs_.pread_ns->record(t_done - t0);
  fs.stats.ops += 1;
  fs.stats.bytes += served;
  if (fs.stats.ops == 1) fs.stats.ttfb_ns = t_done - t0;
  fs.stats.last_read_ns = t_done;
  if (obs_.on_slow) obs_.on_slow(entry->path(), offset, out.size(), t0, t_done);

  if (!tail_error.ok() && served == 0) return tail_error.error();
  return served;
}

void Readahead::evict(const FileEntry* entry) {
  std::shared_ptr<FileState> fs;
  {
    std::lock_guard lock(mu_);
    auto it = files_.find(entry);
    if (it == files_.end()) return;
    fs = it->second;
  }
  std::lock_guard file_lock(fs->mu);
  if (!fs->live) return;  // a concurrent evict finalized it first
  drop_cache_locked(*fs);
  fs->live = false;
  std::lock_guard lock(mu_);
  finalize_locked(*fs);
  auto it = files_.find(entry);
  if (it != files_.end() && it->second == fs) files_.erase(it);
}

std::vector<RestoreLedgerEntry> Readahead::ledger_snapshot() const {
  std::vector<RestoreLedgerEntry> out;
  std::vector<std::shared_ptr<FileState>> scans;
  {
    std::lock_guard lock(mu_);
    out.assign(ledger_.begin(), ledger_.end());
    for (const auto& [entry, fs] : files_) scans.push_back(fs);
  }
  // File locks order before mu_, so live rows are copied after releasing
  // it. A scan evicted in between is missing from the ledger copy above
  // and is reported here, once, as finalized.
  for (const auto& fs : scans) {
    std::lock_guard file_lock(fs->mu);
    if (fs->stats.ops == 0) continue;
    RestoreLedgerEntry row = fs->stats;
    row.active = fs->live;
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const RestoreLedgerEntry& a,
                                       const RestoreLedgerEntry& b) {
    if (a.first_read_ns != b.first_read_ns) return a.first_read_ns < b.first_read_ns;
    return a.path < b.path;
  });
  return out;
}

void Readahead::drop_cache_locked(FileState& fs) {
  while (!fs.slots.empty()) retire_front_locked(fs);
}

void Readahead::retire_front_locked(FileState& fs) {
  Slot* s = fs.slots.front().get();
  if (!s->consumed) {
    if (obs_.prefetch_wasted != nullptr) obs_.prefetch_wasted->add(1);
    fs.stats.prefetch_wasted += 1;
  }
  pool_.release(std::move(s->chunk));
  fs.slots.pop_front();
}

void Readahead::top_up_locked(const FileEntry* entry, FileState& fs, std::uint64_t next,
                              unsigned window) {
  const std::size_t chunk_bytes = pool_.chunk_size();
  // The window is contiguous: new reads start where coverage ends.
  std::uint64_t cover_end = next;
  if (!fs.slots.empty()) {
    cover_end = std::max(cover_end, fs.slots.back()->offset + fs.slots.back()->want);
  }
  while (fs.slots.size() < window && cover_end < fs.eof_at) {
    // Opportunistic only: never starve checkpoint writers of chunks.
    auto chunk = pool_.try_acquire(cover_end);
    if (chunk == nullptr) break;
    chunk->reset(cover_end);
    auto slot = std::make_unique<Slot>();
    slot->chunk = std::move(chunk);
    slot->offset = cover_end;
    slot->want = std::min<std::size_t>(chunk_bytes, slot->chunk->capacity());
    auto r = backend_.pread(entry->backend_file(),
                            slot->chunk->mutable_storage().first(slot->want), cover_end);
    if (r.ok()) {
      slot->valid = r.value();
      slot->chunk->set_fill(slot->valid);
      // Short read = EOF inside the slot: stop the window from issuing
      // further reads past the end of the file.
      if (slot->valid < slot->want) fs.eof_at = std::min(fs.eof_at, cover_end + slot->valid);
    } else {
      // The serve retries the range with a blocking pread, which reports
      // the error if it persists.
      slot->failed = true;
    }
    fs.slots.push_back(std::move(slot));
    if (obs_.prefetch_issued != nullptr) obs_.prefetch_issued->add(1);
    fs.stats.prefetch_issued += 1;
    cover_end += chunk_bytes;
  }
}

void Readahead::finalize_locked(FileState& fs) {
  if (fs.stats.ops == 0) return;
  fs.stats.active = false;
  ledger_.push_back(fs.stats);
  while (ledger_.size() > ledger_capacity_) ledger_.pop_front();
}

}  // namespace crfs
