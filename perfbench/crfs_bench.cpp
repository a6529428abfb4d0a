// CRFS checkpoint/restart benchmark: one process drives a workload through
// the public FuseShim -> Crfs -> BackendFs API and prints one JSON result
// line (see run.py for the command-line contract).
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   restart_blcr       closed loop of coordinated restore rounds (every rank
//                      restores its images) over a read-throttled
//                      ThrottledBackend(posix) with readahead on, replaying
//                      RestartReader's recorded read sequence.
//   tiered_epochs      open loop: an epoch is due every period; each rank
//                      replays pre-rendered BLCR images write by write; they go
//                      through TieredBackend(stage=ThrottledBackend(posix),
//                      remote=ThrottledBackend(mem)) with stage_cap below
//                      two epochs.
//
// The BLCR generator and RestartReader's CRC run only in set-up: the timed
// window replays recorded write/read sequences from memory. Every byte is
// verified after every epoch, outside the epoch's timing.
//
// --trace 0 measures the end-to-end metrics with no timing decorator or
// span in the path.
// --trace 1 runs half the time untraced and half on a fresh mount with
// timing decorators and spans, and reports the per-layer metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "backend/tiered_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/rng.h"
#include "crfs/crfs.h"
#include "crfs/fuse_shim.h"
#include "layer_trace.h"

namespace {

using namespace crfs;
using perfbench::BackendLayer;
using perfbench::now_ns;
using perfbench::ScopedSpan;
using perfbench::SpanLog;
using perfbench::TimingBackend;

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr unsigned kSetupRepeats = 5;
// tiered_epochs rotates epochs over this many directories. With stage_cap
// below two epochs, a slot's previous epoch has been drained and evicted
// before the slot is truncated again, so every staged byte drains.
constexpr unsigned kTierSlots = 3;

struct Spec {
  std::string name;
  unsigned files_per_rank = 1;
  std::uint64_t file_bytes = 0;
  bool restart = false;
  bool tiered = false;
  double tail_pct = 90.0;  // chosen so a run keeps >= 10 samples beyond it
  // restart_blcr: the read-throttled backend standing in for a remote PFS.
  double read_bytes_per_s = 0;
  std::chrono::microseconds read_op_latency{0};
  // tiered_epochs: open-loop period, stage and remote bandwidth, stage cap
  // in epochs.
  double period_ms = 0;
  double stage_bytes_per_s = 0;
  double remote_bytes_per_s = 0;
  double stage_cap_epochs = 0;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = [] {
    std::vector<Spec> v;
    Spec restart;
    restart.name = "restart_blcr";
    restart.files_per_rank = 2;
    restart.file_bytes = 6 * kMiB;
    restart.restart = true;
    restart.tail_pct = 80.0;
    restart.read_bytes_per_s = 2.0 * kGiB;
    restart.read_op_latency = std::chrono::microseconds(100);
    v.push_back(restart);

    Spec tiered;
    tiered.name = "tiered_epochs";
    // No more files than chunks, so no steals here. Three chunks per file:
    // with one partial chunk per file, whether the IO threads batched two
    // files' closes into one worker flipped epochs between two times.
    tiered.files_per_rank = 1;
    tiered.file_bytes = 12 * kMiB;
    tiered.tiered = true;
    tiered.tail_pct = 80.0;
    tiered.period_ms = 300.0;
    tiered.stage_bytes_per_s = 256.0 * kMiB;
    tiered.remote_bytes_per_s = 800.0 * kMiB;
    tiered.stage_cap_epochs = 1.5;
    v.push_back(tiered);
    return v;
  }();
  return all;
}

unsigned rank_count() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// ---------------------------------------------------------------------------
// Statistics and process probes

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// VmRSS / VmHWM from /proc/self/status, in MiB.
double proc_status_mib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

// Resets VmHWM to the current RSS, so the peak covers only what follows.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Pre-rendered inputs

struct Image {
  std::string path;
  std::vector<std::byte> bytes;
  std::vector<std::uint64_t> writes;  // application write sizes, in order
  std::vector<std::uint64_t> reads;   // RestartReader read sizes, in order
  std::uint64_t crc = 0;
};

class RecordingSink final : public blcr::ByteSink {
 public:
  explicit RecordingSink(Image& img) : img_(img) {}
  Status write(std::span<const std::byte> data) override {
    img_.bytes.insert(img_.bytes.end(), data.begin(), data.end());
    img_.writes.push_back(data.size());
    return {};
  }

 private:
  Image& img_;
};

// Renders one BLCR image in memory with its write- and read-size sequences.
// The memory map (and so the write-size sequence) depends only on `pid`:
// it is part of the workload, like one application's rank image. `seed`
// picks the payload bytes. Seeded layouts moved epoch times by more than
// run-to-run noise, which no bound could then separate from a change.
Result<Image> render_blcr(std::uint32_t pid, std::uint64_t bytes, std::uint64_t seed,
                          std::string path) {
  Image img;
  img.path = std::move(path);
  auto proc = blcr::ProcessImage::synthesize(pid, bytes, pid);
  SplitMix64 content(seed);
  for (auto& vma : proc.vmas) vma.content_seed = content.next();
  img.bytes.reserve(proc.content_bytes() + 256 * 1024);
  RecordingSink sink(img);
  auto crc = blcr::CheckpointWriter::write_image(proc, sink);
  if (!crc.ok()) return crc.error();
  img.crc = crc.value();

  std::uint64_t cursor = 0;
  blcr::FnSource source([&](std::span<std::byte> out) -> Result<std::size_t> {
    const std::size_t n =
        std::min<std::uint64_t>(out.size(), img.bytes.size() - cursor);
    std::memcpy(out.data(), img.bytes.data() + cursor, n);
    cursor += n;
    img.reads.push_back(out.size());
    return n;
  });
  auto summary = blcr::RestartReader::read_image(source);
  if (!summary.ok()) return summary.error();
  if (summary.value().payload_crc != img.crc || cursor != img.bytes.size()) {
    return Error{EILSEQ, "rendered image does not read back: " + img.path};
  }
  return img;
}

// ---------------------------------------------------------------------------
// Failure accounting: every API call and every verification is attempted;
// non-ok statuses and mismatches are failures.

struct Outcome {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mu;
  std::string first_error;

  // The message is built only on failure: checks sit on the timed path.
  bool check(bool ok, const char* what, const std::string& path = {}) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) fail(std::string(what) + " " + path);
    return ok;
  }
  bool check(const Status& st, const char* what, const std::string& path = {}) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) fail(std::string(what) + " " + path + ": " + st.error().to_string());
    return st.ok();
  }

 private:
  void fail(std::string msg) {
    failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mu);
    if (first_error.empty()) first_error = std::move(msg);
  }
};

// ---------------------------------------------------------------------------
// Rank threads released together once per epoch.

class Crew {
 public:
  Crew(unsigned n, std::function<void(unsigned)> body) : body_(std::move(body)) {
    for (unsigned r = 0; r < n; ++r) threads_.emplace_back([this, r] { loop(r); });
  }
  ~Crew() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  // Runs the body once on every rank and waits for all of them.
  void run_epoch() {
    std::unique_lock lock(mu_);
    ++generation_;
    pending_ = static_cast<unsigned>(threads_.size());
    cv_.notify_all();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void loop(unsigned rank) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      body_(rank);
      std::lock_guard lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  std::function<void(unsigned)> body_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the state above dies
};

// ---------------------------------------------------------------------------
// Mounts

struct Mount {
  std::shared_ptr<BackendFs> data;    // posix data directory (verification)
  std::shared_ptr<BackendFs> remote;  // tier remote posix directory, if tiered
  std::shared_ptr<TimingBackend> timed;
  std::shared_ptr<TimingBackend> stage_timed;
  std::shared_ptr<TimingBackend> remote_timed;
  std::unique_ptr<Crfs> fs;
  std::unique_ptr<FuseShim> shim;  // after fs: destroyed first
};

Result<std::shared_ptr<BackendFs>> posix_at(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Error{EIO, "mkdir " + dir.string() + ": " + ec.message()};
  auto be = PosixBackend::create(dir.string());
  if (!be.ok()) return be.error();
  return std::shared_ptr<BackendFs>(std::move(be).value());
}

// `throttled` puts restart_blcr's read throttle in the path (its images are
// written in set-up without it); `log` non-null adds timing decorators.
Result<Mount> make_mount(const Spec& spec, const std::filesystem::path& dir, bool throttled,
                         SpanLog* log) {
  Mount m;
  auto data = posix_at(dir / "data");
  if (!data.ok()) return data.error();
  m.data = data.value();
  std::shared_ptr<BackendFs> backend = m.data;
  const std::uint64_t epoch_bytes = spec.file_bytes * spec.files_per_rank * rank_count();
  if (spec.tiered) {
    // The remote is modelled by its throttle alone. Over a posix directory
    // the drain's remote fsync would also flush the stage's dirty pages on
    // this filesystem and make stage writes wait for the machine's disk.
    m.remote = std::make_shared<MemBackend>();
    std::shared_ptr<BackendFs> stage =
        std::make_shared<ThrottledBackend>(m.data, spec.stage_bytes_per_s);
    std::shared_ptr<BackendFs> slow =
        std::make_shared<ThrottledBackend>(m.remote, spec.remote_bytes_per_s);
    if (log != nullptr) {
      m.stage_timed = std::make_shared<TimingBackend>(stage, BackendLayer::kStage, log);
      m.remote_timed = std::make_shared<TimingBackend>(slow, BackendLayer::kRemote, log);
      stage = m.stage_timed;
      slow = m.remote_timed;
    }
    TieredOptions topts;
    topts.stage_cap =
        static_cast<std::uint64_t>(spec.stage_cap_epochs * static_cast<double>(epoch_bytes));
    backend = std::make_shared<TieredBackend>(stage, slow, topts);
  } else {
    if (throttled && spec.restart) {
      auto t = std::make_shared<ThrottledBackend>(backend, spec.read_bytes_per_s,
                                                  spec.read_op_latency);
      t->throttle_reads(true);
      backend = t;
    }
    if (log != nullptr) {
      m.timed = std::make_shared<TimingBackend>(backend, BackendLayer::kBackend, log);
      backend = m.timed;
    }
  }
  // Paper defaults: 4 MiB chunk, 16 MiB pool, 4 IO threads, big_writes.
  auto fs = Crfs::mount(backend, Config{});
  if (!fs.ok()) return fs.error();
  m.fs = std::move(fs).value();
  m.shim = std::make_unique<FuseShim>(*m.fs, FuseOptions{});
  // Epoch k writes slot k % kTierSlots. The tier returns the remote's
  // mkdir status and ignores the stage's, so a slot that already exists
  // is not an error.
  for (unsigned s = 0; spec.tiered && s < kTierSlots; ++s) {
    auto st = m.fs->mkdir("s" + std::to_string(s));
    if (!st.ok() && st.error().code != EEXIST) return st.error();
  }
  return m;
}

// Reads `path` straight from `be` (restart without CRFS) and compares it
// with `want`, byte for byte.
bool same_on_backend(BackendFs& be, const std::string& path, const std::vector<std::byte>& want,
                     std::vector<std::byte>& buf) {
  auto f = be.open_file(path, OpenFlags{});
  if (!f.ok()) return false;
  buf.resize(want.size() + 4096);
  std::size_t got = 0;
  bool ok = true;
  while (got < buf.size()) {
    auto r = be.pread(f.value(), std::span(buf).subspan(got), got);
    if (!r.ok()) {
      ok = false;
      break;
    }
    if (r.value() == 0) break;
    got += r.value();
  }
  ok = ok && be.close_file(f.value()).ok();
  return ok && got == want.size() && std::memcmp(buf.data(), want.data(), got) == 0;
}

// RestartReader over BackendSource: the image parses and its CRC matches.
bool restarts_from_backend(BackendFs& be, const std::string& path, std::uint64_t crc) {
  auto f = be.open_file(path, OpenFlags{});
  if (!f.ok()) return false;
  blcr::BackendSource source(be, f.value());
  auto summary = blcr::RestartReader::read_image(source);
  const bool closed = be.close_file(f.value()).ok();
  return closed && summary.ok() && summary.value().payload_crc == crc;
}

// ---------------------------------------------------------------------------
// Registry deltas across a timed window

struct Window {
  obs::Registry::Snapshot reg;
  MountStats::Snapshot mount;
  std::uint64_t chunks_written = 0;
  TierStats tier;
};

Window capture(Crfs& fs) {
  Window w;
  w.reg = fs.metrics().snapshot();
  w.mount = fs.stats().snapshot();
  w.chunks_written = fs.backend_chunks_written();
  if (fs.tiered_backend() != nullptr) w.tier = fs.tiered_backend()->tier_stats();
  return w;
}

std::uint64_t counter(const obs::Registry::Snapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

obs::HistogramSnapshot histogram(const obs::Registry::Snapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return h;
  }
  return {};
}

obs::HistogramSnapshot hist_delta(const Window& a, const Window& b, const std::string& name) {
  const auto x = histogram(a.reg, name);
  auto y = histogram(b.reg, name);
  y.count -= x.count;
  y.sum -= x.sum;
  for (int i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) y.buckets[i] -= x.buckets[i];
  return y;
}

std::uint64_t counter_delta(const Window& a, const Window& b, const std::string& name) {
  return counter(b.reg, name) - counter(a.reg, name);
}

// ---------------------------------------------------------------------------
// One timed window on one mount

struct WindowResult {
  std::vector<double> op_ms;     // coordinated epoch (or restore round) times
  std::vector<double> first_ms;  // open -> first byte accepted / returned
  std::uint64_t app_bytes = 0;
  std::uint64_t epochs = 0;
  std::uint64_t images = 0;
  double cpu_s = 0;
  double mem_peak_mib = 0;
  double sched_late_ms_max = 0;
  std::vector<double> drain_lag_ms;
  Window before;
  Window after;
  std::vector<perfbench::Span> spans;

  // One op's application bytes over the median op time. A mean over the
  // window let a few slow epochs move it by more than any bound allows.
  double mib_s() const {
    return epochs > 0 ? app_bytes / double(kMiB) / double(epochs) / (median(op_ms) / 1e3) : 0;
  }
};

class Runner {
 public:
  Runner(const Spec& spec, std::uint64_t seed, Outcome& outcome)
      : spec_(spec), seed_(seed), out_(outcome), ranks_(rank_count()) {}

  // Renders inputs, prepares a scratch directory and mounts. Repeatable:
  // each call starts from nothing and replaces the previous state.
  bool setup(const std::filesystem::path& dir);

  // Measures for `seconds` on a fresh mount (`log` non-null: traced).
  WindowResult measure(double seconds, SpanLog* log);

  // After a window: the tier's drain checks and remote copies, then
  // RestartReader + CRC over BackendSource, one image per rank.
  void final_checks();

  // Unmounts, joining the IO threads (their spans become readable); the
  // timing decorators stay available through mount().
  void unmount() {
    mount_.shim.reset();
    mount_.fs.reset();
  }
  const Mount& mount() const { return mount_; }

 private:
  std::string file_path(unsigned slot, const Image& img) const {
    return spec_.tiered ? "s" + std::to_string(slot) + "/" + img.path : img.path;
  }
  void write_body(unsigned rank, unsigned slot, SpanLog* log,
                  std::vector<std::vector<double>>& first_ms,
                  std::vector<std::uint64_t>& rank_end);
  void restore_body(unsigned rank, SpanLog* log, std::vector<std::vector<double>>& first_ms);
  bool verify_epoch(unsigned slot);
  void restart_check(BackendFs& be, unsigned slot);
  bool write_images_for_restart();

  const Spec& spec_;
  std::uint64_t seed_;
  Outcome& out_;
  unsigned ranks_;
  std::filesystem::path dir_;
  std::vector<std::vector<Image>> images_;           // [rank][file]
  std::vector<std::vector<std::vector<std::byte>>> dest_;  // restore buffers
  std::vector<std::byte> verify_buf_;
  Mount mount_;
  double baseline_rss_ = 0;
  unsigned slots_used_ = 0;
};

bool Runner::setup(const std::filesystem::path& dir) {
  mount_ = Mount{};
  images_.clear();
  dest_.clear();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  dir_ = dir;

  images_.resize(ranks_);
  for (unsigned r = 0; r < ranks_; ++r) {
    for (unsigned f = 0; f < spec_.files_per_rank; ++f) {
      const std::string path = "r" + std::to_string(r) + "_f" + std::to_string(f) + ".ckpt";
      const std::uint64_t s = seed_ * 1000003ULL + r * 131 + f;
      auto img = render_blcr(1000 + r * 16 + f, spec_.file_bytes, s, path);
      if (!out_.check(img.ok(), "render", path)) return false;
      images_[r].push_back(std::move(img).value());
    }
  }
  if (spec_.restart) {
    dest_.resize(ranks_);
    for (unsigned r = 0; r < ranks_; ++r) {
      for (const auto& img : images_[r]) dest_[r].emplace_back(img.bytes.size());
    }
  }
  verify_buf_.assign(spec_.file_bytes * 2 + 4096, std::byte{0});
  baseline_rss_ = proc_status_mib("VmRSS");

  auto m = make_mount(spec_, dir_, false, nullptr);
  if (!out_.check(m.ok(), "mount")) return false;
  mount_ = std::move(m).value();
  if (spec_.restart) {
    if (!write_images_for_restart()) return false;
    mount_ = Mount{};
    auto rm = make_mount(spec_, dir_, true, nullptr);
    if (!out_.check(rm.ok(), "restore mount")) return false;
    mount_ = std::move(rm).value();
  }
  return true;
}

bool Runner::write_images_for_restart() {
  for (unsigned r = 0; r < ranks_; ++r) {
    for (const auto& img : images_[r]) {
      auto h = mount_.shim->open(img.path, {.create = true, .truncate = true, .write = true});
      if (!out_.check(h.ok(), "open", img.path)) return false;
      std::uint64_t off = 0;
      for (std::uint64_t n : img.writes) {
        if (!out_.check(mount_.shim->write(h.value(), std::span(img.bytes).subspan(off, n), off),
                        "write", img.path)) {
          return false;
        }
        off += n;
      }
      if (!out_.check(mount_.shim->close(h.value()), "close", img.path)) return false;
      if (!out_.check(same_on_backend(*mount_.data, img.path, img.bytes, verify_buf_),
                      "verify written", img.path)) {
        return false;
      }
    }
  }
  return true;
}

void Runner::write_body(unsigned rank, unsigned slot, SpanLog* log,
                        std::vector<std::vector<double>>& first_ms,
                        std::vector<std::uint64_t>& rank_end) {
  ScopedSpan rank_span(log, "bench.rank");
  FuseShim& shim = *mount_.shim;
  const auto& files = images_[rank];
  struct Cursor {
    Crfs::FileHandle h = 0;
    bool open = false;
    std::size_t next = 0;
    std::uint64_t off = 0;
    std::uint64_t opened_ns = 0;
  };
  std::vector<Cursor> cur(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    cur[f].opened_ns = now_ns();
    auto h = shim.open(file_path(slot, files[f]),
                       {.create = true, .truncate = true, .write = true});
    if (out_.check(h.ok(), "open", files[f].path)) {
      cur[f].h = h.value();
      cur[f].open = true;
    }
  }
  for (bool more = true; more;) {
    more = false;
    for (std::size_t f = 0; f < files.size(); ++f) {
      Cursor& c = cur[f];
      if (!c.open || c.next == files[f].writes.size()) continue;
      const std::uint64_t n = files[f].writes[c.next];
      Status st;
      {
        ScopedSpan s(log, "fuse_shim.write");
        st = shim.write(c.h, std::span(files[f].bytes).subspan(c.off, n), c.off);
      }
      if (c.next == 0) first_ms[rank].push_back((now_ns() - c.opened_ns) / 1e6);
      out_.check(st, "write", files[f].path);
      c.off += n;
      ++c.next;
      more = true;
    }
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (!cur[f].open) continue;
    ScopedSpan s(log, "fuse_shim.close");
    out_.check(shim.close(cur[f].h), "close", files[f].path);
  }
  rank_end[rank] = now_ns();
}

void Runner::restore_body(unsigned rank, SpanLog* log,
                          std::vector<std::vector<double>>& first_ms) {
  ScopedSpan rank_span(log, "bench.rank");
  FuseShim& shim = *mount_.shim;
  for (std::size_t f = 0; f < images_[rank].size(); ++f) {
    const Image& img = images_[rank][f];
    std::vector<std::byte>& dest = dest_[rank][f];
    const std::uint64_t t0 = now_ns();
    auto h = shim.open(img.path, OpenFlags{});
    if (!out_.check(h.ok(), "open", img.path)) continue;
    std::uint64_t off = 0;
    for (std::uint64_t n : img.reads) {
      Result<std::size_t> r = std::size_t{0};
      {
        ScopedSpan s(log, "fuse_shim.read");
        r = shim.read(h.value(), std::span(dest).subspan(off, n), off);
      }
      if (off == 0) first_ms[rank].push_back((now_ns() - t0) / 1e6);
      if (!out_.check(r.ok() && r.value() == n, "read", img.path)) break;
      off += n;
    }
    {
      ScopedSpan s(log, "fuse_shim.close");
      out_.check(shim.close(h.value()), "close", img.path);
    }
  }
}

bool Runner::verify_epoch(unsigned slot) {
  // Straight from the backend under the mount (the tier serves staged
  // ranges from its stage and drained ones from the remote).
  BackendFs& be = spec_.tiered ? mount_.fs->backend() : *mount_.data;
  bool ok = true;
  for (const auto& files : images_) {
    for (const auto& img : files) {
      ok &= out_.check(same_on_backend(be, file_path(slot, img), img.bytes, verify_buf_),
                       "verify", file_path(slot, img));
    }
  }
  return ok;
}

WindowResult Runner::measure(double seconds, SpanLog* log) {
  WindowResult res;
  if (log != nullptr || mount_.fs == nullptr) {
    mount_ = Mount{};
    auto m = make_mount(spec_, dir_, true, log);
    if (!out_.check(m.ok(), "mount")) return res;
    mount_ = std::move(m).value();
  }
  std::fprintf(stderr, "%s window on %s: %s, write engine %s, read engine %s\n",
               log != nullptr ? "traced" : "untraced", mount_.fs->backend().name().c_str(),
               mount_.fs->config().describe().c_str(), mount_.fs->active_io_engine(),
               mount_.fs->active_read_engine());
  std::vector<std::vector<double>> first_ms(ranks_);
  std::vector<std::uint64_t> rank_end(ranks_, 0);
  unsigned slot = 0;
  Crew crew(ranks_, [&](unsigned r) {
    if (spec_.restart) {
      restore_body(r, log, first_ms);
    } else {
      write_body(r, slot, log, first_ms, rank_end);
    }
  });

  std::uint64_t bytes_per_epoch = 0;
  for (const auto& files : images_) {
    for (const auto& img : files) bytes_per_epoch += img.bytes.size();
  }

  out_.check(reset_peak_rss(), "reset VmHWM");
  res.before = capture(*mount_.fs);
  const std::uint64_t t_begin = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const auto period_ns = static_cast<std::uint64_t>(spec_.period_ms * 1e6);
  for (std::uint64_t k = 0; res.epochs == 0 || now_ns() - t_begin < budget_ns; ++k) {
    slot = static_cast<unsigned>(k % kTierSlots);
    if (log != nullptr) log->set_trace_id(k + 1);
    if (spec_.tiered) {
      out_.check(mount_.fs->epoch_begin("e" + std::to_string(k)), "epoch_begin");
    }
    std::uint64_t start = now_ns();
    if (spec_.tiered) {
      // Open loop: epoch k is due at t_begin + k * period, however late
      // the previous one ran; its time counts from when it was due.
      const std::uint64_t due = t_begin + k * period_ns;
      if (start < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - start));
      }
      start = now_ns();
      res.sched_late_ms_max = std::max(res.sched_late_ms_max, (start - std::min(start, due)) / 1e6);
      start = due;
    }
    const double cpu0 = cpu_seconds();
    {
      ScopedSpan s(log, "bench.epoch");
      crew.run_epoch();
    }
    const double cpu1 = cpu_seconds();
    const std::uint64_t end =
        spec_.restart ? now_ns() : *std::max_element(rank_end.begin(), rank_end.end());
    res.cpu_s += cpu1 - cpu0;
    res.app_bytes += bytes_per_epoch;
    res.images += static_cast<std::uint64_t>(ranks_) * spec_.files_per_rank;
    ++res.epochs;
    res.op_ms.push_back((end - start) / 1e6);
    if (spec_.tiered) out_.check(mount_.fs->epoch_end(), "epoch_end");

    // Verification, outside the epoch's timing.
    if (spec_.restart) {
      for (unsigned r = 0; r < ranks_; ++r) {
        for (std::size_t f = 0; f < images_[r].size(); ++f) {
          out_.check(dest_[r][f] == images_[r][f].bytes, "restored bytes", images_[r][f].path);
        }
      }
    } else {
      verify_epoch(slot);
    }
  }
  slots_used_ = std::max<unsigned>(slots_used_, std::min<std::uint64_t>(res.epochs, kTierSlots));
  if (spec_.tiered) {
    auto* tier = mount_.fs->tiered_backend();
    out_.check(tier->flush(), "tier flush");
    for (const auto& e : mount_.fs->epochs()) {
      if (e.drain_end_ns > e.end_ns && e.end_ns >= t_begin) {
        res.drain_lag_ms.push_back((e.drain_end_ns - e.end_ns) / 1e6);
      }
    }
  }
  res.after = capture(*mount_.fs);
  res.mem_peak_mib = proc_status_mib("VmHWM") - baseline_rss_;
  for (auto& v : first_ms) res.first_ms.insert(res.first_ms.end(), v.begin(), v.end());

  return res;
}

void Runner::final_checks() {
  if (spec_.tiered) {
    auto* tier = mount_.fs->tiered_backend();
    out_.check(tier->flush(), "tier flush");
    const TierStats ts = tier->tier_stats();
    out_.check(ts.drained_bytes == ts.staged_bytes && ts.spill_bytes == 0,
               "tier drained == staged");
    for (unsigned s = 0; s < slots_used_; ++s) {
      for (const auto& files : images_) {
        for (const auto& img : files) {
          out_.check(same_on_backend(*mount_.remote, file_path(s, img), img.bytes, verify_buf_),
                     "remote copy", file_path(s, img));
        }
      }
    }
  }
  restart_check(spec_.tiered ? *mount_.remote : *mount_.data, 0);
}

void Runner::restart_check(BackendFs& be, unsigned slot) {
  for (const auto& files : images_) {
    const std::string path = file_path(slot, files.front());
    out_.check(restarts_from_backend(be, path, files.front().crc), "RestartReader CRC", path);
  }
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms, bool correct, std::uint64_t attempted,
                         std::uint64_t failed) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << fmt(ms[i].value)
      << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

std::string pct_label(double p) {
  std::string s = fmt(p);
  std::replace(s.begin(), s.end(), '.', '_');
  return "p" + s;
}

std::vector<Metric> end_to_end(const Spec& spec, const WindowResult& w, double setup_s) {
  const double gib = w.app_bytes / kGiB;
  const double q = spec.tail_pct / 100.0;
  if (static_cast<double>(w.op_ms.size()) * (1.0 - q) < 10.0) {
    std::fprintf(stderr, "warning: %zu samples leave fewer than 10 beyond %s\n", w.op_ms.size(),
                 pct_label(spec.tail_pct).c_str());
  }
  std::fprintf(stderr, "op_ms_tail is %s of %zu samples\n", pct_label(spec.tail_pct).c_str(),
               w.op_ms.size());
  return {
      {"setup_s", setup_s, "s"},
      {"io_mib_s", w.mib_s(), "MiB/s"},
      {"op_ms_p50", median(w.op_ms), "ms"},
      {"op_ms_tail", quantile(w.op_ms, q), "ms"},
      {"cpu_ms_per_gib", ratio(w.cpu_s * 1e3, gib), "ms/GiB"},
      {"mem_peak_mib", w.mem_peak_mib, "MiB"},
  };
}

std::vector<Metric> per_layer(const Spec& spec, const WindowResult& w, const Mount& m,
                              double untraced_mib_s) {
  std::map<std::string, std::vector<double>> by_name;  // span durations, ns
  for (const auto& s : w.spans) by_name[s.name].push_back(double(s.end_ns - s.start_ns));
  auto q = [&](const char* name, double p) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : quantile(it->second, p);
  };
  auto count = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  const Window& a = w.before;
  const Window& b = w.after;
  const double epochs = static_cast<double>(w.epochs);
  const double app_bytes = static_cast<double>(w.app_bytes);
  const double written = spec.restart ? 0.0 : app_bytes;
  const double app_writes = count("fuse_shim.write");
  const double app_reads = count("fuse_shim.read");
  const double write_tail = app_writes * 0.001 >= 10 ? 0.999 : 0.99;

  const auto copy = hist_delta(a, b, "crfs.write.copy_ns");
  const auto pool_wait = hist_delta(a, b, "crfs.write.pool_wait_ns");
  const auto queue_wait = hist_delta(a, b, "crfs.queue.wait_ns");
  const auto lag = hist_delta(a, b, "crfs.chunk.durability_lag_ns");
  const auto pwrite = hist_delta(a, b, "crfs.io.pwrite_ns");

  double bw_calls = 0, bw_bytes = 0, bw_ns = 0, br_calls = 0, br_bytes = 0, br_ns = 0;
  if (m.timed != nullptr) {
    bw_calls = m.timed->writes.calls;
    bw_bytes = m.timed->writes.bytes;
    bw_ns = m.timed->writes.ns;
    br_calls = m.timed->reads.calls;
    br_bytes = m.timed->reads.bytes;
    br_ns = m.timed->reads.ns;
  }
  if (m.stage_timed != nullptr) {
    bw_calls = m.stage_timed->writes.calls + m.remote_timed->writes.calls;
    bw_bytes = m.stage_timed->writes.bytes + m.remote_timed->writes.bytes;
    bw_ns = m.stage_timed->writes.ns + m.remote_timed->writes.ns;
  }
  auto ns_per_byte = [](const std::shared_ptr<TimingBackend>& t) {
    return t == nullptr ? 0.0 : ratio(double(t->writes.ns), double(t->writes.bytes));
  };
  const double images = static_cast<double>(w.images);

  std::vector<Metric> v = {
      {"fuse_shim.write_ns_p50", q("fuse_shim.write", 0.5), "ns"},
      {"fuse_shim.write_ns_tail", q("fuse_shim.write", write_tail), "ns"},
      {"fuse_shim.requests_per_app_write",
       ratio(double(b.mount.app_writes - a.mount.app_writes), app_writes), "ratio"},
      {"crfs.write.copy_ns_per_byte", ratio(double(copy.sum), written), "ns/B"},
      {"crfs.write.pool_wait_ms", ratio(pool_wait.sum / 1e6, spec.restart ? 0 : epochs),
       "ms/epoch"},
      {"crfs.mount.chunk_steals_per_epoch",
       ratio(double(b.mount.chunk_steals - a.mount.chunk_steals), spec.restart ? 0 : epochs),
       "count"},
      {"crfs.mount.partial_flushes_per_epoch",
       ratio(double(b.mount.partial_flushes - a.mount.partial_flushes),
             spec.restart ? 0 : epochs),
       "count"},
      {"crfs.write.bypass_frac", ratio(double(counter_delta(a, b, "crfs.write.bypass_bytes")), written),
       "ratio"},
      {"fuse_shim.close_ms_p50", q("fuse_shim.close", 0.5) / 1e6, "ms"},
      {"work_queue.wait_ns_p50", queue_wait.p50(), "ns"},
      {"io_pool.chunks_per_backend_write",
       ratio(double(b.chunks_written - a.chunks_written), double(pwrite.count)), "ratio"},
      {"io_pool.durability_lag_ms_p50", lag.p50() / 1e6, "ms"},
      {"backend.write_ns_per_byte", ratio(bw_ns, bw_bytes), "ns/B"},
      {"backend.write_calls_per_gib", ratio(bw_calls, written / kGiB), "1/GiB"},
      {"backend.write_bytes_per_app_byte", ratio(bw_bytes, written), "ratio"},
      {"fuse_shim.read_ns_p50", q("fuse_shim.read", 0.5), "ns"},
      {"fuse_shim.first_byte_ms_p50", median(w.first_ms), "ms"},
      {"readahead.hit_ratio",
       ratio(double(counter_delta(a, b, "crfs.read.prefetch_hits")),
             double(counter_delta(a, b, "crfs.read.prefetch_issued"))),
       "ratio"},
      {"readahead.wasted", double(counter_delta(a, b, "crfs.read.prefetch_wasted")), "count"},
      {"readahead.sync_preads_per_image",
       ratio(double(counter_delta(a, b, "crfs.read.sync_preads")), spec.restart ? images : 0),
       "count"},
      {"backend.read_calls_per_app_read", ratio(br_calls, app_reads), "ratio"},
      {"backend.read_ns_per_byte", ratio(br_ns, br_bytes), "ns/B"},
      {"tiered.stage.write_ns_per_byte", ns_per_byte(m.stage_timed), "ns/B"},
      {"tiered.remote.write_ns_per_byte", ns_per_byte(m.remote_timed), "ns/B"},
      {"tiered.stalls", double(b.tier.stalls - a.tier.stalls), "count"},
      {"tiered.stall_ms", (b.tier.stall_ns - a.tier.stall_ns) / 1e6, "ms"},
      {"tiered.drained_per_staged_byte",
       ratio(double(b.tier.drained_bytes - a.tier.drained_bytes),
             double(b.tier.staged_bytes - a.tier.staged_bytes)),
       "ratio"},
      {"tiered.drain_lag_ms_p50", median(w.drain_lag_ms), "ms"},
      {"bench.sched_late_ms_max", w.sched_late_ms_max, "ms"},
      {"bench.trace_overhead_pct", (ratio(untraced_mib_s, w.mib_s()) - 1.0) * 100.0, "%"},
  };
  return v;
}

// Self time per layer in ns per application byte, split further with the
// mount's own stage histograms where outside timing cannot see inside.
void print_layer_table(const WindowResult& w) {
  auto self = perfbench::self_time_ns(w.spans);
  const double copy = double(hist_delta(w.before, w.after, "crfs.write.copy_ns").sum);
  const double pool = double(hist_delta(w.before, w.after, "crfs.write.pool_wait_ns").sum);
  const double queue = double(hist_delta(w.before, w.after, "crfs.queue.wait_ns").sum);
  for (auto& [name, ns] : self) {
    if (name == "fuse_shim.write") ns = std::max(0.0, ns - copy - pool);
  }
  self.emplace_back("crfs.write.copy (registry)", copy);
  self.emplace_back("crfs.write.pool_wait (registry)", pool);
  self.emplace_back("work_queue.wait (registry)", queue);
  std::fprintf(stderr, "%-34s %14s %12s\n", "layer (self time)", "ms", "ns/byte");
  for (const auto& [name, ns] : self) {
    std::fprintf(stderr, "%-34s %14.3f %12.4f\n", name.c_str(), ns / 1e6,
                 ratio(ns, double(w.app_bytes)));
  }
}

// Chrome trace_event JSON of the first spans, for a timeline viewer.
void write_trace(const std::vector<perfbench::Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const std::size_t n = std::min<std::size_t>(spans.size(), 100000);
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << fmt((s.start_ns - std::min(t0, s.start_ns)) / 1e3)
        << ",\"dur\":" << fmt((s.end_ns - s.start_ns) / 1e3) << ",\"args\":{\"epoch\":"
        << s.trace_id << "}}";
  }
  out << "\n]}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: crfs_bench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 64;
  }
  const Spec* spec = nullptr;
  for (const auto& s : specs()) {
    if (s.name == args.workload) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 64;
  }
  // Pin glibc's mmap threshold: with the dynamic threshold, chunks freed by
  // an earlier set-up would be recycled from the heap and hide the mount's
  // memory from mem_peak_mib.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  const std::filesystem::path scratch = std::filesystem::current_path() / ".bench_scratch" /
                                        (spec->name + "-" + std::to_string(getpid()));
  Outcome outcome;
  Runner runner(*spec, args.seed, outcome);
  std::vector<double> setups;
  bool ready = true;
  for (unsigned i = 0; i < kSetupRepeats && ready; ++i) {
    const std::uint64_t t0 = now_ns();
    ready = runner.setup(scratch);
    setups.push_back((now_ns() - t0) / 1e9);
  }
  const double setup_s = median(setups);

  std::vector<Metric> metrics;
  if (ready && !args.trace) {
    const WindowResult w = runner.measure(args.seconds, nullptr);
    runner.final_checks();
    metrics = end_to_end(*spec, w, setup_s);
  } else if (ready) {
    const WindowResult plain = runner.measure(args.seconds / 2, nullptr);
    runner.final_checks();
    SpanLog log;
    WindowResult traced = runner.measure(args.seconds / 2, &log);
    runner.final_checks();
    runner.unmount();
    traced.spans = log.collect();
    std::sort(traced.spans.begin(), traced.spans.end(),
              [](const auto& x, const auto& y) { return x.start_ns < y.start_ns; });
    std::filesystem::create_directories(".bench_out");
    write_trace(traced.spans, ".bench_out/" + spec->name + "-seed" + std::to_string(args.seed) +
                                  ".trace.json");
    print_layer_table(traced);
    metrics = per_layer(*spec, traced, runner.mount(), plain.mib_s());
  }
  if (!outcome.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", outcome.first_error.c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  if (!ready) return 1;

  for (const auto& m : metrics) {
    std::fprintf(stderr, "%-40s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
  }
  const std::uint64_t failed = outcome.failed.load();
  std::printf("%s\n", metrics_json(metrics, failed == 0, outcome.attempted.load(), failed).c_str());
  return 0;
}
