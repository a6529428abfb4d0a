// Write-path tests: mount-option plumbing, the overwrite-ordering rule at
// enqueue (a held backend write must never be overtaken by a later
// overlapping one, checked deterministically with a gating backend, plus a
// seeded overwrite workload against a byte-vector model), sticky error
// propagation, and the large-write copy bypass.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/posix_backend.h"
#include "backend/wrappers.h"
#include "common/rng.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/mount_options.h"

namespace crfs {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// Scoped temp dir for PosixBackend mounts.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("crfs_writepath_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::string read_file(const std::filesystem::path& p) {
  std::string out;
  std::FILE* f = std::fopen(p.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// ------------------------------------------------------- mount options

TEST(IoEngineOptions, MountOptionRoundTrip) {
  auto parsed = parse_mount_options("chunk=64K,pool=1M,threads=2,no_bypass");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().config.io_threads, 2u);
  EXPECT_FALSE(parsed.value().config.large_write_bypass);

  const std::string rendered = format_mount_options(parsed.value());
  EXPECT_NE(rendered.find("threads=2"), std::string::npos);
  EXPECT_NE(rendered.find("no_bypass"), std::string::npos);

  auto reparsed = parse_mount_options(rendered);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed.value().config.io_threads, 2u);
  EXPECT_FALSE(reparsed.value().config.large_write_bypass);
}

TEST(IoEngineOptions, DefaultsAreSyncWithBypass) {
  auto parsed = parse_mount_options("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().config.large_write_bypass);
  const std::string rendered = format_mount_options(parsed.value());
  EXPECT_EQ(rendered.find("io_engine"), std::string::npos);
  EXPECT_EQ(rendered.find("no_bypass"), std::string::npos);

  // One write path: the mount and its stats document report "sync".
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), parsed.value().config);
  ASSERT_TRUE(fs.ok());
  EXPECT_STREQ(fs.value()->active_io_engine(), "sync");
  EXPECT_STREQ(fs.value()->active_read_engine(), "sync");
  const std::string json = fs.value()->stats_json();
  EXPECT_NE(json.find("\"io_engine\":\"sync\""), std::string::npos);
  EXPECT_NE(json.find("\"io_engine_requested\":\"sync\""), std::string::npos);
}

TEST(IoEngineOptions, RejectsBadValues) {
  // The io_uring engine is gone: its options are unknown, not ignored.
  EXPECT_FALSE(parse_mount_options("io_engine=uring").ok());
  EXPECT_FALSE(parse_mount_options("io_engine=sync").ok());
  EXPECT_FALSE(parse_mount_options("uring_depth=8").ok());
  // So is the dequeue batch: every IO thread pops exactly one chunk.
  for (const char* retired : {"io_batch=0", "io_batch=1", "io_batch=8",
                              "tune_io_batch_max=256"}) {
    auto parsed = parse_mount_options(retired);
    ASSERT_FALSE(parsed.ok()) << retired;
    EXPECT_EQ(parsed.error().code, EINVAL) << retired;
    EXPECT_NE(parsed.error().to_string().find("unknown mount option"), std::string::npos)
        << retired;
  }
}

TEST(IoEngineOptions, DescribeShowsEngineAndBypass) {
  Config cfg;
  cfg.large_write_bypass = false;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("no_bypass"), std::string::npos);
  EXPECT_EQ(d.find("io_engine"), std::string::npos);
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  ASSERT_TRUE(fs.ok());
  EXPECT_NE(fs.value()->stats_report().find("engine=sync"), std::string::npos);
}

// ------------------------------------------------- overwrite ordering

// Holds the first pwrite of the gated file until a later write that
// overlaps its range reaches the backend (which then lands first and
// records the overtake), or until kHold passes. A pipeline that lets two
// IO threads write overlapping chunks of one file in either order is
// caught deterministically: the later bytes land first and the held, older
// bytes overwrite them.
class OverlapGateBackend final : public BackendFs {
 public:
  static constexpr auto kHold = std::chrono::milliseconds(300);

  OverlapGateBackend(std::shared_ptr<BackendFs> inner, std::string gated_path)
      : inner_(std::move(inner)), gated_path_(std::move(gated_path)) {}

  /// Waits until the first write of the gated file is parked in the gate.
  bool wait_held() {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5), [&] { return holding_; });
  }
  bool overtaken() const {
    std::lock_guard lock(mu_);
    return overtaken_;
  }
  bool held_until_timeout() const {
    std::lock_guard lock(mu_);
    return timed_out_;
  }

  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    std::unique_lock lock(mu_);
    if (f == gated_file_ && !armed_) {
      armed_ = true;
      holding_ = true;
      held_lo_ = off;
      held_hi_ = off + d.size();
      cv_.notify_all();
      if (!cv_.wait_for(lock, kHold, [&] { return overtaken_; })) timed_out_ = true;
      holding_ = false;
      lock.unlock();
      return inner_->pwrite(f, d, off);
    }
    if (f == gated_file_ && holding_ && off < held_hi_ && held_lo_ < off + d.size()) {
      lock.unlock();
      Status st = inner_->pwrite(f, d, off);
      lock.lock();
      overtaken_ = true;
      cv_.notify_all();
      return st;
    }
    lock.unlock();
    return inner_->pwrite(f, d, off);
  }
  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    auto f = inner_->open_file(path, flags);
    if (f.ok() && path == gated_path_) {
      std::lock_guard lock(mu_);
      gated_file_ = f.value();
    }
    return f;
  }
  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    return inner_->pread(f, d, off);
  }
  Status close_file(BackendFile f) override { return inner_->close_file(f); }
  Status fsync(BackendFile f) override { return inner_->fsync(f); }
  Status truncate(BackendFile f, std::uint64_t s) override { return inner_->truncate(f, s); }
  Result<BackendStat> stat(const std::string& p) override { return inner_->stat(p); }
  Status mkdir(const std::string& p) override { return inner_->mkdir(p); }
  Status rmdir(const std::string& p) override { return inner_->rmdir(p); }
  Status unlink(const std::string& p) override { return inner_->unlink(p); }
  Status rename(const std::string& a, const std::string& b) override {
    return inner_->rename(a, b);
  }
  Result<std::vector<std::string>> list_dir(const std::string& p) override {
    return inner_->list_dir(p);
  }
  std::string name() const override { return "overlap_gate(" + inner_->name() + ")"; }

 private:
  std::shared_ptr<BackendFs> inner_;
  const std::string gated_path_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  BackendFile gated_file_ = ~BackendFile{0};
  std::uint64_t held_lo_ = 0;
  std::uint64_t held_hi_ = 0;
  bool armed_ = false;
  bool holding_ = false;
  bool overtaken_ = false;
  bool timed_out_ = false;
};

// An overwrite of a chunk whose first write is still in flight: the old
// chunk's pwrite is parked in the gate, so any IO thread free to write
// the new chunk would land it first. The enqueue rule keeps the new chunk
// out of the queue until the old one is durable, so the gate times out
// and the file ends up holding the newer bytes.
TEST(OverwriteOrder, HeldWriteIsNeverOvertakenByALaterOverlappingWrite) {
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("io_threads=" + std::to_string(threads));
    auto mem = std::make_shared<MemBackend>();
    auto gate = std::make_shared<OverlapGateBackend>(mem, "ow.bin");
    Config cfg;
    cfg.chunk_size = 64 * KiB;
    cfg.pool_size = 8 * 64 * KiB;
    cfg.io_threads = threads;
    auto fs = Crfs::mount(gate, cfg);
    ASSERT_TRUE(fs.ok());

    auto h = fs.value()->open("ow.bin", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    // Two half-chunk writes fill one chunk on the aggregation path (a
    // single chunk-sized write would take the copy bypass instead).
    const std::string old_half(32 * KiB, 'o');
    const std::string new_half(32 * KiB, 'n');
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(old_half), 0).ok());
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(old_half), 32 * KiB).ok());
    ASSERT_TRUE(gate->wait_held()) << "the first chunk never reached the backend";
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(new_half), 0).ok());
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(new_half), 32 * KiB).ok());
    ASSERT_TRUE(fs.value()->close(h.value()).ok());

    EXPECT_FALSE(gate->overtaken()) << "a later overlapping write reached the backend first";
    EXPECT_TRUE(gate->held_until_timeout());
    auto contents = mem->contents("ow.bin");
    ASSERT_TRUE(contents.ok());
    const std::string got(reinterpret_cast<const char*>(contents.value().data()),
                          contents.value().size());
    EXPECT_TRUE(got == new_half + new_half) << "the file holds the older chunk's bytes";
  }
}

// A seeded workload (four files, sequential streams interleaved across
// handles, 15% overwrites below each file's cursor) over a real
// PosixBackend with small chunks and a small pool, so many overlapping
// chunks of one file pass through the pipeline while IO threads race.
// The backend must equal a byte-vector model of every write, in order.
TEST(OverwriteOrder, SeededOverwritesMatchByteModel) {
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("io_threads=" + std::to_string(threads));
    TempDir dir("model_t" + std::to_string(threads));
    auto backend = PosixBackend::create(dir.path().string());
    ASSERT_TRUE(backend.ok());
    Config cfg;
    cfg.chunk_size = 4 * KiB;  // small chunks: deep pipelines, many runs
    cfg.pool_size = 8 * 4 * KiB;
    cfg.io_threads = threads;
    auto fs = Crfs::mount(std::move(backend.value()), cfg);
    ASSERT_TRUE(fs.ok());

    constexpr int kFiles = 4;
    std::vector<Crfs::FileHandle> handles(kFiles);
    std::vector<std::string> model(kFiles);
    for (int f = 0; f < kFiles; ++f) {
      auto h = fs.value()->open("file" + std::to_string(f),
                                {.create = true, .truncate = true, .write = true});
      ASSERT_TRUE(h.ok());
      handles[f] = h.value();
    }
    Rng rng(20260806);
    for (int op = 0; op < 800; ++op) {
      const int f = static_cast<int>(rng.next_below(kFiles));
      const std::size_t len = rng.uniform(1, 12 * KiB);
      std::string data(len, '\0');
      for (auto& c : data) c = static_cast<char>('a' + rng.next_below(26));
      std::string& m = model[f];
      std::uint64_t off = m.size();
      if (!m.empty() && rng.bernoulli(0.15)) {
        off = rng.next_below(m.size());  // overwrite inside written range
      }
      ASSERT_TRUE(fs.value()->write(handles[f], as_bytes(data), off).ok());
      if (off + len > m.size()) m.resize(off + len);
      m.replace(off, len, data);
    }
    for (int f = 0; f < kFiles; ++f) ASSERT_TRUE(fs.value()->close(handles[f]).ok());

    for (int f = 0; f < kFiles; ++f) {
      const std::string name = "file" + std::to_string(f);
      const std::string got = read_file(dir.path() / name);
      ASSERT_EQ(got.size(), model[f].size()) << name;
      const auto diff = std::mismatch(got.begin(), got.end(), model[f].begin());
      EXPECT_TRUE(diff.first == got.end())
          << name << " diverges from the model at byte " << (diff.first - got.begin());
    }
  }
}

// Four writer threads, each appending odd-sized writes to its own file
// over 4 KiB chunks, a 16-chunk pool and two IO threads: every file must
// hold exactly its stream's bytes. (The suite name dates from when this
// also ran an io_uring engine; the blocking pwrite path is the only one.)
TEST(IoEngineIdentity, ConcurrentStreamsUringByteExact) {
  TempDir dir("conc_streams");
  auto backend = PosixBackend::create(dir.path().string());
  ASSERT_TRUE(backend.ok());
  Config cfg;
  cfg.chunk_size = 4 * KiB;
  cfg.pool_size = 16 * 4 * KiB;
  cfg.io_threads = 2;
  auto fs = Crfs::mount(std::move(backend.value()), cfg);
  ASSERT_TRUE(fs.ok());

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 200;
  std::vector<std::string> expect(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = fs.value()->open("stream" + std::to_string(t),
                                {.create = true, .truncate = true, .write = true});
      ASSERT_TRUE(h.ok());
      Rng rng(1000 + t);
      std::string& exp = expect[t];
      for (int i = 0; i < kWritesPerThread; ++i) {
        const std::size_t len = rng.uniform(100, 6000);
        std::string data(len, static_cast<char>('A' + (i % 26)));
        ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(data), exp.size()).ok());
        exp += data;
      }
      ASSERT_TRUE(fs.value()->close(h.value()).ok());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(read_file(dir.path() / ("stream" + std::to_string(t))), expect[t]) << t;
  }
}

// ------------------------------------------------- error paths

// FaultyBackend fails every backend write: a submission-level failure
// must mark the sticky FileEntry error exactly once per chunk, surfaced
// exactly once at close.
TEST(IoEngineErrors, FaultySubmissionMarksStickyErrorOncePerChunk) {
  auto mem = std::make_shared<MemBackend>();
  auto faulty = std::make_shared<FaultyBackend>(mem);
  Config cfg;
  cfg.chunk_size = 4096;
  cfg.pool_size = 8 * 4096;
  cfg.large_write_bypass = false;  // pin the queued-chunk path
  auto fs = Crfs::mount(faulty, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("sticky.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  faulty->fail_writes_after(0);  // every backend write fails EIO
  std::vector<std::byte> data(3 * 4096, std::byte{7});  // three full chunks
  ASSERT_TRUE(fs.value()->write(h.value(), data, 0).ok());  // buffering succeeds
  const Status st = fs.value()->close(h.value());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, EIO);

  // Sticky error reported once: a fresh handle on the same path is clean.
  faulty->fail_writes_after(-1);
  auto h2 = fs.value()->open("sticky.bin", {.create = true, .truncate = false, .write = true});
  ASSERT_TRUE(h2.ok());
  EXPECT_TRUE(fs.value()->close(h2.value()).ok());

  // Every failed chunk was counted (once per chunk, not once per run).
  const auto snap = fs.value()->metrics().snapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "crfs.io.pwrite_errors") {
      found = true;
      EXPECT_GE(value, 1u);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------- large-write bypass

TEST(LargeWriteBypass, ChunkSizedWriteSkipsThePool) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 64 * KiB;
  cfg.pool_size = 4 * 64 * KiB;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("big.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::string payload(128 * KiB, 'B');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(payload), 0).ok());

  // Bypassed: already durable, nothing buffered, no chunks consumed.
  auto contents = mem->contents("big.bin");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().size(), payload.size());
  EXPECT_EQ(fs.value()->stats().snapshot().bypass_writes, 1u);
  EXPECT_EQ(fs.value()->buffer_pool().in_use_chunks(), 0u);

  const auto snap = fs.value()->metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "crfs.write.bypass_bytes") {
      EXPECT_EQ(value, payload.size());
    }
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST(LargeWriteBypass, MixedSmallAndLargeWritesStayOrdered) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 16 * KiB;
  cfg.pool_size = 4 * 16 * KiB;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("mix.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::string expect;
  Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    const bool large = rng.bernoulli(0.3);
    const std::size_t len = large ? 16 * KiB + rng.next_below(16 * KiB)
                                  : 1 + rng.next_below(4 * KiB);
    std::string data(len, static_cast<char>('a' + (i % 26)));
    ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(data), expect.size()).ok());
    expect += data;
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  auto contents = mem->contents("mix.bin");
  ASSERT_TRUE(contents.ok());
  const std::string got(reinterpret_cast<const char*>(contents.value().data()),
                        contents.value().size());
  EXPECT_TRUE(got == expect);
  // With a partial chunk parked, large writes take the aggregation path
  // (current != nullptr) — but at least some fell on a clean append point.
  EXPECT_GT(fs.value()->stats().snapshot().bypass_writes, 0u);
}

TEST(LargeWriteBypass, OverwriteBelowHighWaterMarkAggregates) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 8 * KiB;
  cfg.pool_size = 4 * 8 * KiB;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("ow.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const std::string first(32 * KiB, '1');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(first), 0).ok());
  EXPECT_EQ(fs.value()->stats().snapshot().bypass_writes, 1u);

  // Rewriting inside the already-written range must NOT bypass: ordering
  // against queued chunks for those bytes is only guaranteed on the
  // aggregation path.
  const std::string second(16 * KiB, '2');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(second), 8 * KiB).ok());
  EXPECT_EQ(fs.value()->stats().snapshot().bypass_writes, 1u);  // unchanged
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  auto contents = mem->contents("ow.bin");
  ASSERT_TRUE(contents.ok());
  const std::string got(reinterpret_cast<const char*>(contents.value().data()),
                        contents.value().size());
  ASSERT_EQ(got.size(), first.size());
  EXPECT_EQ(got.substr(0, 8 * KiB), first.substr(0, 8 * KiB));
  EXPECT_EQ(got.substr(8 * KiB, 16 * KiB), second);
  EXPECT_EQ(got.substr(24 * KiB), first.substr(24 * KiB));
}

TEST(LargeWriteBypass, NoBypassOptionDisablesIt) {
  auto mem = std::make_shared<MemBackend>();
  Config cfg;
  cfg.chunk_size = 16 * KiB;
  cfg.pool_size = 4 * 16 * KiB;
  cfg.large_write_bypass = false;
  auto fs = Crfs::mount(mem, cfg);
  ASSERT_TRUE(fs.ok());

  auto h = fs.value()->open("nb.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::string payload(64 * KiB, 'N');
  ASSERT_TRUE(fs.value()->write(h.value(), as_bytes(payload), 0).ok());
  EXPECT_EQ(fs.value()->stats().snapshot().bypass_writes, 0u);
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  auto contents = mem->contents("nb.bin");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().size(), payload.size());
}

}  // namespace
}  // namespace crfs
