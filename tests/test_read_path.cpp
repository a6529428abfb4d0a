// Read-path tests: pread conformance across every backend (short reads,
// chunk-boundary straddling, EOF), the sequential-scan prefetcher (arming,
// seek eviction, runtime toggle), coherence against buffered and racing
// writes, bit-identical blcr restart with readahead on / off / retuned
// mid-stream, and concurrent restores of different files that neither
// serialize on each other nor lose a byte or a counter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/null_backend.h"
#include "backend/posix_backend.h"
#include "backend/wrappers.h"
#include "blcr/checkpoint_writer.h"
#include "blcr/process_image.h"
#include "blcr/restart_reader.h"
#include "blcr/sinks.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/file.h"
#include "crfs/fuse_shim.h"

namespace crfs {
namespace {

constexpr std::size_t kChunk = 64 * KiB;
constexpr std::size_t kPool = 1 * MiB;

std::byte pattern_at(std::uint64_t i, std::uint64_t salt = 0) {
  return static_cast<std::byte>((i * 131 + (i >> 9) * 7 + salt + 13) & 0xff);
}

std::vector<std::byte> make_pattern(std::size_t n, std::uint64_t salt = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern_at(i, salt);
  return out;
}

class ReadPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("crfs_read_path_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

void write_file(Crfs& fs, const std::string& path, const std::vector<std::byte>& data) {
  auto h = fs.open(path, {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  // Sub-chunk pieces so the data flows through aggregation, not the bypass.
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min<std::size_t>(48 * KiB, data.size() - off);
    ASSERT_TRUE(fs.write(h.value(), {data.data() + off, n}, off).ok());
    off += n;
  }
  ASSERT_TRUE(fs.close(h.value()).ok());
}

// Every read shape the restart path produces: a full sequential scan (arms
// the prefetcher when enabled), chunk-straddling and unaligned positioned
// reads, a short read crossing EOF, and reads at/past EOF returning 0.
void expect_readable(Crfs& fs, const std::string& path,
                     const std::vector<std::byte>& expect) {
  auto h = fs.open(path, {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  const std::size_t size = expect.size();
  ASSERT_GT(size, 2 * kChunk + 2000);

  std::vector<std::byte> got(size);
  std::size_t off = 0;
  while (off < size) {
    const std::size_t want = std::min(kChunk, size - off);
    auto r = fs.read(h.value(), {got.data() + off, want}, off);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_GT(r.value(), 0u) << "unexpected EOF at " << off;
    off += r.value();
  }
  EXPECT_TRUE(got == expect) << "sequential scan corrupted " << path;

  std::vector<std::byte> buf(4096);
  auto r = fs.read(h.value(), buf, kChunk - 2048);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), buf.size());
  EXPECT_EQ(0, std::memcmp(buf.data(), expect.data() + kChunk - 2048, buf.size()))
      << "chunk-straddling read corrupted " << path;

  std::vector<std::byte> odd(7777);
  r = fs.read(h.value(), odd, 12345);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), odd.size());
  EXPECT_EQ(0, std::memcmp(odd.data(), expect.data() + 12345, odd.size()))
      << "unaligned read corrupted " << path;

  std::vector<std::byte> tail(8192);
  r = fs.read(h.value(), tail, size - 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1000u) << "EOF-crossing read not short on " << path;
  EXPECT_EQ(0, std::memcmp(tail.data(), expect.data() + size - 1000, 1000));

  r = fs.read(h.value(), tail, size);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u) << "read at EOF not empty on " << path;
  r = fs.read(h.value(), tail, size + 4096);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u) << "read past EOF not empty on " << path;

  ASSERT_TRUE(fs.close(h.value()).ok());
}

TEST_F(ReadPath, PreadConformanceAcrossBackends) {
  const auto data = make_pattern(3 * kChunk + 1234);
  struct Case {
    const char* label;
    std::function<std::shared_ptr<BackendFs>(const std::filesystem::path&)> make;
  };
  const Case cases[] = {
      {"mem", [](const auto&) { return std::make_shared<MemBackend>(); }},
      {"posix",
       [](const auto& dir) -> std::shared_ptr<BackendFs> {
         std::filesystem::create_directories(dir);
         auto b = PosixBackend::create(dir.string());
         EXPECT_TRUE(b.ok());
         if (!b.ok()) return nullptr;
         return std::shared_ptr<BackendFs>(std::move(b.value()));
       }},
      {"faulty",
       [](const auto&) -> std::shared_ptr<BackendFs> {
         // Unarmed: exercises the wrapper's pread passthrough.
         return std::make_shared<FaultyBackend>(std::make_shared<MemBackend>());
       }},
      {"throttled",
       [](const auto&) -> std::shared_ptr<BackendFs> {
         auto t = std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(),
                                                     512.0 * MiB);
         t->throttle_reads(true);
         return t;
       }},
  };

  for (const Case& c : cases) {
    for (bool readahead : {true, false}) {
      SCOPED_TRACE(std::string(c.label) + (readahead ? "/readahead" : "/no_readahead"));
      auto backend = c.make(dir_ / c.label / (readahead ? "on" : "off"));
      ASSERT_NE(backend, nullptr);
      auto fs = Crfs::mount(backend, Config{.chunk_size = kChunk,
                                            .pool_size = kPool,
                                            .readahead = readahead});
      ASSERT_TRUE(fs.ok());
      write_file(*fs.value(), "conf.dat", data);
      expect_readable(*fs.value(), "conf.dat", data);
    }
  }
}

TEST_F(ReadPath, NullBackendReadsReportEof) {
  auto fs = Crfs::mount(std::make_shared<NullBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  auto h = fs.value()->open("sink.dat", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  const auto data = make_pattern(2 * kChunk);
  ASSERT_TRUE(fs.value()->write(h.value(), data, 0).ok());
  ASSERT_TRUE(fs.value()->fsync(h.value()).ok());

  // The null backend discards everything; reads must report EOF, not hang
  // the prefetcher or fabricate bytes.
  std::vector<std::byte> buf(kChunk);
  for (int i = 0; i < 3; ++i) {
    auto r = fs.value()->read(h.value(), buf, 0);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 0u);
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST_F(ReadPath, ReadsObserveBufferedWritesAndOverwrites) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  auto data = make_pattern(4 * kChunk + 512);
  auto h = fs.value()->open("race.dat", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h.ok());
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t n = std::min<std::size_t>(48 * KiB, data.size() - off);
    ASSERT_TRUE(fs.value()->write(h.value(), {data.data() + off, n}, off).ok());
    off += n;
  }

  // No fsync: part of the file is still buffered or queued. flush_before_read
  // must barrier exactly this file so the scan observes every byte.
  std::vector<std::byte> got(data.size());
  for (off = 0; off < got.size();) {
    auto r = fs.value()->read(h.value(), {got.data() + off, std::min(kChunk, got.size() - off)},
                              off);
    ASSERT_TRUE(r.ok());
    ASSERT_GT(r.value(), 0u);
    off += r.value();
  }
  EXPECT_TRUE(got == data);

  // Overwrite a region the prefetcher may have cached: the write-generation
  // bump must invalidate the window so the next read returns fresh bytes.
  const auto fresh = make_pattern(kChunk, /*salt=*/91);
  ASSERT_TRUE(fs.value()->write(h.value(), fresh, kChunk).ok());
  std::vector<std::byte> region(kChunk);
  auto r = fs.value()->read(h.value(), region, kChunk);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), region.size());
  EXPECT_TRUE(region == fresh) << "stale prefetched bytes served after overwrite";
  r = fs.value()->read(h.value(), region, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), region.size());
  EXPECT_EQ(0, std::memcmp(region.data(), data.data(), region.size()));
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST_F(ReadPath, ReadsRaceInflightWrites) {
  // A writer appends records while a reader scans everything below the
  // published watermark. flush_before_read + the prefetch coherence rules
  // must keep every observed byte exact. (Also the TSan workload.)
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  constexpr std::size_t kRecord = 64 * KiB;
  constexpr std::size_t kRecords = 32;
  const auto data = make_pattern(kRecords * kRecord, /*salt=*/7);

  auto wh = fs.value()->open("live.dat", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(wh.ok());
  auto rh = fs.value()->open("live.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(rh.ok());

  std::atomic<std::size_t> watermark{0};
  std::thread writer([&] {
    for (std::size_t i = 0; i < kRecords; ++i) {
      const std::size_t off2 = i * kRecord;
      ASSERT_TRUE(fs.value()->write(wh.value(), {data.data() + off2, kRecord}, off2).ok());
      watermark.store(off2 + kRecord, std::memory_order_release);
      if (i % 8 == 7) {
        ASSERT_TRUE(fs.value()->fsync(wh.value()).ok());
      }
    }
  });

  std::vector<std::byte> buf(kRecord);
  std::size_t verified = 0;
  while (verified < data.size()) {
    const std::size_t limit = watermark.load(std::memory_order_acquire);
    while (verified + kRecord <= limit) {
      auto r = fs.value()->read(rh.value(), buf, verified);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), kRecord);
      ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + verified, kRecord))
          << "corruption at offset " << verified;
      verified += kRecord;
    }
    std::this_thread::yield();
  }
  writer.join();
  ASSERT_TRUE(fs.value()->close(rh.value()).ok());
  ASSERT_TRUE(fs.value()->close(wh.value()).ok());
}

TEST_F(ReadPath, SequentialScanArmsThePrefetcher) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(1 * MiB);
  write_file(*fs.value(), "seq.dat", data);

  auto h = fs.value()->open("seq.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), kChunk);
    ASSERT_EQ(0, std::memcmp(buf.data(), data.data() + off, kChunk));
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());

  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.ops").value(), data.size() / kChunk);
  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.bytes").value(), data.size());
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_hits").value(), 0u);

  // Per-restore attribution: close finalized the scan into the ledger.
  const auto ledger = fs.value()->restore_ledger();
  ASSERT_FALSE(ledger.empty());
  bool found = false;
  for (const auto& row : ledger) {
    if (row.path != "seq.dat") continue;
    found = true;
    EXPECT_EQ(row.bytes, data.size());
    EXPECT_EQ(row.ops, data.size() / kChunk);
    EXPECT_GT(row.prefetch_hits, 0u);
    EXPECT_FALSE(row.active);
  }
  EXPECT_TRUE(found) << "seq.dat missing from the restore ledger";
}

TEST_F(ReadPath, SeekDropsThePrefetchWindow) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(16 * kChunk);
  write_file(*fs.value(), "seek.dat", data);

  auto h = fs.value()->open("seek.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  // Establish the scan so the window fills ahead of the cursor...
  for (std::size_t off = 0; off < 4 * kChunk; off += kChunk) {
    ASSERT_TRUE(fs.value()->read(h.value(), buf, off).ok());
  }
  ASSERT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  // ...then seek backwards: the window is evicted, unconsumed slots count
  // as wasted, and the re-read is still exact.
  auto r = fs.value()->read(h.value(), buf, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), kChunk);
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), kChunk));
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_wasted").value(), 0u);
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
}

TEST_F(ReadPath, ReadaheadOffNeverPrefetches) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = kPool,
                               .readahead = false});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(8 * kChunk);
  write_file(*fs.value(), "off.dat", data);

  auto h = fs.value()->open("off.dat", {.create = false, .truncate = false, .write = false});
  ASSERT_TRUE(h.ok());
  std::vector<std::byte> buf(kChunk);
  for (std::size_t off = 0; off < data.size(); off += kChunk) {
    auto r = fs.value()->read(h.value(), buf, off);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value(), kChunk);
  }
  ASSERT_TRUE(fs.value()->close(h.value()).ok());
  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  // Every read fell through to one blocking pread.
  EXPECT_EQ(fs.value()->metrics().counter("crfs.read.sync_preads").value(),
            data.size() / kChunk);
}

TEST_F(ReadPath, RuntimeToggleStopsPrefetching) {
  auto fs = Crfs::mount(std::make_shared<MemBackend>(),
                        Config{.chunk_size = kChunk, .pool_size = 2 * MiB});
  ASSERT_TRUE(fs.ok());
  const auto data = make_pattern(16 * kChunk);
  write_file(*fs.value(), "toggle.dat", data);

  auto scan = [&] {
    auto h =
        fs.value()->open("toggle.dat", {.create = false, .truncate = false, .write = false});
    ASSERT_TRUE(h.ok());
    std::vector<std::byte> buf(kChunk);
    for (std::size_t off = 0; off < data.size(); off += kChunk) {
      auto r = fs.value()->read(h.value(), buf, off);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), kChunk);
    }
    ASSERT_TRUE(fs.value()->close(h.value()).ok());
  };

  EXPECT_EQ(fs.value()->tune("readahead", 0.0).outcome, "applied");
  scan();
  const auto issued_off = fs.value()->metrics().counter("crfs.read.prefetch_issued").value();
  EXPECT_EQ(issued_off, 0u);

  EXPECT_EQ(fs.value()->tune("readahead", 1.0).outcome, "applied");
  EXPECT_EQ(fs.value()->tune("readahead_window", 2.0).outcome, "applied");
  scan();
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), issued_off);
}

TEST_F(ReadPath, RestoreBitIdenticalAcrossBackendsAndModes) {
  struct Case {
    const char* label;
    std::shared_ptr<BackendFs> backend;
  };
  std::vector<Case> cases;
  cases.push_back({"mem", std::make_shared<MemBackend>()});
  {
    auto t = std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(), 512.0 * MiB);
    t->throttle_reads(true);
    cases.push_back({"throttled", t});
  }
  {
    const auto pdir = dir_ / "restore";
    std::filesystem::create_directories(pdir);
    auto b = PosixBackend::create(pdir.string());
    ASSERT_TRUE(b.ok());
    cases.push_back({"posix", std::shared_ptr<BackendFs>(std::move(b.value()))});
  }

  const auto image = blcr::ProcessImage::synthesize(17, 6 * MiB, 55);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    auto fs = Crfs::mount(c.backend, Config{.chunk_size = 256 * KiB, .pool_size = 2 * MiB});
    ASSERT_TRUE(fs.ok());
    FuseShim shim(*fs.value(), FuseOptions{});

    std::uint64_t crc = 0;
    {
      auto f = File::open(shim, "rank0.ckpt", {.create = true, .truncate = true, .write = true});
      ASSERT_TRUE(f.ok());
      blcr::CrfsFileSink sink(f.value());
      auto written = blcr::CheckpointWriter::write_image(image, sink);
      ASSERT_TRUE(written.ok());
      crc = written.value();
      ASSERT_TRUE(f.value().close().ok());
    }

    // Restore 1: readahead on (mount default).
    {
      auto f = File::open(shim, "rank0.ckpt",
                          {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      blcr::CrfsFileSource source(f.value());
      auto restored = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(restored.value().payload_crc, crc);
    }

    // Restore 2: readahead off via the knob plane.
    fs.value()->tune("readahead", 0.0);
    {
      auto f = File::open(shim, "rank0.ckpt",
                          {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      blcr::CrfsFileSource source(f.value());
      auto restored = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(restored.value().payload_crc, crc);
    }

    // Restore 3: retuned mid-stream — window shrunk, prefetch switched off,
    // then back on wider, all while the reader is inside the image.
    fs.value()->tune("readahead", 1.0);
    {
      auto f = File::open(shim, "rank0.ckpt",
                          {.create = false, .truncate = false, .write = false});
      ASSERT_TRUE(f.ok());
      std::uint64_t seen = 0;
      int stage = 0;
      blcr::FnSource source([&](std::span<std::byte> out) -> Result<std::size_t> {
        if (stage == 0 && seen > 1 * MiB) {
          fs.value()->tune("readahead_window", 1.0);
          stage = 1;
        } else if (stage == 1 && seen > 2 * MiB) {
          fs.value()->tune("readahead", 0.0);
          stage = 2;
        } else if (stage == 2 && seen > 4 * MiB) {
          fs.value()->tune("readahead", 1.0);
          fs.value()->tune("readahead_window", 8.0);
          stage = 3;
        }
        auto r = f.value().read(out);
        if (r.ok()) seen += r.value();
        return r;
      });
      auto restored = blcr::RestartReader::read_image(source);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(restored.value().payload_crc, crc);
      EXPECT_EQ(stage, 3) << "mid-stream retune points never reached";
    }
  }
}

// Forwards every call to `inner`, raw fds included; subclasses hook pread.
class ForwardingBackend : public BackendFs {
 public:
  static constexpr auto kTimeout = std::chrono::seconds(5);

  explicit ForwardingBackend(std::shared_ptr<BackendFs> inner) : inner_(std::move(inner)) {}

  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    return inner_->pread(f, d, off);
  }
  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    return inner_->open_file(path, flags);
  }
  Status close_file(BackendFile f) override { return inner_->close_file(f); }
  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    return inner_->pwrite(f, d, off);
  }
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
  int raw_fd(BackendFile f) const override { return inner_->raw_fd(f); }
  std::string name() const override { return "forward(" + inner_->name() + ")"; }

 protected:
  std::shared_ptr<BackendFs> inner_;
};

// Once armed, the next pread of `gated_path` at or past `min_offset` parks
// inside the call until release(), or until a timeout, which it records: a
// reader that cannot get past another file's blocked backend read then
// fails the test instead of hanging it.
class GateBackend final : public ForwardingBackend {
 public:
  GateBackend(std::shared_ptr<BackendFs> inner, std::string gated_path)
      : ForwardingBackend(std::move(inner)), gated_path_(std::move(gated_path)) {}

  void arm(std::uint64_t min_offset) {
    std::lock_guard lock(mu_);
    armed_ = true;
    entered_ = false;
    released_ = false;
    min_offset_ = min_offset;
  }
  bool wait_entered() {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, kTimeout, [&] { return entered_; });
  }
  void release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  bool timed_out() const {
    std::lock_guard lock(mu_);
    return timed_out_;
  }

  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    {
      std::unique_lock lock(mu_);
      if (armed_ && f == gated_file_ && off >= min_offset_) {
        armed_ = false;
        entered_ = true;
        cv_.notify_all();
        if (!cv_.wait_for(lock, kTimeout, [&] { return released_; })) timed_out_ = true;
      }
    }
    return inner_->pread(f, d, off);
  }
  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    auto f = inner_->open_file(path, flags);
    if (f.ok() && path == gated_path_) {
      std::lock_guard lock(mu_);
      gated_file_ = f.value();
    }
    return f;
  }

 private:
  const std::string gated_path_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  BackendFile gated_file_ = ~BackendFile{0};
  std::uint64_t min_offset_ = 0;
  bool armed_ = false;
  bool entered_ = false;
  bool released_ = false;
  bool timed_out_ = false;
};

// The first `parties` preads each wait until all of them are inside the
// backend at once. Readers serialized behind one another's backend reads
// never all arrive: the first one times out, which is recorded, and the
// rendezvous is given up so the run still finishes.
class RendezvousBackend final : public ForwardingBackend {
 public:
  RendezvousBackend(std::shared_ptr<BackendFs> inner, unsigned parties)
      : ForwardingBackend(std::move(inner)), parties_(parties) {}

  bool timed_out() const {
    std::lock_guard lock(mu_);
    return timed_out_;
  }

  Result<std::size_t> pread(BackendFile f, std::span<std::byte> d, std::uint64_t off) override {
    {
      std::unique_lock lock(mu_);
      if (arrived_ < parties_) {
        ++arrived_;
        cv_.notify_all();
        if (!cv_.wait_for(lock, kTimeout, [&] { return arrived_ == parties_; })) {
          timed_out_ = true;
          arrived_ = parties_;
        }
      }
    }
    return inner_->pread(f, d, off);
  }

 private:
  const unsigned parties_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  unsigned arrived_ = 0;
  bool timed_out_ = false;
};

// Two ranks restoring different files must not wait on each other's
// backend reads. File A's backend pread is held until a read of file B,
// issued from another thread, has returned: first A's blocking tail read,
// then a window read A's established scan issues.
TEST_F(ReadPath, ConcurrentScansDoNotSerialize) {
  auto gate = std::make_shared<GateBackend>(std::make_shared<MemBackend>(), "a.img");
  auto fs = Crfs::mount(gate, Config{.chunk_size = kChunk, .pool_size = kPool});
  ASSERT_TRUE(fs.ok());
  const auto a_data = make_pattern(8 * kChunk, /*salt=*/1);
  const auto b_data = make_pattern(8 * kChunk, /*salt=*/2);
  write_file(*fs.value(), "a.img", a_data);
  write_file(*fs.value(), "b.img", b_data);
  const OpenFlags ro{.create = false, .truncate = false, .write = false};
  auto ha = fs.value()->open("a.img", ro);
  auto hb = fs.value()->open("b.img", ro);
  ASSERT_TRUE(ha.ok() && hb.ok());

  std::vector<std::byte> a_buf(kChunk);
  std::vector<std::byte> b_buf(kChunk);
  // Step 0 gates A's tail read of chunk 0; step 1 reads chunk 1, which
  // arms the scan, and gates the window read of chunk 2 behind it.
  for (std::uint64_t step = 0; step < 2; ++step) {
    SCOPED_TRACE(step == 0 ? "tail read" : "window read");
    const std::uint64_t off = step * kChunk;
    gate->arm(step == 0 ? 0 : 2 * kChunk);
    Result<std::size_t> a_got = std::size_t{0};
    std::thread rank_a([&] { a_got = fs.value()->read(ha.value(), a_buf, off); });
    const bool entered = gate->wait_entered();
    auto b_got = fs.value()->read(hb.value(), b_buf, off);
    gate->release();
    rank_a.join();
    ASSERT_TRUE(entered) << "file A never reached the backend";
    EXPECT_FALSE(gate->timed_out()) << "file B's read waited on file A's backend read";
    ASSERT_TRUE(a_got.ok() && b_got.ok());
    ASSERT_EQ(a_got.value(), kChunk);
    ASSERT_EQ(b_got.value(), kChunk);
    EXPECT_EQ(0, std::memcmp(a_buf.data(), a_data.data() + off, kChunk));
    EXPECT_EQ(0, std::memcmp(b_buf.data(), b_data.data() + off, kChunk));
  }
  EXPECT_GT(fs.value()->metrics().counter("crfs.read.prefetch_issued").value(), 0u);
  ASSERT_TRUE(fs.value()->close(ha.value()).ok());
  ASSERT_TRUE(fs.value()->close(hb.value()).ok());
}

// Four ranks restore two files each at once, alternating between their
// files in reads that straddle chunk boundaries, on a pool of four chunks:
// fewer free chunks than scans, so some scans run without a window. The
// ranks' first backend reads must all be in flight together; every byte
// must match; and the per-restore ledger must account for every read and
// every prefetched slot.
TEST_F(ReadPath, ConcurrentRanksRestoreByteExact) {
  constexpr unsigned kRanks = 4;
  constexpr unsigned kFilesPerRank = 2;
  constexpr std::size_t kFileBytes = 6 * kChunk + 1234;  // EOF inside a chunk
  constexpr std::size_t kReadBytes = 48 * KiB;
  std::vector<std::vector<std::byte>> images;
  for (unsigned i = 0; i < kRanks * kFilesPerRank; ++i) {
    images.push_back(make_pattern(kFileBytes, /*salt=*/100 + i));
  }
  auto name = [](unsigned i) { return "rank" + std::to_string(i) + ".img"; };

  for (const bool readahead : {true, false}) {
    SCOPED_TRACE(readahead ? "readahead" : "no_readahead");
    const auto pdir = dir_ / "ranks";
    std::filesystem::remove_all(pdir);
    std::filesystem::create_directories(pdir);
    auto be = PosixBackend::create(pdir.string());
    ASSERT_TRUE(be.ok());
    auto rendezvous = std::make_shared<RendezvousBackend>(
        std::shared_ptr<BackendFs>(std::move(be.value())), kRanks);
    auto fs = Crfs::mount(rendezvous,
                          Config{.chunk_size = kChunk,
                                 .pool_size = 4 * kChunk,
                                 .readahead = readahead});
    ASSERT_TRUE(fs.ok());
    for (unsigned i = 0; i < images.size(); ++i) write_file(*fs.value(), name(i), images[i]);

    std::atomic<unsigned> corrupt{0};
    std::atomic<unsigned> failed{0};
    std::vector<std::thread> ranks;
    for (unsigned r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        const OpenFlags ro{.create = false, .truncate = false, .write = false};
        std::vector<Crfs::FileHandle> handles;
        std::vector<std::vector<std::byte>> got(kFilesPerRank,
                                                std::vector<std::byte>(kFileBytes));
        std::vector<std::size_t> done(kFilesPerRank, 0);
        for (unsigned k = 0; k < kFilesPerRank; ++k) {
          auto h = fs.value()->open(name(r * kFilesPerRank + k), ro);
          if (!h.ok()) {
            failed.fetch_add(1);
            return;
          }
          handles.push_back(h.value());
        }
        for (bool more = true; more;) {
          more = false;
          for (unsigned k = 0; k < kFilesPerRank; ++k) {
            if (done[k] == kFileBytes) continue;
            const std::size_t n = std::min(kReadBytes, kFileBytes - done[k]);
            auto rd = fs.value()->read(handles[k], {got[k].data() + done[k], n}, done[k]);
            if (!rd.ok() || rd.value() == 0) {
              failed.fetch_add(1);
              done[k] = kFileBytes;
              continue;
            }
            done[k] += rd.value();
            more = true;
          }
        }
        for (unsigned k = 0; k < kFilesPerRank; ++k) {
          if (got[k] != images[r * kFilesPerRank + k]) corrupt.fetch_add(1);
          if (!fs.value()->close(handles[k]).ok()) failed.fetch_add(1);
        }
      });
    }
    for (auto& t : ranks) t.join();
    EXPECT_FALSE(rendezvous->timed_out()) << "ranks' backend reads ran one at a time";
    EXPECT_EQ(failed.load(), 0u);
    EXPECT_EQ(corrupt.load(), 0u) << "a concurrent restore returned wrong bytes";

    const auto ledger = fs.value()->restore_ledger();
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    unsigned rows = 0;
    for (const auto& row : ledger) {
      if (row.path.rfind("rank", 0) != 0) continue;
      SCOPED_TRACE(row.path);
      ++rows;
      EXPECT_FALSE(row.active);
      EXPECT_EQ(row.bytes, kFileBytes);
      EXPECT_EQ(row.prefetch_issued, row.prefetch_hits + row.prefetch_wasted);
      if (!readahead) {
        EXPECT_EQ(row.prefetch_issued, 0u);
      }
      ops += row.ops;
      bytes += row.bytes;
    }
    EXPECT_EQ(rows, images.size());
    EXPECT_EQ(ops, fs.value()->metrics().counter("crfs.read.ops").value());
    EXPECT_EQ(bytes, fs.value()->metrics().counter("crfs.read.bytes").value());
  }
}

}  // namespace
}  // namespace crfs
