// Unit tests for WorkQueue and IoThreadPool: FIFO pops, shutdown, and
// the one-chunk-per-pop rule (paper §IV-B) that keeps every IO thread
// writing while chunks are queued.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "backend/mem_backend.h"
#include "backend/wrappers.h"
#include "crfs/file_table.h"
#include "crfs/io_pool.h"
#include "crfs/work_queue.h"

namespace crfs {
namespace {

WriteJob make_job(std::shared_ptr<FileEntry> file, std::size_t chunk_size,
                  std::uint64_t offset, char fill_byte, std::size_t fill_len) {
  auto chunk = std::make_unique<Chunk>(chunk_size);
  chunk->reset(offset);
  std::vector<std::byte> data(fill_len, static_cast<std::byte>(fill_byte));
  chunk->append(data);
  return WriteJob{std::move(file), std::move(chunk)};
}

TEST(WorkQueue, FifoOrder) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.push(make_job(entry, 64, 1, 'b', 1));
  q.push(make_job(entry, 64, 2, 'c', 1));
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.total_pushed(), 3u);

  EXPECT_EQ(q.pop()->chunk->file_offset(), 0u);
  EXPECT_EQ(q.pop()->chunk->file_offset(), 1u);
  EXPECT_EQ(q.pop()->chunk->file_offset(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(WorkQueue, PopBlocksUntilPush) {
  WorkQueue q;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    auto job = q.pop();
    got.store(job.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got.load());
  q.push(make_job(std::make_shared<FileEntry>("f", 1), 64, 0, 'x', 1));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(WorkQueue, ShutdownDrainsThenReturnsNullopt) {
  WorkQueue q;
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.shutdown();
  EXPECT_TRUE(q.pop().has_value());   // queued job still delivered
  EXPECT_FALSE(q.pop().has_value());  // then closed
}

TEST(WorkQueue, ShutdownUnblocksWaiters) {
  WorkQueue q;
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.shutdown();
  consumer.join();
}

TEST(WorkQueue, PopStampsDequeueTimes) {
  WorkQueue q;
  obs::LatencyHistogram wait;
  q.set_wait_histogram(&wait);
  auto entry = std::make_shared<FileEntry>("f", 1);
  q.push(make_job(entry, 64, 0, 'a', 1));
  q.push(make_job(entry, 64, 1, 'b', 1));
  auto job = q.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_GT(job->enqueue_ns, 0u);
  EXPECT_GE(job->dequeue_ns, job->enqueue_ns);
  EXPECT_EQ(wait.count(), 1u);  // one wait sample per popped job
  EXPECT_EQ(q.depth(), 1u);     // the second job stays queued
}

// --------------------------------------------------------- IoThreadPool

class IoPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_ = std::make_shared<MemBackend>();
    pool_ = std::make_unique<BufferPool>(16 * 4096, 4096);
  }

  std::shared_ptr<FileEntry> open_entry(const std::string& path) {
    auto bf = backend_->open_file(path, {.create = true, .truncate = true, .write = true});
    EXPECT_TRUE(bf.ok());
    return std::make_shared<FileEntry>(path, bf.value());
  }

  WriteJob pool_job(std::shared_ptr<FileEntry> entry, std::uint64_t offset,
                    const std::string& payload) {
    auto chunk = pool_->acquire_for(offset, std::chrono::seconds(10));
    EXPECT_NE(chunk, nullptr);
    chunk->append({reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
    entry->write_chunks.fetch_add(1);
    return WriteJob{std::move(entry), std::move(chunk)};
  }

  std::shared_ptr<MemBackend> backend_;
  std::unique_ptr<BufferPool> pool_;
  WorkQueue queue_;
};

TEST_F(IoPoolTest, WritesChunksAtRecordedOffsets) {
  auto entry = open_entry("out.bin");
  {
    IoThreadPool io(2, queue_, *pool_, *backend_);
    queue_.push(pool_job(entry, 0, "AAAA"));
    queue_.push(pool_job(entry, 4, "BBBB"));
    entry->wait_for_completion(2);
    EXPECT_EQ(io.chunks_written(), 2u);
    EXPECT_EQ(io.bytes_written(), 8u);
  }
  auto content = backend_->contents("out.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 8u);
  EXPECT_EQ(std::memcmp(content.value().data(), "AAAABBBB", 8), 0);
}

TEST_F(IoPoolTest, ChunksReturnToPoolAfterWrite) {
  auto entry = open_entry("r.bin");
  IoThreadPool io(1, queue_, *pool_, *backend_);
  const std::size_t before = pool_->free_chunks();
  queue_.push(pool_job(entry, 0, "x"));
  entry->wait_for_completion(1);
  // The IO thread releases the chunk after completing; allow a beat.
  for (int i = 0; i < 100 && pool_->free_chunks() != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool_->free_chunks(), before);
}

TEST_F(IoPoolTest, CompletionCountsTrackJobs) {
  auto entry = open_entry("c.bin");
  IoThreadPool io(4, queue_, *pool_, *backend_);
  constexpr int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    queue_.push(pool_job(entry, static_cast<std::uint64_t>(i), "z"));
  }
  entry->wait_for_completion(kJobs);
  EXPECT_EQ(entry->complete_chunks.load(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(entry->write_chunks.load(), static_cast<std::uint64_t>(kJobs));
  EXPECT_FALSE(entry->has_error());
}

TEST_F(IoPoolTest, BackendErrorRecordedOnEntry) {
  auto faulty = std::make_shared<FaultyBackend>(backend_);
  faulty->fail_writes_after(0);  // every pwrite fails
  auto bf = faulty->open_file("bad.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(bf.ok());
  auto entry = std::make_shared<FileEntry>("bad.bin", bf.value());

  IoThreadPool io(1, queue_, *pool_, *faulty);
  queue_.push(pool_job(entry, 0, "doomed"));
  entry->wait_for_completion(1);
  EXPECT_TRUE(entry->has_error());
  auto err = entry->take_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, EIO);
  EXPECT_FALSE(entry->has_error());  // consumed
  EXPECT_EQ(io.chunks_written(), 0u);
}

TEST_F(IoPoolTest, BatchedWorkerPreservesFifoOrderForOverlappingChunks) {
  auto entry = open_entry("overlap.bin");
  // A later overwrite at a LOWER offset: a worker must not reorder these
  // by offset — the second (newer) chunk has to land after the first, or
  // last-writer-wins breaks for the overlapping bytes.
  queue_.push(pool_job(entry, 2, "XXXX"));  // older write, [2,6)
  queue_.push(pool_job(entry, 0, "yyyy"));  // newer overwrite, [0,4)
  {
    IoThreadPool io(1, queue_, *pool_, *backend_);
    entry->wait_for_completion(2);
  }
  auto content = backend_->contents("overlap.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 6u);
  EXPECT_EQ(std::memcmp(content.value().data(), "yyyyXX", 6), 0);
}

TEST_F(IoPoolTest, BatchedWorkerKeepsNonAdjacentChunksSeparate) {
  auto entry = open_entry("gap.bin");
  queue_.push(pool_job(entry, 0, "AAAA"));
  queue_.push(pool_job(entry, 100, "BBBB"));  // hole between the chunks
  const std::uint64_t pwrites_before = backend_->total_pwrites();
  {
    IoThreadPool io(1, queue_, *pool_, *backend_);
    entry->wait_for_completion(2);
  }
  EXPECT_EQ(backend_->total_pwrites() - pwrites_before, 2u);
  EXPECT_EQ(backend_->total_pwritten_bytes(), 8u);
  auto content = backend_->contents("gap.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 104u);
  EXPECT_EQ(std::memcmp(content.value().data(), "AAAA", 4), 0);
  EXPECT_EQ(std::memcmp(content.value().data() + 100, "BBBB", 4), 0);
}

TEST_F(IoPoolTest, AdjacentChunksOfOneFileAreTwoPwrites) {
  auto entry = open_entry("seq.bin");
  // Both chunks are queued before the single worker exists, so it could
  // see them together; it still writes each with its own pwrite.
  queue_.push(pool_job(entry, 0, "AAAA"));
  queue_.push(pool_job(entry, 4, "BBBB"));
  const std::uint64_t pwrites_before = backend_->total_pwrites();
  {
    IoThreadPool io(1, queue_, *pool_, *backend_);
    entry->wait_for_completion(2);
    EXPECT_EQ(io.chunks_written(), 2u);
  }
  EXPECT_EQ(backend_->total_pwrites() - pwrites_before, 2u);
  auto content = backend_->contents("seq.bin");
  ASSERT_TRUE(content.ok());
  ASSERT_EQ(content.value().size(), 8u);
  EXPECT_EQ(std::memcmp(content.value().data(), "AAAABBBB", 8), 0);
}

// Holds every pwrite until `want` are in flight at once (or a deadline
// passes) and records the most it ever saw together.
class ConcurrencyGateBackend final : public BackendFs {
 public:
  ConcurrencyGateBackend(std::shared_ptr<BackendFs> inner, unsigned want)
      : inner_(std::move(inner)), want_(want) {}

  unsigned max_in_flight() const {
    std::lock_guard lock(mu_);
    return max_in_flight_;
  }

  Status pwrite(BackendFile f, std::span<const std::byte> d, std::uint64_t off) override {
    {
      std::unique_lock lock(mu_);
      in_flight_ += 1;
      max_in_flight_ = std::max(max_in_flight_, in_flight_);
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::seconds(5),
                   [&] { return max_in_flight_ >= want_; });
    }
    Status st = inner_->pwrite(f, d, off);
    std::lock_guard lock(mu_);
    in_flight_ -= 1;
    return st;
  }
  Result<BackendFile> open_file(const std::string& path, OpenFlags flags) override {
    return inner_->open_file(path, flags);
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
  std::string name() const override { return "concurrency_gate(" + inner_->name() + ")"; }

 private:
  std::shared_ptr<BackendFs> inner_;
  const unsigned want_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  unsigned in_flight_ = 0;
  unsigned max_in_flight_ = 0;
};

TEST_F(IoPoolTest, FourQueuedChunksKeepFourWorkersWriting) {
  // Four chunks of four files, all queued before the workers start: with
  // one chunk per pop, every worker gets one and all four pwrites are in
  // flight together. A worker that took two would leave another idle.
  ConcurrencyGateBackend gate(backend_, 4);
  std::vector<std::shared_ptr<FileEntry>> entries;
  for (int i = 0; i < 4; ++i) {
    auto bf = gate.open_file("f" + std::to_string(i),
                             {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(bf.ok());
    entries.push_back(std::make_shared<FileEntry>("f" + std::to_string(i), bf.value()));
    queue_.push(pool_job(entries.back(), 0, "DATA"));
  }
  {
    IoThreadPool io(4, queue_, *pool_, gate);
    for (auto& e : entries) e->wait_for_completion(1);
    EXPECT_EQ(io.chunks_written(), 4u);
  }
  EXPECT_EQ(gate.max_in_flight(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(backend_->contents("f" + std::to_string(i)).value().size(), 4u);
  }
}

TEST_F(IoPoolTest, DestructorDrainsQueuedJobs) {
  auto entry = open_entry("drain.bin");
  for (int i = 0; i < 8; ++i) {
    queue_.push(pool_job(entry, static_cast<std::uint64_t>(i), "q"));
  }
  {
    IoThreadPool io(2, queue_, *pool_, *backend_);
    // Destroyed immediately: must still write all 8 queued jobs.
  }
  EXPECT_EQ(entry->complete_chunks.load(), 8u);
  EXPECT_EQ(backend_->contents("drain.bin").value().size(), 8u);
}

}  // namespace
}  // namespace crfs
