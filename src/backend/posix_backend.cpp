#include "backend/posix_backend.h"

#include "backend/posix_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <vector>

#include <cerrno>

namespace crfs {

Result<std::unique_ptr<PosixBackend>> PosixBackend::create(const std::string& root) {
  const int fd = ::open(root.c_str(), O_DIRECTORY | O_RDONLY);
  if (fd < 0) return Error::from_errno("open backend root " + root);
  return std::unique_ptr<PosixBackend>(new PosixBackend(fd, root));
}

PosixBackend::PosixBackend(int root_fd, std::string root_path)
    : root_fd_(root_fd), root_path_(std::move(root_path)) {}

PosixBackend::~PosixBackend() { ::close(root_fd_); }

Result<std::string> PosixBackend::sanitize(const std::string& path) {
  std::string p = path;
  while (!p.empty() && p.front() == '/') p.erase(p.begin());
  if (p.empty()) p = ".";
  // Reject ".." components: the backend must not escape its root.
  std::size_t pos = 0;
  while (pos < p.size()) {
    std::size_t next = p.find('/', pos);
    if (next == std::string::npos) next = p.size();
    if (p.compare(pos, next - pos, "..") == 0) {
      return Error{EINVAL, "path escapes backend root: " + path};
    }
    pos = next + 1;
  }
  return p;
}

Result<BackendFile> PosixBackend::open_file(const std::string& path, OpenFlags flags) {
  auto rel = sanitize(path);
  if (!rel.ok()) return rel.error();
  int oflags = flags.write ? O_RDWR : O_RDONLY;
  if (flags.create) oflags |= O_CREAT;
  if (flags.truncate) oflags |= O_TRUNC;
  const int fd = ::openat(root_fd_, rel.value().c_str(), oflags, 0644);
  if (fd < 0) return Error::from_errno("openat " + path);
  return static_cast<BackendFile>(fd);
}

Status PosixBackend::close_file(BackendFile file) {
  if (::close(static_cast<int>(file)) != 0) return Error::from_errno("close");
  return {};
}

Status PosixBackend::pwrite(BackendFile file, std::span<const std::byte> data,
                            std::uint64_t offset) {
  const auto* p = reinterpret_cast<const char*>(data.data());
  std::size_t remaining = data.size();
  auto off = static_cast<off_t>(offset);
  while (remaining > 0) {
    const ssize_t n = ::pwrite(static_cast<int>(file), p, remaining, off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error::from_errno("pwrite");
    }
    p += n;
    off += n;
    remaining -= static_cast<std::size_t>(n);
  }
  return {};
}

Status PosixBackend::pwritev(BackendFile file, std::span<const BackendIoVec> iov,
                             std::uint64_t offset) {
  // IOV_MAX is at least 1024 everywhere; fall back to the segment loop
  // rather than assume a caller's scatter list fits.
  if (iov.size() > static_cast<std::size_t>(IOV_MAX)) {
    return BackendFs::pwritev(file, iov, offset);
  }
  std::vector<struct iovec> vecs(iov.size());
  for (std::size_t i = 0; i < iov.size(); ++i) {
    vecs[i].iov_base = const_cast<std::byte*>(iov[i].data);
    vecs[i].iov_len = iov[i].len;
  }
  const int err = posix_detail::pwritev_all(
      vecs, static_cast<off_t>(offset), [fd = static_cast<int>(file)](
                                            struct iovec* v, int cnt, off_t off) {
        return ::pwritev(fd, v, cnt, off);
      });
  if (err != 0) return Error{err, "pwritev"};
  return {};
}

Result<std::size_t> PosixBackend::pread(BackendFile file, std::span<std::byte> data,
                                        std::uint64_t offset) {
  auto* p = reinterpret_cast<char*>(data.data());
  std::size_t total = 0;
  auto off = static_cast<off_t>(offset);
  while (total < data.size()) {
    const ssize_t n = ::pread(static_cast<int>(file), p + total, data.size() - total, off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error::from_errno("pread");
    }
    if (n == 0) break;  // EOF
    total += static_cast<std::size_t>(n);
    off += n;
  }
  return total;
}

Result<std::size_t> PosixBackend::preadv(BackendFile file,
                                         std::span<const BackendMutIoVec> iov,
                                         std::uint64_t offset) {
  if (iov.size() > static_cast<std::size_t>(IOV_MAX)) {
    return BackendFs::preadv(file, iov, offset);
  }
  std::vector<struct iovec> vecs(iov.size());
  for (std::size_t i = 0; i < iov.size(); ++i) {
    vecs[i].iov_base = iov[i].data;
    vecs[i].iov_len = iov[i].len;
  }
  std::size_t nread = 0;
  const int err = posix_detail::preadv_all(
      vecs, static_cast<off_t>(offset), &nread,
      [fd = static_cast<int>(file)](struct iovec* v, int cnt, off_t off) {
        return ::preadv(fd, v, cnt, off);
      });
  if (err != 0) return Error{err, "preadv"};
  return nread;
}

Status PosixBackend::fsync(BackendFile file) {
  if (::fsync(static_cast<int>(file)) != 0) return Error::from_errno("fsync");
  return {};
}

Status PosixBackend::truncate(BackendFile file, std::uint64_t size) {
  if (::ftruncate(static_cast<int>(file), static_cast<off_t>(size)) != 0) {
    return Error::from_errno("ftruncate");
  }
  return {};
}

Result<BackendStat> PosixBackend::stat(const std::string& path) {
  auto rel = sanitize(path);
  if (!rel.ok()) return rel.error();
  struct ::stat st{};
  if (::fstatat(root_fd_, rel.value().c_str(), &st, 0) != 0) {
    return Error::from_errno("stat " + path);
  }
  BackendStat out;
  out.size = static_cast<std::uint64_t>(st.st_size);
  out.is_dir = S_ISDIR(st.st_mode);
  out.mode = st.st_mode & 07777;
  return out;
}

Status PosixBackend::mkdir(const std::string& path) {
  auto rel = sanitize(path);
  if (!rel.ok()) return rel.error();
  if (::mkdirat(root_fd_, rel.value().c_str(), 0755) != 0) {
    return Error::from_errno("mkdir " + path);
  }
  return {};
}

Status PosixBackend::rmdir(const std::string& path) {
  auto rel = sanitize(path);
  if (!rel.ok()) return rel.error();
  if (::unlinkat(root_fd_, rel.value().c_str(), AT_REMOVEDIR) != 0) {
    return Error::from_errno("rmdir " + path);
  }
  return {};
}

Status PosixBackend::unlink(const std::string& path) {
  auto rel = sanitize(path);
  if (!rel.ok()) return rel.error();
  if (::unlinkat(root_fd_, rel.value().c_str(), 0) != 0) {
    return Error::from_errno("unlink " + path);
  }
  return {};
}

Status PosixBackend::rename(const std::string& from, const std::string& to) {
  auto rel_from = sanitize(from);
  if (!rel_from.ok()) return rel_from.error();
  auto rel_to = sanitize(to);
  if (!rel_to.ok()) return rel_to.error();
  if (::renameat(root_fd_, rel_from.value().c_str(), root_fd_, rel_to.value().c_str()) != 0) {
    return Error::from_errno("rename " + from + " -> " + to);
  }
  return {};
}

Result<std::vector<std::string>> PosixBackend::list_dir(const std::string& path) {
  auto rel = sanitize(path);
  if (!rel.ok()) return rel.error();
  const int fd = ::openat(root_fd_, rel.value().c_str(), O_DIRECTORY | O_RDONLY);
  if (fd < 0) return Error::from_errno("opendir " + path);
  DIR* dir = ::fdopendir(fd);
  if (dir == nullptr) {
    ::close(fd);
    return Error::from_errno("fdopendir " + path);
  }
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(dir);
  return names;
}

}  // namespace crfs
