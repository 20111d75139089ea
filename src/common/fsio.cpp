#include "common/fsio.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace emx::fsio {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Directory part of `path` ("." when the path has no separator).
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Best-effort fsync of a directory so a rename is durable. Some file
/// systems refuse O_DIRECTORY fsync; that is not a correctness problem
/// for process-crash atomicity (the rename itself is atomic), only for
/// power-cut durability, so failures are swallowed.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Monotonic per-process counter: with the pid it makes every temp file
/// name unique, so two writers racing on the same target (two retries of
/// one job, an orphaned worker beside its replacement) can never open —
/// and interleave bytes into — the same temp file. The fixed ".tmp"
/// suffix this replaces let exactly that happen: writer B would reopen
/// and truncate writer A's temp file, and A's still-open descriptor
/// kept writing into whichever file B eventually renamed into place.
std::atomic<std::uint64_t> g_tmp_counter{0};

}  // namespace

std::string atomic_write_file(const std::string& path, const void* data,
                              std::size_t size) {
  char suffix[64];
  std::snprintf(suffix, sizeof suffix, ".emxtmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    g_tmp_counter.fetch_add(1, std::memory_order_relaxed)));
  const std::string tmp = path + suffix;

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0)
    return "cannot create temp file '" + tmp + "': " + errno_text();

  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = errno_text();
      ::close(fd);
      ::unlink(tmp.c_str());
      return "short write to '" + tmp + "': " + err;
    }
    done += static_cast<std::size_t>(n);
  }
  // The data must be on stable storage *before* the rename publishes the
  // name: rename-then-sync can surface a correctly named file full of
  // zeros after a crash, which is exactly the truncated-snapshot failure
  // this helper exists to rule out.
  if (::fsync(fd) != 0) {
    const std::string err = errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    return "fsync of '" + tmp + "' failed: " + err;
  }
  if (::close(fd) != 0) {
    const std::string err = errno_text();
    ::unlink(tmp.c_str());
    return "close of '" + tmp + "' failed: " + err;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = errno_text();
    ::unlink(tmp.c_str());
    return "cannot rename '" + tmp + "' to '" + path + "': " + err;
  }
  fsync_dir(parent_dir(path));
  return "";
}

std::string atomic_write_file(const std::string& path,
                              const std::string& bytes) {
  return atomic_write_file(path, bytes.data(), bytes.size());
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::string ensure_writable_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create directory '" + dir + "': " + ec.message();
  char name[64];
  std::snprintf(name, sizeof name, "/.emxprobe.%ld",
                static_cast<long>(::getpid()));
  const std::string probe = dir + name;
  const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return "directory '" + dir + "' is not writable: " + errno_text();
  ::close(fd);
  ::unlink(probe.c_str());
  return "";
}

std::string probe_writable_file(const std::string& path) {
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0)
    return "cannot create or write '" + path + "': " + errno_text();
  ::close(fd);
  if (!existed) ::unlink(path.c_str());
  return "";
}

std::string append_line_fsync(const std::string& path,
                              const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return "cannot open '" + path + "' for append: " + errno_text();
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = errno_text();
      ::close(fd);
      return "short append to '" + path + "': " + err;
    }
    done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = errno_text();
    ::close(fd);
    return "fsync of '" + path + "' failed: " + err;
  }
  ::close(fd);
  return "";
}

}  // namespace emx::fsio
