#include "src/service/fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace prochlo {

namespace {

class RealFs : public Fs {
 public:
  Result<int> Open(const std::string& path, int flags, int mode) override {
    for (;;) {
      int fd = ::open(path.c_str(), flags, mode);
      if (fd >= 0) {
        return fd;
      }
      if (errno == EINTR) {
        continue;
      }
      return Error{"fs: cannot open " + path + ": " + std::strerror(errno)};
    }
  }

  Result<size_t> Write(int fd, ByteSpan data) override {
    for (;;) {
      ssize_t n = ::write(fd, data.data(), data.size());
      if (n >= 0) {
        return static_cast<size_t>(n);
      }
      if (errno == EINTR) {
        continue;
      }
      return Error{std::string("fs: write failed: ") + std::strerror(errno)};
    }
  }

  Status Sync(int fd) override {
    if (::fsync(fd) != 0) {
      return Error{std::string("fs: fsync failed: ") + std::strerror(errno)};
    }
    return Status::Ok();
  }

  void Close(int fd) override {
    if (fd >= 0) {
      ::close(fd);
    }
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) == 0 || errno == ENOENT) {
      return Status::Ok();
    }
    return Error{"fs: cannot remove " + path + ": " + std::strerror(errno)};
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Error{"fs: cannot truncate " + path + ": " + std::strerror(errno)};
    }
    return Status::Ok();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Error{"fs: cannot rename " + from + " -> " + to + ": " + std::strerror(errno)};
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& path) override {
    int fd;
    for (;;) {
      fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
      if (fd >= 0) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      return Error{"fs: cannot open dir " + path + ": " + std::strerror(errno)};
    }
    Status result = Status::Ok();
    if (::fsync(fd) != 0) {
      result = Error{"fs: dir fsync failed for " + path + ": " + std::strerror(errno)};
    }
    ::close(fd);
    return result;
  }
};

}  // namespace

Fs* Fs::Real() {
  static RealFs instance;
  return &instance;
}

}  // namespace prochlo
