// The injectable filesystem seam under the ingest WAL, whose generations
// are the spool and whose wal.ckpt is the session snapshot.
//
// Every *write-side* syscall the durability tier performs — open, write,
// fsync, close, remove, truncate, rename — routes through this interface,
// so the disk-fault suites can inject short writes, fsync EIO, ENOSPC, and
// crash-at-syscall-k schedules (mirroring the network tier's
// KillSwitchStream) without touching production code paths.  Reads — the
// recovery scan, wal.ckpt and the drain's stream over a sealed epoch's
// generations — stay on the plain stdio path: they read whatever bytes
// actually landed, which is exactly what a post-crash reopen sees.
//
// Production uses RealFs (a process-wide singleton; stateless, thread-safe).
// Tests wrap it: a fault Fs forwards to RealFs until its schedule trips,
// then fails the chosen syscall — or every subsequent one, which models the
// process dying at syscall k (the test then discards the server stack and
// reopens the directory with a fresh, healthy Fs).
#ifndef PROCHLO_SRC_SERVICE_FS_H_
#define PROCHLO_SRC_SERVICE_FS_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace prochlo {

class Fs {
 public:
  virtual ~Fs() = default;

  // open(2) with O_CREAT semantics decided by `flags`; returns the fd.
  virtual Result<int> Open(const std::string& path, int flags, int mode) = 0;
  // One write(2) attempt (EINTR retried internally); may legitimately write
  // fewer bytes than requested — callers must loop, and a fault Fs uses the
  // short return to model a torn append.
  virtual Result<size_t> Write(int fd, ByteSpan data) = 0;
  virtual Status Sync(int fd) = 0;   // fsync(2)
  virtual void Close(int fd) = 0;    // close(2); best-effort
  // Removes `path`; a missing file is success (remove-for-cleanup is
  // idempotent), any other failure is the error.
  virtual Status Remove(const std::string& path) = 0;
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;
  // rename(2): atomic replace — the commit point of wal.ckpt and seal
  // markers.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  // fsync(2) of the directory itself: makes freshly created / renamed /
  // removed *directory entries* durable.  Creating a file and fsyncing its
  // fd persists the bytes but not necessarily the dirent — a crash can lose
  // the name, and with it the seal marker or the session snapshot.
  virtual Status SyncDir(const std::string& path) = 0;

  // The process-wide passthrough instance.
  static Fs* Real();
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_FS_H_
