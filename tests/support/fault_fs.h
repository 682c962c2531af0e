// The disk dying underneath the durability tier — the Fs-seam sibling of
// the network suites' KillSwitchStream, shared by every disk-fault suite.
// Forwards to the real filesystem until a schedule trips:
//   * FailWrites: every write answers ENOSPC with zero bytes landed.
//   * FailSyncs: fsync (file and directory) answers EIO.
//   * FailRemoves(n): the next n unlinks fail (post-drain cleanup retry).
//   * Wedge()/Heal(): while wedged, every write-side call fails and no
//     bytes land — the volume under one shard group went away.  Heal()
//     brings it back with whatever had landed before the wedge.
//   * ArmCrash(k): the k-th subsequent syscall and everything after it
//     fails — the process dying at syscall k.  If the k-th op is a write,
//     it lands a half-frame first, so the survivor finds a torn tail.
//   * ArmCrashExactly(k): ONLY the k-th subsequent syscall fails; later
//     ones succeed.  Pairs with tearing down the whole stack right after:
//     the process died between two specific syscalls, and the reopening
//     stack (same FaultFs) finds a healthy disk.
//   * TrackDirents()/DropUnsyncedDirents(): records file creates, renames
//     and unlinks per parent directory and forgets them when that directory
//     is fsynced; DropUnsyncedDirents() then undoes whatever was never made
//     durable — the dirent the crash lost because nobody fsynced the
//     parent.  A missing SyncDir in the production code shows up here as a
//     vanished seal marker or checkpoint, or an unlinked file come back.
// Close always forwards (a dying process still releases fds), and reads
// never fault: recovery reads whatever bytes actually landed.
#ifndef PROCHLO_TESTS_SUPPORT_FAULT_FS_H_
#define PROCHLO_TESTS_SUPPORT_FAULT_FS_H_

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/service/fs.h"

namespace prochlo {

class FaultFs : public Fs {
 public:
  static constexpr uint64_t kNever = ~uint64_t{0};

  FaultFs() : real_(Fs::Real()) {}

  Result<int> Open(const std::string& path, int flags, int mode) override {
    if (Faulted(NextOp())) {
      return Error{"faultfs: crashed (open)"};
    }
    const bool fresh = track_dirents_.load() && (flags & O_CREAT) != 0 &&
                       !std::filesystem::exists(path);
    auto fd = real_->Open(path, flags, mode);
    if (fd.ok() && fresh) {
      RecordDirent(DirentOp::kCreate, path, "");
    }
    return fd;
  }

  Result<size_t> Write(int fd, ByteSpan data) override {
    uint64_t op = NextOp();
    if (op == crash_at_.load() && data.size() > 1 && !wedged_.load()) {
      // The crashing write tears: half the bytes land, then the disk is
      // gone.  The short count is legitimate (callers loop), and the next
      // attempt fails — exactly how a torn tail forms.
      return real_->Write(fd, ByteSpan(data.data(), data.size() / 2));
    }
    if (Faulted(op)) {
      return Error{"faultfs: crashed (write)"};
    }
    if (fail_writes_.load()) {
      write_faults_.fetch_add(1);
      return Error{"faultfs: injected ENOSPC"};
    }
    return real_->Write(fd, data);
  }

  Status Sync(int fd) override {
    if (Faulted(NextOp())) {
      return Error{"faultfs: crashed (fsync)"};
    }
    if (fail_syncs_.load()) {
      return Error{"faultfs: injected EIO on fsync"};
    }
    return real_->Sync(fd);
  }

  void Close(int fd) override { real_->Close(fd); }

  Status Remove(const std::string& path) override {
    if (Faulted(NextOp())) {
      return Error{"faultfs: crashed (remove)"};
    }
    if (remove_faults_.fetch_sub(1) > 0) {
      return Error{"faultfs: injected unlink failure"};
    }
    remove_faults_.fetch_add(1);  // keep the counter from drifting below 0
    std::string contents;  // what an undone unlink brings back
    const bool track = track_dirents_.load();
    if (track) {
      std::ifstream in(path, std::ios::binary);
      contents.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    Status removed = real_->Remove(path);
    if (removed.ok() && track) {
      RecordDirent(DirentOp::kRemove, path, std::move(contents));
    }
    return removed;
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (Faulted(NextOp())) {
      return Error{"faultfs: crashed (truncate)"};
    }
    return real_->Truncate(path, size);
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (Faulted(NextOp())) {
      return Error{"faultfs: crashed (rename)"};
    }
    std::optional<std::string> replaced;  // what an undone rename brings back at `to`
    const bool track = track_dirents_.load();
    if (track && std::filesystem::exists(to)) {
      std::ifstream in(to, std::ios::binary);
      replaced.emplace(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    Status renamed = real_->Rename(from, to);
    if (renamed.ok() && track) {
      RecordDirent(DirentOp::kRename, from, to, std::move(replaced));
    }
    return renamed;
  }

  Status SyncDir(const std::string& path) override {
    if (Faulted(NextOp())) {
      return Error{"faultfs: crashed (fsync dir)"};
    }
    if (fail_syncs_.load()) {
      return Error{"faultfs: injected EIO on dir fsync"};
    }
    Status synced = real_->SyncDir(path);
    if (synced.ok()) {
      syncdirs_.fetch_add(1);
      std::lock_guard<std::mutex> lock(dirent_mu_);
      const std::string dir = std::filesystem::path(path).lexically_normal().string();
      pending_dirents_.erase(
          std::remove_if(pending_dirents_.begin(), pending_dirents_.end(),
                         [&](const PendingDirent& d) { return d.dir == dir; }),
          pending_dirents_.end());
    }
    return synced;
  }

  // The k-th write-side syscall from now on (1-based) and everything after
  // it fails.
  void ArmCrash(uint64_t after_ops) { crash_at_.store(ops_.load() + after_ops); }
  bool crashed() const { return ops_.load() >= crash_at_.load(); }

  // ONLY the k-th syscall from now on (1-based) fails; everything after it
  // succeeds again — the exact-window crash probe.
  void ArmCrashExactly(uint64_t after_ops) {
    fail_exactly_.store(ops_.load() + after_ops);
  }

  void FailWrites(bool on) { fail_writes_.store(on); }
  void FailSyncs(bool on) { fail_syncs_.store(on); }
  void FailRemoves(int64_t next_n) { remove_faults_.store(next_n); }
  void Wedge() { wedged_.store(true); }
  void Heal() { wedged_.store(false); }

  void TrackDirents(bool on) { track_dirents_.store(on); }

  // The crash's metadata casualty: every create, rename and unlink whose
  // parent directory was never fsynced afterwards is rolled back (newest
  // first) — created files vanish, renamed files snap back to their old
  // names (and a file they replaced reappears), unlinked files reappear
  // with the bytes they had.  `lost`, when
  // given, picks which of them the crash takes (by the path created,
  // renamed to or unlinked); the rest count as having reached the disk in
  // whatever order it chose.  Returns how many dirents were lost.
  size_t DropUnsyncedDirents(const std::function<bool(const std::string&)>& lost = {}) {
    std::vector<PendingDirent> pending;
    {
      std::lock_guard<std::mutex> lock(dirent_mu_);
      pending.swap(pending_dirents_);
    }
    std::vector<PendingDirent> doomed;
    for (PendingDirent& d : pending) {
      if (!lost || lost(d.op == DirentOp::kRename ? d.b : d.a)) {
        doomed.push_back(std::move(d));
      }
    }
    for (auto it = doomed.rbegin(); it != doomed.rend(); ++it) {
      if (it->op == DirentOp::kCreate) {
        (void)real_->Remove(it->a);
      } else if (it->op == DirentOp::kRename) {
        (void)real_->Rename(it->b, it->a);
        if (it->replaced.has_value()) {
          std::ofstream(it->b, std::ios::binary) << *it->replaced;
        }
      } else {
        std::ofstream(it->a, std::ios::binary) << it->b;
      }
    }
    return doomed.size();
  }

  uint64_t write_faults() const { return write_faults_.load(); }
  uint64_t syncdirs() const { return syncdirs_.load(); }

 private:
  enum class DirentOp { kCreate, kRename, kRemove };
  struct PendingDirent {
    DirentOp op;
    std::string dir;  // parent directory whose fsync would make it durable
    std::string a;    // created / renamed-from / unlinked path
    std::string b;    // rename destination / the unlinked file's bytes
    std::optional<std::string> replaced;  // the bytes a rename replaced
  };

  uint64_t NextOp() { return ops_.fetch_add(1) + 1; }

  // Whether write-side op number `op` fails outright: wedged, crashed, or
  // the exact-window probe.
  bool Faulted(uint64_t op) const {
    return wedged_.load() || op >= crash_at_.load() || op == fail_exactly_.load();
  }

  void RecordDirent(DirentOp op, const std::string& a, const std::string& b,
                    std::optional<std::string> replaced = std::nullopt) {
    PendingDirent d;
    d.op = op;
    d.dir = std::filesystem::path(op == DirentOp::kRename ? b : a)
                .parent_path()
                .lexically_normal()
                .string();
    d.a = a;
    d.b = b;
    d.replaced = std::move(replaced);
    std::lock_guard<std::mutex> lock(dirent_mu_);
    pending_dirents_.push_back(std::move(d));
  }

  Fs* real_;
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> crash_at_{kNever};
  std::atomic<uint64_t> fail_exactly_{kNever};
  std::atomic<bool> fail_writes_{false};
  std::atomic<bool> fail_syncs_{false};
  std::atomic<bool> wedged_{false};
  std::atomic<bool> track_dirents_{false};
  std::atomic<int64_t> remove_faults_{0};
  std::atomic<uint64_t> write_faults_{0};
  std::atomic<uint64_t> syncdirs_{0};
  std::mutex dirent_mu_;
  std::vector<PendingDirent> pending_dirents_;  // guarded by dirent_mu_
};

}  // namespace prochlo

#endif  // PROCHLO_TESTS_SUPPORT_FAULT_FS_H_
