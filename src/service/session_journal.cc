#include "src/service/session_journal.h"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "src/service/wire.h"
#include "src/util/serialization.h"

namespace prochlo {

namespace {

// First payload byte of every journal record.  The op records share their
// kind byte with SessionOp::Kind.
enum RecordKind : uint8_t {
  kCommitRecord = SessionOp::kCommit,
  kEvictRecord = SessionOp::kEvict,
  kGoodbyeRecord = SessionOp::kGoodbye,
  kSnapshotRecord = 4,
};

// The commit/evict/goodbye record for one op.
Bytes EncodeOpRecord(const SessionOp& op) {
  Writer w;
  w.PutU8(op.kind);
  w.PutU64(op.session_id);
  switch (op.kind) {
    case SessionOp::kCommit:
      w.PutU64(0);
      w.PutU64(op.value);
      break;
    case SessionOp::kEvict:
      w.PutU64(op.value);
      break;
    case SessionOp::kGoodbye:
      break;
  }
  return w.Take();
}

Bytes EncodeSnapshotRecord(const SessionSnapshot& snapshot) {
  Writer w;
  w.PutU8(kSnapshotRecord);
  w.PutU64(snapshot.session_id);
  w.PutU64(snapshot.watermark);
  w.PutU32(static_cast<uint32_t>(snapshot.sparse.size()));
  for (uint64_t seq : snapshot.sparse) {
    w.PutU64(seq);
  }
  return w.Take();
}

// Replay state for one session while scanning the log.
struct ReplaySession {
  uint64_t watermark = 0;
  std::set<uint64_t> sparse;
  bool evicted = false;
  uint64_t floor = 0;
};

// Applies one decoded record.  Unknown kinds are skipped (forward
// compatibility: an older binary replaying a newer log must not lose the
// records it does understand).
void ApplyRecord(ByteSpan payload, std::map<uint64_t, ReplaySession>& sessions,
                 uint64_t* applied) {
  Reader r(payload);
  uint8_t kind = 0;
  uint64_t session_id = 0;
  if (!r.GetU8(&kind) || !r.GetU64(&session_id)) {
    return;
  }
  switch (kind) {
    case kCommitRecord: {
      uint64_t watermark_after = 0;
      uint64_t seq = 0;
      if (!r.GetU64(&watermark_after) || !r.GetU64(&seq)) {
        return;
      }
      ReplaySession& s = sessions[session_id];
      s.evicted = false;
      s.watermark = std::max(s.watermark, watermark_after);
      if (seq >= s.watermark) {
        s.sparse.insert(seq);
      }
      // Mirror the registry's advance: the sparse set stays the
      // out-of-order window above the watermark.
      while (!s.sparse.empty() && *s.sparse.begin() < s.watermark) {
        s.sparse.erase(s.sparse.begin());
      }
      while (!s.sparse.empty() && *s.sparse.begin() == s.watermark) {
        s.sparse.erase(s.sparse.begin());
        s.watermark++;
      }
      (*applied)++;
      return;
    }
    case kEvictRecord: {
      uint64_t floor = 0;
      if (!r.GetU64(&floor)) {
        return;
      }
      ReplaySession& s = sessions[session_id];
      s.evicted = true;
      s.floor = floor;
      s.sparse.clear();
      (*applied)++;
      return;
    }
    case kGoodbyeRecord: {
      sessions.erase(session_id);
      (*applied)++;
      return;
    }
    case kSnapshotRecord: {
      uint64_t watermark = 0;
      uint32_t count = 0;
      if (!r.GetU64(&watermark) || !r.GetU32(&count)) {
        return;
      }
      ReplaySession s;
      s.watermark = watermark;
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t seq = 0;
        if (!r.GetU64(&seq)) {
          return;
        }
        s.sparse.insert(seq);
      }
      sessions[session_id] = std::move(s);
      (*applied)++;
      return;
    }
    default:
      return;
  }
}

// Replaces `out`'s live sessions and tombstones with the replay map's.
void StoreImage(const std::map<uint64_t, ReplaySession>& sessions, JournalRecovery& out) {
  out.live.clear();
  out.evicted.clear();
  for (const auto& [session_id, s] : sessions) {
    if (s.evicted) {
      out.evicted.emplace_back(session_id, s.floor);
    } else {
      SessionSnapshot snapshot;
      snapshot.session_id = session_id;
      snapshot.watermark = s.watermark;
      snapshot.sparse.assign(s.sparse.begin(), s.sparse.end());
      out.live.push_back(std::move(snapshot));
    }
  }
}

}  // namespace

JournalRecovery ApplySessionOps(JournalRecovery base,
                                const std::vector<SessionOp>& ops) {
  if (ops.empty()) {
    return base;
  }
  // Rebuild the replay map the recovery image came from, run each op through
  // the same ApplyRecord sweep a journal record would take (re-encoding is
  // cheap and keeps exactly one replay semantics), and re-derive the image.
  std::map<uint64_t, ReplaySession> sessions;
  for (const auto& snapshot : base.live) {
    ReplaySession s;
    s.watermark = snapshot.watermark;
    s.sparse.insert(snapshot.sparse.begin(), snapshot.sparse.end());
    sessions[snapshot.session_id] = std::move(s);
  }
  for (const auto& [session_id, floor] : base.evicted) {
    ReplaySession s;
    s.evicted = true;
    s.floor = floor;
    sessions[session_id] = std::move(s);
  }
  for (const SessionOp& op : ops) {
    ApplyRecord(EncodeOpRecord(op), sessions, &base.records);
  }
  StoreImage(sessions, base);
  return base;
}

SessionJournal::SessionJournal(SessionJournalConfig config)
    : config_(std::move(config)), fs_(config_.fs != nullptr ? config_.fs : Fs::Real()) {}

SessionJournal::~SessionJournal() {
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    fs_->Close(fd_);
    fd_ = -1;
  }
}

Result<JournalRecovery> SessionJournal::Open() {
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    return Error{"session journal: already open"};
  }
  // A crash mid-compaction can leave the temp file behind; the rename never
  // happened, so the main log is authoritative and the temp is garbage.
  Status removed = fs_->Remove(config_.path + ".new");
  if (!removed.ok()) {
    return removed.error();
  }

  JournalRecovery recovery;
  Bytes log;
  if (std::FILE* f = std::fopen(config_.path.c_str(), "rb")) {
    uint8_t buffer[1 << 16];
    size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      log.insert(log.end(), buffer, buffer + got);
    }
    std::fclose(f);
  }

  std::map<uint64_t, ReplaySession> sessions;
  FrameReader reader(log);
  while (auto payload = reader.Next()) {
    ApplyRecord(*payload, sessions, &recovery.records);
  }
  // Same discipline as WAL recovery: everything past the first tear is
  // suspect; truncating restores the append-only invariant for new records.
  uint64_t clean_end = reader.clean_prefix_end();
  if (clean_end < log.size()) {
    recovery.truncated_bytes = log.size() - clean_end;
    Status truncated = fs_->Truncate(config_.path, clean_end);
    if (!truncated.ok()) {
      return truncated.error();
    }
  }

  StoreImage(sessions, recovery);

  auto fd = fs_->Open(config_.path, O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (!fd.ok()) {
    return fd.error();
  }
  fd_ = fd.value();
  bytes_ = clean_end;
  return recovery;
}

Status SessionJournal::WriteAll(int fd, ByteSpan data) {
  size_t done = 0;
  while (done < data.size()) {
    auto n = fs_->Write(fd, data.subspan(done));
    if (!n.ok()) {
      return n.error();
    }
    if (n.value() == 0) {
      return Error{"session journal: write made no progress"};
    }
    done += n.value();
  }
  return Status::Ok();
}

Status SessionJournal::Append(const std::vector<SessionOp>& ops) {
  if (ops.empty()) {
    return Status::Ok();
  }
  Bytes frames;
  for (const SessionOp& op : ops) {
    AppendFrame(frames, EncodeOpRecord(op));
  }
  MutexLock lock(mu_);
  if (fd_ < 0) {
    return Error{"session journal: not open"};
  }
  if (broken_) {
    return Error{"session journal: wedged by an earlier unrollable append failure"};
  }
  Status written = WriteAll(fd_, frames);
  if (written.ok() && config_.fsync) {
    written = fs_->Sync(fd_);
  }
  if (!written.ok()) {
    // Roll the batch back so the log stays a clean frame sequence and the
    // caller's retry appends it exactly once; if even the truncate fails
    // the journal wedges and later appends fail fast.
    if (!fs_->Truncate(config_.path, bytes_).ok()) {
      broken_ = true;
    }
    return written;
  }
  bytes_ += frames.size();
  return Status::Ok();
}

Status SessionJournal::Compact(const std::vector<SessionSnapshot>& live,
                               const std::vector<std::pair<uint64_t, uint64_t>>& evicted) {
  MutexLock lock(mu_);
  if (fd_ < 0) {
    return Error{"session journal: not open"};
  }

  const std::string tmp = config_.path + ".new";
  auto tmp_fd = fs_->Open(tmp, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (!tmp_fd.ok()) {
    return tmp_fd.error();
  }
  Bytes contents;
  for (const auto& snapshot : live) {
    AppendFrame(contents, EncodeSnapshotRecord(snapshot));
  }
  for (const auto& [session_id, floor] : evicted) {
    AppendFrame(contents, EncodeOpRecord({SessionOp::kEvict, session_id, floor}));
  }
  Status result = WriteAll(tmp_fd.value(), contents);
  if (result.ok() && config_.fsync) {
    result = fs_->Sync(tmp_fd.value());
  }
  fs_->Close(tmp_fd.value());
  if (result.ok()) {
    // The atomic commit point: before it the old log is authoritative,
    // after it the snapshot is.  A crash in between leaves one or the
    // other, never a blend.
    result = fs_->Rename(tmp, config_.path);
  }
  if (result.ok() && config_.fsync) {
    // The rename only commits once the directory entry itself is durable; a
    // crash that loses the dirent would resurrect the pre-compaction log.
    result = fs_->SyncDir(DirnameOf(config_.path));
  }
  if (!result.ok()) {
    (void)fs_->Remove(tmp);  // best effort; Open also clears stale temps
    return result;
  }

  fs_->Close(fd_);
  fd_ = -1;
  auto fd = fs_->Open(config_.path, O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (!fd.ok()) {
    broken_ = true;  // snapshot is durable, but new appends have nowhere to go
    return fd.error();
  }
  fd_ = fd.value();
  bytes_ = contents.size();
  broken_ = false;
  return Status::Ok();
}

uint64_t SessionJournal::appended_bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace prochlo
