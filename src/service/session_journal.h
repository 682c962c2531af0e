// The checkpointed image of AckRegistry session state: a CRC-framed journal
// living inside the spool directory.  The ingest WAL (wal.h) is the commit
// point for every session-state change; this journal is where its
// checkpoints write those changes through, so recovery replays the journal
// plus the WAL's un-checkpointed suffix.
//
//   <spool root>/sessions.journal        wire-v2 frames, one record each
//   <spool root>/sessions.journal.new    in-progress compaction (stale copies
//                                        are removed at Open)
//
// Each record is an ordinary wire frame (the same CRC framing as the WAL's
// blocks) whose payload encodes one of:
//
//   commit   (session, watermark_after, seq)   a seq became durable
//   evict    (session, floor)                  session LRU-evicted; its
//                                              watermark compacted to one
//                                              record, sparse state dropped
//   goodbye  (session)                         session terminated by the
//                                              client's kGoodbye handshake;
//                                              every trace is dropped
//   snapshot (session, watermark, sparse[])    full per-session state, the
//                                              unit of compaction rewrites
//
// (Commits are written with watermark_after = 0; replay rebuilds the
// watermark from the seq set.)
//
// Durability discipline mirrors the WAL's group commit: Append encodes a whole
// checkpoint's ops, then issues one write and one fsync (it has a single
// caller at a time — the WAL checkpoint or startup recovery — so there is
// no group commit here); reopen scans with FrameReader and truncates the
// torn tail at clean_prefix_end.  Compaction writes a full snapshot to
// `.new`, fsyncs it, and renames over the log — the rename is the atomic
// commit point, so a crash mid-compaction leaves either the old log (plus a
// stale `.new` that Open removes) or the new one, never a blend.
//
// All write-side syscalls route through the injectable Fs seam, so the
// disk-fault suites can drive short writes, fsync EIO, ENOSPC, and
// crash-at-syscall-k schedules through exactly the production code.
#ifndef PROCHLO_SRC_SERVICE_SESSION_JOURNAL_H_
#define PROCHLO_SRC_SERVICE_SESSION_JOURNAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/service/fs.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct SessionJournalConfig {
  std::string path;  // the journal file; ".new" is appended for compaction
  // fsync before Append and Compact return (false = buffered writes only:
  // survives a process kill, not a power loss — the benches' mode).
  bool fsync = true;
  // Rewrite the log as snapshots once it exceeds this many bytes (0 = never).
  uint64_t compact_threshold_bytes = 1 << 20;
  Fs* fs = nullptr;  // injectable; null = Fs::Real()
};

// Full per-session durable state, as recovered and as compacted.
struct SessionSnapshot {
  uint64_t session_id = 0;
  uint64_t watermark = 0;            // every seq < watermark is durable
  std::vector<uint64_t> sparse;      // durable seqs >= watermark
};

struct JournalRecovery {
  std::vector<SessionSnapshot> live;
  // Evicted sessions: id -> checkpointed floor.  Reports on these get the
  // kSessionExpired NACK instead of risking re-ingestion.
  std::vector<std::pair<uint64_t, uint64_t>> evicted;
  uint64_t records = 0;          // records replayed
  uint64_t truncated_bytes = 0;  // torn tail removed at the end of the log
};

// One session-state mutation carried by the ingest WAL.  The WAL logs
// commit/evict/goodbye records interleaved (and totally ordered) with report
// appends; checkpoints and recovery journal them here through Append, and
// recovery folds the un-checkpointed ones into the journal's recovery image
// via ApplySessionOps.
struct SessionOp {
  enum Kind : uint8_t { kCommit = 1, kEvict = 2, kGoodbye = 3 };
  Kind kind = kCommit;
  uint64_t session_id = 0;
  uint64_t value = 0;  // seq for kCommit, watermark floor for kEvict
};

// Applies an ordered list of session ops on top of a journal recovery,
// exactly as if they had been journal records appended after the log's last
// record.  Used at startup to merge the WAL's un-checkpointed session-state
// suffix into the registry's restore image.
JournalRecovery ApplySessionOps(JournalRecovery base,
                                const std::vector<SessionOp>& ops);

class SessionJournal {
 public:
  explicit SessionJournal(SessionJournalConfig config);
  ~SessionJournal();

  SessionJournal(const SessionJournal&) = delete;
  SessionJournal& operator=(const SessionJournal&) = delete;

  // Replays the journal (removing a stale compaction temp, truncating the
  // torn tail) and opens it for appending.  Call once, before any append.
  Result<JournalRecovery> Open();

  // Appends one record per op, in order, with one write and one fsync (no
  // fsync when config.fsync is off).  A failed append leaves no record
  // behind: the tail is truncated back, and if even that fails the journal
  // wedges and every later append fails fast.
  Status Append(const std::vector<SessionOp>& ops);

  // Atomically replaces the log with one snapshot record per live session
  // plus one evict record per tombstone.  Blocks appends for the duration.
  Status Compact(const std::vector<SessionSnapshot>& live,
                 const std::vector<std::pair<uint64_t, uint64_t>>& evicted);

  // Current log size in bytes; the registry compacts when this crosses the
  // configured threshold.
  uint64_t appended_bytes() const;
  uint64_t compact_threshold_bytes() const { return config_.compact_threshold_bytes; }
  const std::string& path() const { return config_.path; }

 private:
  Status WriteAll(int fd, ByteSpan data);

  SessionJournalConfig config_;
  Fs* fs_;  // borrowed (or the Real() singleton)

  // Serializes Open, Append and Compact, and guards the fd and log size.
  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  bool broken_ GUARDED_BY(mu_) = false;  // append failed, could not roll back
  uint64_t bytes_ GUARDED_BY(mu_) = 0;   // current log size
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_SESSION_JOURNAL_H_
