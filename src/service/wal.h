// Unified group-commit write-ahead log for the ingest tier: the single
// commit point through which a report or a session-state change becomes
// durable, and — since a sealed epoch is nothing but its WAL generations —
// the spool the drain reads.
//
// A report and its (session, seq) commit are ONE record in ONE log, appended
// (and made durable) atomically, so there is no crash point at which the
// report survives without its commit and a client replay re-ingests it as a
// duplicate.  Session evictions and goodbyes ride the same log, so every
// session-state mutation is totally ordered with the report stream.
//
// On-disk layout (all under `dir`, the spool root):
//
//   ingest-<gen>.wal    CRC-framed blocks of records; reports of ONE epoch
//   wal.ckpt            the session snapshot: the covered generation plus
//                       every live session and tombstone as of it
//                       (tmp + fsync + rename + dir-fsync)
//   epoch-<e>.sealed    marker: epoch e's generations with their byte
//                       sizes, and its report count
//
// Layered on the single commit point:
//
//   * Group commit.  Appends only buffer; durability is a barrier
//     (`SyncUpTo`): concurrent committers elect one leader that flushes the
//     whole pending block with a single write + fsync and fires every
//     record's completion, so N concurrent `EnqueueAsync` reports cost one
//     fsync, not N.  Completions fire strictly after the fsync and strictly
//     before the barrier returns to any waiter.
//   * Block packing.  A flush writes one CRC-framed block whose payload
//     packs every pending record, amortizing the 22 B v2 frame header that
//     costs ~5% on ~450 B sealed reports when paid per record.
//   * Checkpointing.  The WAL is a redo log and `wal.ckpt` its durable
//     image.  `Checkpoint()` rotates to a fresh generation, folds the
//     flushed session ops into the session image it holds, and publishes
//     the result as `wal.ckpt`; the image is adopted only once the publish
//     succeeded.  It copies no report bytes: a report's one durable copy is
//     its WAL record.  Generations that hold no reports are unlinked once
//     covered; the rest wait for their epoch to drain.
//   * Sealing.  `SealEpoch(e)` checkpoints (so e's last generation closes
//     and every session op in it is in the snapshot), then publishes
//     `epoch-<e>.sealed` naming e's generations.  No generation therefore
//     holds reports of two epochs, though a mid-epoch checkpoint can spread
//     one epoch over several generations.  `OpenEpochStream(e)` reads the
//     reports back one CRC-checked block at a time; `RemoveEpoch(e)` unlinks
//     the generations in the marker's order and the marker last, each
//     unlink (with fsync on) only once the ones before it are durable.  An
//     interrupted removal therefore leaves the marker naming a missing
//     prefix of its generations, even across a power loss.
//   * The epoch ledger.  The WAL is the only record of which epochs are
//     sealed, how many reports each holds, and which are drained:
//     `NextSealedEpoch()` hands out the oldest sealed epoch no successful
//     drain has claimed, and `RemoveEpoch(e)` claims e before it unlinks
//     anything.  A failed drain changes nothing, so the epoch stays next.
//     Reports carry no shard: a shard only picks an ingest worker.
//
// Failure semantics: a failed group commit rolls the active generation back
// to its durable prefix, fires the dead records' completions with the error
// (the caller NACKs — with the unified record, "commit lost" always implies
// "report lost", so degradation can no longer manufacture a post-restart
// duplicate), and invokes the rollback callback once with the number of
// report records dropped, so ingest accounting forgets them.  A failed
// checkpoint keeps the old image and its session ops queued ahead of newer
// ones for the next checkpoint; a failed marker leaves the old one
// authoritative, so a later retry (or a restart) sees a consistent prefix.
//
// Recovery (`Recover()`) is one call.  It first reads: `wal.ckpt`, whose
// snapshot must parse whole with exactly its recorded counts (it is
// published by rename, so any tear is damage and refuses the start), then
// the generations, one block at a time.  A sealed epoch's report count
// comes from its marker when the named generations still have their
// recorded sizes; every other generation is scanned for its epoch's report
// count, and those past `wal.ckpt` also for their session ops, folded into
// the snapshot once, in log order.  Only the newest generation may end in a
// torn write — a bad block with no CRC-valid frame after it; any other bad
// block fails recovery with the file and offset, leaving every file as it
// was.  So does a CRC-valid block holding a record that cannot be parsed —
// cut short, or of an unknown or retired kind — and so does a read error
// (reads go through config.fs, as writes do), which is never taken for an
// end of file or a torn write, and so does a marker whose missing
// generations are not a prefix of the ones it names:
// no interrupted removal leaves that, and dropping the rest would silently
// lose acknowledged reports.  Only then does it write:
// truncate the torn tail, publish `wal.ckpt` over every generation, seal
// (or re-seal) epochs that need a marker, finish removing epochs a crash
// interrupted mid-removal, unlink covered generations that hold no reports,
// and open a fresh generation.  A crash anywhere in between re-runs the
// same recovery against the old files.
#ifndef PROCHLO_SRC_SERVICE_WAL_H_
#define PROCHLO_SRC_SERVICE_WAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/service/fs.h"
#include "src/util/bytes.h"
#include "src/util/record_stream.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

// One session-state mutation a WAL record carries: the ack half of a report
// record, an LRU eviction, or a goodbye.
struct SessionOp {
  enum Kind : uint8_t { kCommit = 1, kEvict = 2, kGoodbye = 3 };
  Kind kind = kCommit;
  uint64_t session_id = 0;
  uint64_t value = 0;  // seq for kCommit, watermark floor for kEvict
};

// One live session's durable dedup state.
struct SessionSnapshot {
  uint64_t watermark = 0;     // every seq < watermark is durable
  std::set<uint64_t> sparse;  // durable seqs >= watermark

  bool operator==(const SessionSnapshot&) const = default;
};

// Every session's durable state at one point of the log: what wal.ckpt
// holds, and what recovery hands AckRegistry::RestoreFromRecovery.
struct SessionImage {
  std::map<uint64_t, SessionSnapshot> live;
  // Evicted sessions: id -> watermark floor.  Reports on these get the
  // kSessionExpired NACK instead of risking re-ingestion.
  std::map<uint64_t, uint64_t> evicted;

  bool operator==(const SessionImage&) const = default;
};

struct IngestWalConfig {
  // Directory the WAL lives in — the spool root, so generations, markers
  // and the snapshot share one crash domain (and one parent-dir fsync).
  std::string dir;
  // Group commits fsync before completions fire.  Off = page-cache
  // durability: process-kill safe, power-loss not (mirrors fsync_spool).
  bool fsync = true;
  // Checkpoint when the active generation (plus the pending block) exceeds
  // this many bytes.
  uint64_t checkpoint_threshold_bytes = 1ull << 20;
  // Filesystem seam; nullptr uses Fs::Real().
  Fs* fs = nullptr;
};

class IngestWal {
 public:
  using Completion = std::function<void(const Status&)>;
  // Invoked once per failed group commit with the number of report records
  // it dropped (never zero), so ingest accounting forgets them.  The
  // dropped records always belong to the open epoch: a seal flushes, and
  // thereby resolves, every buffered record first.
  using RollbackCallback = std::function<void(uint64_t)>;

  // One epoch as it stands once recovery finishes: its report count, and
  // whether it is sealed (queued for drain) or still accumulating.
  struct RecoveredEpoch {
    uint64_t reports = 0;
    bool sealed = false;
  };

  struct Recovery {
    // wal.ckpt's snapshot with every later session op folded in.
    SessionImage sessions;
    // Commit/evict/goodbye records past wal.ckpt.
    uint64_t replayed_session_ops = 0;
    // Every epoch that holds reports, keyed by epoch.  At most one is
    // unsealed: older unsealed epochs are sealed by recovery.
    std::map<uint64_t, RecoveredEpoch> epochs;
    // Reports in generations past wal.ckpt.
    uint64_t replayed_reports = 0;
    // Torn tail dropped from the newest generation.
    uint64_t truncated_bytes = 0;
    // Drained epochs whose removal a crash interrupted; recovery unlinks
    // what is left of them.
    uint64_t finished_removals = 0;
  };

  struct Stats {
    uint64_t appends = 0;
    uint64_t records_flushed = 0;
    uint64_t blocks_flushed = 0;
    uint64_t bytes_flushed = 0;
    uint64_t fsyncs = 0;
    uint64_t rolled_back_records = 0;
    uint64_t checkpoints = 0;
    uint64_t checkpoint_failures = 0;
  };

  explicit IngestWal(const IngestWalConfig& config);
  ~IngestWal();

  IngestWal(const IngestWal&) = delete;
  IngestWal& operator=(const IngestWal&) = delete;

  // See the file comment.  Creates the directory if needed, refuses damage
  // before it changes any file, and leaves the WAL open for appends.
  Result<Recovery> Recover();

  // The session image as of the last checkpoint; right after Recover, the
  // recovered one.
  SessionImage sessions() const;

  void set_rollback_callback(RollbackCallback cb);

  // Buffers one report record with its ack commit for (session_id, seq);
  // session 0 is refused, so every durable report belongs to a session.
  // On success, ownership of *done moves into the WAL: it fires exactly
  // once — Ok after a group commit covers the record, the flush error if
  // the record is rolled back.  On failure *done is untouched and the
  // caller resolves it.  Returns the record's LSN.  Reports of an epoch
  // must follow the previous epoch's SealEpoch.
  Result<uint64_t> AppendReport(uint64_t epoch, ByteSpan report, uint64_t session_id,
                                uint64_t seq, Completion* done);
  // Session-state records (no completion; durability rides the next
  // barrier — the registry barriers goodbyes, evictions ride along).
  Result<uint64_t> AppendEvict(uint64_t session_id, uint64_t floor);
  Result<uint64_t> AppendGoodbye(uint64_t session_id);

  // Group-commit barrier: returns once `lsn` is durable (Ok) or was rolled
  // back by a failed flush (that flush's error).  The record's completion
  // has already fired by the time this returns.
  Status SyncUpTo(uint64_t lsn);
  // Barrier over everything appended so far.
  Status Sync();

  // Rotate, fold the flushed session ops into the image, publish wal.ckpt.
  // Serialized; safe to call concurrently with appends and barriers.
  Status Checkpoint();
  // Checkpoint iff the active generation exceeds the configured threshold.
  Status MaybeCheckpoint();
  // Seals `epoch`, whose reports are every report flushed since the last
  // seal: checkpoint, then publish its marker.  The caller keeps new
  // reports of `epoch` out until this returns; on failure the epoch stays
  // open and a retry seals everything it has gathered since.
  Status SealEpoch(uint64_t epoch);
  // The oldest sealed epoch that no RemoveEpoch has claimed, if any: the
  // next one to drain.  A failed drain leaves it next.
  std::optional<uint64_t> NextSealedEpoch() const;
  // Streams a sealed epoch's reports in log order, one block resident at a
  // time; size() is the sealed count.  A bad block, a read error or an
  // unparseable record ends the stream, and status() then names the file
  // and the offset — also when the damage trails the epoch's last report.
  std::unique_ptr<RecordStream> OpenEpochStream(uint64_t epoch) const;
  // Claims a drained epoch, so NextSealedEpoch never hands it out again,
  // then unlinks its generations in order and its marker last.  A failed
  // call keeps what is left tracked, so a retry resumes where it stopped.
  Status RemoveEpoch(uint64_t epoch);

  Stats stats() const;

 private:
  struct PendingRecord {
    uint64_t lsn = 0;
    uint8_t kind = 0;
    uint64_t epoch = 0;
    uint64_t session_id = 0;
    uint64_t value = 0;  // seq (commit) or watermark floor (evict)
    Bytes report;
    Completion done;
  };

  // Moves from `record` only on success, so the caller can hand a failed
  // record's completion back to its origin.
  Result<uint64_t> AppendLocked(PendingRecord& record) EXCLUDES(sync_mu_, mu_);
  // Leader body: flush the pending block, fire its completions, update the
  // sync watermark.  Precondition: this thread holds sync leadership
  // (sync_inflight_ set under sync_mu_).
  Status FlushAsLeader() EXCLUDES(sync_mu_, mu_);
  // Closes the active generation into the open epoch's list and opens the
  // next one, unless the active generation is empty.
  Status RotateLocked() REQUIRES(mu_);
  Status CheckpointLocked() REQUIRES(ckpt_mu_);
  bool IsRolledBackLocked(uint64_t lsn) const REQUIRES(sync_mu_);

  std::string GenPath(uint64_t gen) const;
  std::string MarkerPath(uint64_t epoch) const;
  // Publishes a CRC-framed file at `path`: one frame of `header`, then
  // `body` in fixed-size chunk frames.  tmp + fsync + rename + dir-fsync.
  Status PublishFile(const std::string& path, ByteSpan header, ByteSpan body = {});
  Status WriteCheckpoint(uint64_t covered_gen, const SessionImage& image);
  // Unlinks `path` once every earlier unlink in the directory is durable
  // (with fsync on): removals land in the order they are issued.
  Status RemoveInOrder(const std::string& path);

  struct GenFile {
    uint64_t gen = 0;
    uint64_t bytes = 0;
    uint64_t reports = 0;
  };
  // An epoch's generations and report count: the contents of its seal
  // marker.
  struct EpochFiles {
    std::vector<GenFile> gens;
    uint64_t reports = 0;
  };
  // A sealed epoch awaiting its drain, or (claimed) its removal.
  struct SealedEpoch {
    EpochFiles files;
    bool claimed = false;  // by RemoveEpoch; never handed out again
  };
  Status WriteSealMarker(uint64_t epoch, const EpochFiles& files);
  // The marker's contents; nullopt when it is torn or corrupt, the error
  // when it cannot be read.
  Result<std::optional<EpochFiles>> ReadSealMarker(uint64_t epoch) const;

  IngestWalConfig config_;
  Fs* fs_;

  // The file changes recovery decided on, made once every check passed.
  struct RecoveryPlan;
  Status ApplyRecoveryPlan(RecoveryPlan& plan, SessionImage image);

  // Lock order: ckpt_mu_ -> sync_mu_ -> mu_.  sync_mu_ runs the group
  // commit leader election; mu_ guards the append buffer, the active
  // generation and the epoch bookkeeping; ckpt_mu_ serializes checkpoints
  // and seals and guards the session image (held across the snapshot and
  // marker writes, which take no other WAL lock).
  mutable Mutex ckpt_mu_;
  // The session image as of covered_gen_: what wal.ckpt holds.
  SessionImage image_ GUARDED_BY(ckpt_mu_);
  mutable Mutex sync_mu_ ACQUIRED_AFTER(ckpt_mu_);
  CondVar sync_cv_;
  bool sync_inflight_ GUARDED_BY(sync_mu_) = false;
  uint64_t synced_lsn_ GUARDED_BY(sync_mu_) = 0;
  // Closed LSN ranges dropped by failed flushes.  A follower that wakes
  // after its record died must see "rolled back", not wait forever for a
  // watermark that skipped it.
  std::vector<std::pair<uint64_t, uint64_t>> rolled_back_ GUARDED_BY(sync_mu_);

  mutable Mutex mu_ ACQUIRED_AFTER(sync_mu_);
  int fd_ GUARDED_BY(mu_) = -1;
  uint64_t gen_ GUARDED_BY(mu_) = 0;
  // Bytes durably flushed to the active generation — the truncation target
  // when a flush fails partway — and the reports among them.
  uint64_t gen_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t gen_reports_ GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ GUARDED_BY(mu_) = 1;
  std::vector<PendingRecord> pending_ GUARDED_BY(mu_);
  uint64_t pending_bytes_ GUARDED_BY(mu_) = 0;
  // Session ops flushed but not yet in the image, in LSN order.
  std::vector<SessionOp> unapplied_ GUARDED_BY(mu_);
  // Highest generation the on-disk wal.ckpt covers; recovery replays the
  // session ops of generations above it.
  uint64_t covered_gen_ GUARDED_BY(mu_) = 0;
  // The open epoch: its closed generations (the active generation joins at
  // the next rotation) and its flushed reports.
  EpochFiles open_ GUARDED_BY(mu_);
  // Sealed epochs whose files await RemoveEpoch: the drain queue.
  std::map<uint64_t, SealedEpoch> sealed_ GUARDED_BY(mu_);
  // A failed group commit whose rollback truncate ALSO failed leaves garbage
  // past gen_bytes_ in the active generation.  The next flush must truncate
  // it away before writing anything (a clean frame after the garbage would
  // make recovery refuse the generation as corrupt); until that succeeds
  // every flush fails and the service degrades to NACKs.  Appends keep
  // buffering, so the condition heals as soon as the filesystem does.
  bool dirty_tail_ GUARDED_BY(mu_) = false;

  RollbackCallback rollback_;

  mutable Mutex stats_mu_;
  Stats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_WAL_H_
