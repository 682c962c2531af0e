// The shuffler-frontend ingestion service: the standing tier between
// clients and the batch Pipeline that makes this repo behave like the
// paper's deployed shuffler rather than a one-shot simulator.
//
//   clients ──HELLO, REPORT(seq)──► FrameServer (connection.h: CRC-checked
//                          │   frames, AckRegistry claim) ──► worker pool
//                          │   ──► AcceptRoutedReportAsync
//                          ▼
//                      ShardedIngest (ingest.h: size/age epoch-cut
//                          │   policy over the open epoch)
//                          ▼
//                      IngestWal (wal.h: group-committed generations and
//                          │   the epoch ledger; a sealed epoch is its
//                          │   generations, which survive crashes)
//                          ▼  epoch sealed
//                      DrainSealedEpochs ──► Pipeline::RunReportsPartial
//                          │   (outer open on the thread pool)
//                          ▼  one partial
//                      Pipeline::MergeEpoch (shuffle + threshold, then the
//                          analyzer decrypts only the survivors; the same
//                          merge the cluster runs over its groups' partials)
//                          ──► EpochResult
//
// Determinism: each epoch's shuffle/threshold randomness is derived from
// (pipeline seed, epoch number) — not from the pipeline's mutable RNG — so
// for a fixed seed the per-epoch histogram is a function of the epoch's
// report *set* alone: independent of ingestion interleaving, of drain
// order, and of whether a crash/recovery happened mid-epoch, under every
// threshold mode (the shuffle starts from a canonical order; see
// Pipeline::MergePartials).
#ifndef PROCHLO_SRC_SERVICE_FRONTEND_H_
#define PROCHLO_SRC_SERVICE_FRONTEND_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/fs.h"
#include "src/service/ingest.h"
#include "src/service/wal.h"
#include "src/service/wire.h"

namespace prochlo {

class AckRegistry;

struct FrontendConfig {
  PipelineConfig pipeline;
  IngestConfig ingest;
  // Directory of the WAL (wal.h), whose generations spool the epochs.
  // Empty = the frontend's own in-memory MemFs, which survives nothing:
  // the same WAL, epochs and drain, with no durability.
  std::string spool_dir;
  bool fsync_spool = true;
  // Reports (and their ack commits) go through the unified group-commit
  // WAL; a scheduling tick checkpoints it once the active generation
  // exceeds this.
  uint64_t wal_checkpoint_threshold_bytes = 1ull << 20;
  // Bound on live AckRegistry sessions when BindAckRegistry wires one up
  // (0 = unbounded).  Past the cap, the stalest idle session is LRU-evicted
  // with its watermark logged as an evict record, and checkpoints carry its
  // tombstone in the wal.ckpt snapshot.
  size_t max_sessions = 0;
  // Injectable filesystem seam under the WAL (disk-fault suites drive
  // short writes and reads, EIO, ENOSPC and crash-at-k through it).  Null =
  // the real filesystem, or the private MemFs when spool_dir is empty.
  Fs* fs = nullptr;
};

// Counters are atomic because AcceptRoutedReportAsync is, like
// ShardedIngest::Accept, callable from concurrent ingest threads.
// The framing books live in FrameServer::stats().
struct FrontendStats {
  std::atomic<uint64_t> reports_accepted{0};
  std::atomic<uint64_t> epochs_drained{0};
  std::atomic<uint64_t> recovered_reports{0};   // found in the WAL at Start()
  std::atomic<uint64_t> recovered_truncated_bytes{0};  // torn tail discarded
  // WAL recovery: reports in generations past wal.ckpt, and the session ops
  // (commit/evict/goodbye) folded into the snapshot from the same suffix.
  // Both subsets of the totals above/below.
  std::atomic<uint64_t> recovered_wal_reports{0};
  std::atomic<uint64_t> recovered_wal_session_ops{0};
  // Post-drain cleanups (IngestWal::RemoveEpoch) that failed even after
  // the bounded retries.  The epoch's reports are NOT lost — they were
  // already drained into a result.  If the marker outlived any of its
  // generations, a restart finishes the removal; if none went, a restart
  // drains the whole epoch again, bit-identically.  Either way the leak
  // must be visible.
  std::atomic<uint64_t> remove_failures{0};
  // RemoveEpoch retry attempts that were needed (transient failures).
  std::atomic<uint64_t> remove_retries{0};
  // Drained epochs whose removal a crash interrupted, finished at Start().
  std::atomic<uint64_t> recovered_removals{0};
  // Live sessions in the session image recovered at Start().
  std::atomic<uint64_t> recovered_sessions{0};
  // Acknowledgment-protocol books, mirrored from every finished
  // connection's ConnectionAckBook by FrameServer::BindFrontendStats.  An
  // ack is sent only after the report's WAL group commit, and a failed
  // commit rolls reports_accepted back, so on a frontend fed only through
  // its server reports_accepted == acks_sent once every connection is
  // shut down.
  std::atomic<uint64_t> acks_sent{0};
  std::atomic<uint64_t> nacks_sent{0};
  std::atomic<uint64_t> duplicates_suppressed{0};
  // Cluster routing books (src/service/cluster/).  On a group's frontend:
  // routed counts reports this group accepted as owner; redirects_sent
  // counts reports refused with a redirect NACK (mirrored from the
  // connection books, one redirect per rejection).  On the merge side:
  // merge_waits counts MergeEpoch calls that had to block for a missing
  // group's seal, merge_shortfalls counts epochs merged after the barrier
  // timed out with groups still missing (their late reports are accounted,
  // never silently dropped).
  std::atomic<uint64_t> routed{0};
  std::atomic<uint64_t> redirects_sent{0};
  std::atomic<uint64_t> merge_waits{0};
  std::atomic<uint64_t> merge_shortfalls{0};
};

struct EpochResult {
  uint64_t epoch = 0;
  size_t reports = 0;
  PipelineResult result;
};

// One epoch's pre-threshold contribution from this frontend (cluster mode):
// each crowd's still-encrypted inner boxes, not a histogram — thresholding
// is global, so only the merge step (HistogramMerge) may apply it, and only
// its survivors reach the analyzer.
struct EpochPartialResult {
  uint64_t epoch = 0;
  size_t reports = 0;
  EpochPartial partial;
};

// A drain failure: the read, the open or the merge of `epoch` failed.  The
// epoch stays queued intact (its reports are safe in its WAL generations),
// so a later DrainSealedEpochs retries it.
struct DrainError {
  uint64_t epoch = 0;
  Error error;
};

// What one DrainSealedEpochs call accomplished: every epoch it *did* drain,
// plus the failure that stopped it early (if any).  Partial progress is
// never discarded — an error on epoch e does not lose the results of the
// epochs drained before it.
struct DrainReport {
  std::vector<EpochResult> results;
  std::optional<DrainError> failure;

  bool ok() const { return !failure.has_value(); }
};

class ShufflerFrontend {
 public:
  explicit ShufflerFrontend(FrontendConfig config);

  // Opens the WAL (creating/recovering it) and readies ingestion.  After a
  // crash, sealed epochs re-enter the drain queue and the unsealed epoch
  // resumes accumulating exactly where its durable records end, and the
  // session image — the durable half of the exactly-once dedup contract —
  // is recovered from the wal.ckpt snapshot plus the session ops past it.
  Status Start();

  // Wires an AckRegistry (typically FrameServer::registry()) to this
  // frontend's durable session state: applies config.max_sessions, seeds
  // the registry with the WAL's session image, and attaches the
  // WAL so commits/evictions/goodbyes are made durable before they are
  // acknowledged.  Call after Start() and before serving connections.
  Status BindAckRegistry(AckRegistry* registry);

  // The ingest WAL; open once Start() succeeded.
  IngestWal* wal() { return wal_.get(); }

  // Encoder bound to this frontend's pipeline keys, for clients.
  Encoder MakeEncoder() const { return pipeline_.MakeEncoder(); }

  // The one ingestion path.  `shard_index` is the ingest worker pool's
  // routing key (ShardOfReport, computed before enqueueing); it must be
  // below num_shards(), and nothing below the frontend sees it.  The report
  // and its ack commit for ctx's (session, seq) buffer as one WAL record;
  // session 0 is refused.  `done` fires exactly once — Ok after a group
  // commit makes the record durable, the flush error if a failed commit
  // rolled it back (in which case the report was NOT ingested and the
  // accounting has been undone, so the client may retry without
  // duplicating), or inline with the returned error when the append itself
  // failed or the shard is out of range.  An Ok return only means
  // "buffered"; the durability verdict is done's argument.
  Status AcceptRoutedReportAsync(size_t shard_index, Bytes sealed_report,
                                 ReportContext ctx,
                                 std::function<void(const Status&)> done);

  // Group-commit barrier: returns once every report buffered so far is
  // durable (and its completion has fired) — one fsync amortized across
  // every waiter, per IngestWal::SyncUpTo.
  Status BarrierIngest();

  // Advances the epoch-age clock (call on the service's scheduling cadence).
  // Reports the seal outcome when the tick age-cuts the epoch: a WAL
  // failure is returned here (and counted in ingest_stats().seal_failures)
  // rather than silently swallowed; the epoch stays open for a later retry.
  Status Tick();
  // Forces the current epoch to seal (operator flush).  `seal_if_empty`
  // seals and advances even a zero-report epoch — the cluster coordinator's
  // epoch-alignment cut (see ShardedIngest::CutEpoch).
  Status CutEpoch(bool seal_if_empty = false);

  // Drains every sealed epoch, oldest first, as a one-group cluster: the
  // outer open, then Pipeline::MergeEpoch over the one partial (shuffle,
  // threshold, and the analyzer on the survivors).  Each result's stats are
  // that epoch's own.  Stops at the first epoch whose drain fails; that
  // epoch stays queued *intact* (a retrying call sees its full report set
  // again), and the report carries both the epochs already drained and the
  // failure — partial progress is never discarded.  Safe to call
  // concurrently with ingestion/Tick/CutEpoch (drain of epoch e overlaps
  // accumulation of e+1), but not with itself: one drainer at a time.
  DrainReport DrainSealedEpochs();

  // Cluster-mode drain: takes the oldest sealed epoch and runs only the
  // shuffler's outer open, returning the epoch's pre-threshold partial
  // (each crowd's still-encrypted inner boxes) for HistogramMerge to
  // combine across groups; the analyzer is never called here.  nullopt
  // when no sealed epoch is queued; on failure the epoch stays queued
  // intact, as in DrainSealedEpochs.  An empty sealed epoch (a
  // seal_if_empty alignment cut) yields an empty partial.
  Result<std::optional<EpochPartialResult>> DrainNextEpochPartial();

  // Fired after every successful epoch seal; owned by the drain scheduler
  // while it runs (see ShardedIngest::SetSealListener for the contract).
  void SetSealListener(std::function<void()> listener) {
    ingest_->SetSealListener(std::move(listener));
  }

  FrontendStats& stats() { return stats_; }
  const FrontendStats& stats() const { return stats_; }
  uint64_t current_epoch() const { return ingest_->current_epoch(); }
  size_t current_epoch_size() const { return ingest_->current_epoch_size(); }
  size_t num_shards() const { return ingest_->num_shards(); }
  IngestStats ingest_stats() const { return ingest_->stats(); }

 private:
  // One epoch's drain, as DrainNextEpoch left it.
  struct DrainedEpoch {
    EpochPartialResult opened;  // the partial is left empty by a merge
    PipelineResult merged;      // DrainNextEpoch(/*merge=*/true) only
    Status status;              // non-Ok: the epoch stays queued intact
  };
  // The one drain step behind both drains: takes the WAL's next sealed
  // epoch (IngestWal::NextSealedEpoch) and streams it off its generations
  // through the shuffler's outer open; the stream's size() is its count.
  // With `merge` — the serial drain — the one partial is then merged
  // through Pipeline::MergeEpoch, the call HistogramMerge makes, so the
  // serial drain is the one-group cluster drain.  A failure changes no
  // state, so the epoch stays next.  Does not finish the epoch.  nullopt
  // when no sealed epoch is queued.
  std::optional<DrainedEpoch> DrainNextEpoch(bool merge);
  // Shared epilogue of both drains once an epoch's drain succeeded: removes
  // its generations and marker with bounded retries, and counts it drained.
  void FinishDrainedEpoch(uint64_t epoch);

  FrontendConfig config_;
  Pipeline pipeline_;
  std::unique_ptr<Fs> mem_fs_;  // the WAL's home when spool_dir is empty
  std::unique_ptr<IngestWal> wal_;
  std::unique_ptr<ShardedIngest> ingest_;
  FrontendStats stats_;
  bool started_ = false;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_FRONTEND_H_
