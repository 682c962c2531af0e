// Sharded ingestion queues and epoch-cut policy for the shuffler frontend
// (paper §4.2: reports accumulate until a batch is large enough to provide
// anonymity, then the whole batch is shuffled and forwarded).
//
// Reports are routed to one of N shards by hashing the *ciphertext* bytes of
// the sealed report — never a plaintext crowd ID, which the frontend must
// not see (only the shuffler's keyed decryption reveals the CrowdPart, and
// even then only inside the trusted boundary).  Shard assignment is
// content-determined, so it is stable across retries and independent of
// arrival interleaving.
//
// Epochs advance by a cut policy with two triggers:
//   * size  — the epoch reaches max_epoch_reports (batch full);
//   * age   — Tick() has been called max_epoch_age times since the epoch
//             started AND the epoch holds at least min_epoch_reports (the
//             §4.2 minimum-batch anonymity floor: an old-but-small batch
//             keeps waiting rather than forwarding a thin crowd).
// CutEpoch() force-seals regardless (an operator flush); the downstream
// Shuffler still enforces its own min_batch_size.
#ifndef PROCHLO_SRC_SERVICE_INGEST_H_
#define PROCHLO_SRC_SERVICE_INGEST_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/service/wal.h"
#include "src/service/wire.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct IngestConfig {
  size_t num_shards = 4;
  // Size trigger: seal the epoch once it holds this many reports (0 = off).
  size_t max_epoch_reports = 0;
  // Age trigger: seal after this many Tick()s (0 = off) ...
  uint64_t max_epoch_age = 0;
  // ... but only once the epoch holds at least this many reports.
  size_t min_epoch_reports = 0;
};

struct IngestStats {
  uint64_t accepted = 0;
  uint64_t epochs_sealed = 0;
  uint64_t size_cuts = 0;
  uint64_t age_cuts = 0;
  // Seal attempts that failed (WAL SealEpoch errors).  A failure leaves
  // the epoch open — its reports are not lost — but it must be visible:
  // these two fields keep the books balanced and surface the last error so
  // operators see a wedged spool instead of a silently ageing epoch.
  uint64_t seal_failures = 0;
  std::string last_seal_error;
};

// A sealed epoch ready for draining.  Spooled mode carries only counts (the
// reports live in WAL generations; stream them via
// IngestWal::OpenEpochStream); in-memory mode carries the reports per shard
// in arrival order.
struct EpochBatch {
  uint64_t epoch = 0;
  size_t total = 0;
  std::vector<size_t> shard_counts;
  std::vector<std::vector<Bytes>> shard_reports;  // empty in spooled mode

  bool spooled() const { return shard_reports.empty() && total > 0; }
};

class ShardedIngest {
 public:
  // Accumulates in memory until SetWal attaches the write-ahead log.
  explicit ShardedIngest(IngestConfig config);

  // Routes one sealed report to its shard; thread-safe.  May seal the
  // current epoch when the size trigger fires.
  //
  // Error contract: a non-Ok return means the report was NOT ingested (the
  // client may safely retry it).  A size-cut whose SealEpoch fails
  // still returns Ok — the report itself is durably accepted, and returning
  // the seal error here would make a retrying client inject a duplicate.
  // The seal failure is surfaced via stats().seal_failures/last_seal_error
  // and by the next Tick()/CutEpoch().
  Status Accept(Bytes sealed_report);

  // Same as Accept for a report whose shard was already computed (the
  // ingest worker pool routes by ShardOfReport before enqueueing, so the
  // worker thread need not re-hash).  `shard_index` must equal
  // ShardOfReport(sealed_report, num_shards()).
  Status AcceptToShard(size_t shard_index, Bytes sealed_report);

  // WAL-mode accept: the report (and, when ctx.session_id != 0, its ack
  // commit) buffers into the WAL as one record.  On success *done (may be
  // null / empty) is consumed by the WAL and fires after the next
  // group-commit barrier; on failure it is untouched and Ok means
  // "accepted" exactly as in Accept.  Without an attached WAL this is plain
  // in-memory AcceptToShard and *done stays with the caller.
  Status AcceptToShard(size_t shard_index, Bytes sealed_report, ReportContext ctx,
                       std::function<void(const Status&)>* done);

  // Undo the accounting of one WAL-buffered report that a failed group
  // commit dropped.  WAL records always belong to the still-current epoch
  // (a seal flushes — and thereby resolves — every buffered record first),
  // so this only touches the live shard counters.  Deliberately takes no
  // epoch lock: the caller may already hold it exclusively (a seal whose
  // flush failed).
  void RollbackAccepted(size_t shard_index, uint64_t epoch);

  // Attaches the write-ahead log.  From then on accepts buffer into it, and
  // every seal is IngestWal::SealEpoch: the epoch's generations, closed and
  // named by its marker.  Call before any Accept traffic.
  void SetWal(IngestWal* wal);

  // Advances the logical epoch clock (the frontend calls this on its
  // scheduling cadence); may seal the current epoch by age.  Returns the
  // seal outcome: Ok when no cut was due or the cut succeeded, the WAL
  // error when an age-cut's SealEpoch failed (also recorded in
  // stats().seal_failures / last_seal_error).
  Status Tick();

  // Force-seals the current epoch if it holds any reports.  With
  // `seal_if_empty`, an empty epoch is sealed too (marker only, zero
  // reports) and the epoch number still advances — the cluster's epoch
  // coordinator uses this to keep every shard group's epoch clock aligned
  // even when a group received nothing this epoch.
  Status CutEpoch(bool seal_if_empty = false);

  // Oldest sealed epoch not yet handed out, if any.
  std::optional<EpochBatch> PopSealedEpoch();

  // Returns a popped-but-undrained epoch to the front of the queue: a
  // failed drain must not lose the batch (in-memory mode has no other
  // copy; spooled mode would otherwise skip the epoch until a restart).
  void RequeueSealedEpoch(EpochBatch batch);

  // Registers a callback fired after every successful epoch seal (and once
  // after a recovery that re-queued sealed epochs).  It runs under the
  // epoch lock, so it must be lock-light — the drain scheduler's listener
  // just flags its condition variable, which is the point: sealed epochs
  // start draining on the event instead of a poll.  Pass nullptr to
  // unregister; the setter synchronizes on the epoch lock, so after it
  // returns no seal is mid-call into the old listener.
  void SetSealListener(std::function<void()> listener);

  // Adopts the epochs a reopened WAL recovered: sealed epochs re-enter the
  // sealed queue; the unsealed one (IngestWal seals any older ones) becomes
  // the current epoch's accumulation, its age restarted.  Without one, the
  // clock resumes past the newest recovered epoch.
  void RestoreFromRecovery(const IngestWal::Recovery& recovery);

  uint64_t current_epoch() const { return current_epoch_; }
  size_t current_epoch_size() const { return current_total_.load(); }
  size_t num_shards() const { return config_.num_shards; }
  IngestStats stats() const;

  // Content hash of the sealed (ciphertext) bytes -> shard index.
  static size_t ShardOfReport(ByteSpan sealed_report, size_t num_shards);

 private:
  struct Shard {
    Mutex mu;
    size_t count GUARDED_BY(mu) = 0;            // reports in the current epoch
    std::vector<Bytes> reports GUARDED_BY(mu);  // in-memory mode only
  };

  // Seals the current epoch; requires epoch_mu_ held exclusively.
  Status SealCurrentLocked() REQUIRES(epoch_mu_);

  IngestConfig config_;
  IngestWal* wal_ = nullptr;  // borrowed; null = in-memory accumulation

  // Shared: Accept; exclusive: epoch transitions (cut, tick-cut, restore).
  mutable SharedMutex epoch_mu_;
  // Written only under exclusive epoch_mu_; invoked under the same.
  std::function<void()> seal_listener_ GUARDED_BY(epoch_mu_);
  std::vector<std::unique_ptr<Shard>> shards_;  // sized in ctor, never resized
  std::atomic<uint64_t> current_epoch_{0};
  std::atomic<size_t> current_total_{0};
  uint64_t current_age_ GUARDED_BY(epoch_mu_) = 0;  // ticks since epoch start

  mutable Mutex sealed_mu_;
  std::deque<EpochBatch> sealed_ GUARDED_BY(sealed_mu_);
  IngestStats stats_ GUARDED_BY(sealed_mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_INGEST_H_
