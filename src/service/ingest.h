// The epoch-cut policy in front of the ingest WAL (paper §4.2: reports
// accumulate until a batch is large enough to provide anonymity, then the
// whole batch is shuffled and forwarded).
//
// A report's shard is a routing key and nothing more: a hash of the
// *ciphertext* bytes of the sealed report — never a plaintext crowd ID,
// which the frontend must not see (only the shuffler's keyed decryption
// reveals the CrowdPart, and even then only inside the trusted boundary) —
// that picks the ingest worker.  It is content-determined, so it is stable
// across retries and independent of arrival interleaving, and nothing
// durable stores it.  The epoch ledger — which epochs are sealed, how many
// reports each holds, which are drained — is the WAL's alone (wal.h); this
// tier keeps only the open epoch's number, age and size.
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
#include <functional>
#include <string>

#include "src/service/wal.h"
#include "src/service/wire.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct IngestConfig {
  // Routing width: a report's shard is ShardOfReport(report, num_shards),
  // and the ingest worker pool runs shard s on worker s % workers.
  size_t num_shards = 4;
  // Size trigger: seal the epoch once it holds this many reports (0 = off).
  size_t max_epoch_reports = 0;
  // Age trigger: seal after this many Tick()s (0 = off) ...
  uint64_t max_epoch_age = 0;
  // ... but only once the epoch holds at least this many reports.
  size_t min_epoch_reports = 0;
};

// This process's books: epochs sealed before a restart count in none of
// them (IngestWal::Recovery reports those).
struct IngestStats {
  // Reports of the epochs sealed here, plus the open epoch's.
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

class ShardedIngest {
 public:
  // Every accept buffers into `wal` (borrowed; recovered and open before
  // the first Accept), and every seal is IngestWal::SealEpoch: the epoch's
  // generations, closed and named by its marker.
  ShardedIngest(IngestConfig config, IngestWal* wal);

  // Accepts one sealed report into the open epoch; thread-safe.  The
  // report and its ack commit for ctx's (session, seq) buffer into the WAL
  // as one record; session 0 is refused.  On success *done (may be null /
  // empty) is consumed by the WAL and fires after the next group-commit
  // barrier; on failure it is untouched.  May seal the current epoch when
  // the size trigger fires.
  //
  // Error contract: a non-Ok return means the report was NOT ingested (the
  // client may safely retry it).  A size-cut whose SealEpoch fails
  // still returns Ok — the report itself is accepted, and returning the
  // seal error here would make a retrying client inject a duplicate.
  // The seal failure is surfaced via stats().seal_failures/last_seal_error
  // and by the next Tick()/CutEpoch().
  Status Accept(ByteSpan sealed_report, ReportContext ctx,
                std::function<void(const Status&)>* done);

  // Forgets `count` WAL-buffered reports that a failed group commit
  // dropped.  WAL records always belong to the still-current epoch (a seal
  // flushes — and thereby resolves — every buffered record first), so this
  // only lowers the open epoch's size.  Deliberately takes no epoch lock:
  // the caller may already hold it exclusively (a seal whose flush failed).
  void RollbackAccepted(uint64_t count);

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

  // Registers a callback fired after every successful epoch seal (and once
  // after a recovery that found sealed epochs); the sealed epochs queue in
  // the WAL (IngestWal::NextSealedEpoch).  It runs under the epoch lock,
  // so it must be lock-light — the drain scheduler's listener
  // just flags its condition variable, which is the point: sealed epochs
  // start draining on the event instead of a poll.  Pass nullptr to
  // unregister; the setter synchronizes on the epoch lock, so after it
  // returns no seal is mid-call into the old listener.
  void SetSealListener(std::function<void()> listener);

  // Adopts the epochs a reopened WAL recovered: the unsealed one (IngestWal
  // seals any older ones) becomes the current epoch, with its report count
  // and its age restarted.  Without one, the clock resumes past the newest
  // recovered epoch.  Sealed epochs stay queued in the WAL; the seal
  // listener fires if there are any.
  void RestoreFromRecovery(const IngestWal::Recovery& recovery);

  uint64_t current_epoch() const { return current_epoch_; }
  size_t current_epoch_size() const { return current_total_.load(); }
  size_t num_shards() const { return config_.num_shards; }
  IngestStats stats() const;

  // Content hash of the sealed (ciphertext) bytes -> shard index: the
  // routing key that picks an ingest worker.
  static size_t ShardOfReport(ByteSpan sealed_report, size_t num_shards);

 private:
  // Seals the current epoch; requires epoch_mu_ held exclusively.
  Status SealCurrentLocked() REQUIRES(epoch_mu_);

  IngestConfig config_;
  IngestWal* wal_;  // borrowed

  // Shared: Accept; exclusive: epoch transitions (cut, tick-cut, restore).
  mutable SharedMutex epoch_mu_;
  // Written only under exclusive epoch_mu_; invoked under the same.
  std::function<void()> seal_listener_ GUARDED_BY(epoch_mu_);
  std::atomic<uint64_t> current_epoch_{0};
  std::atomic<size_t> current_total_{0};  // reports in the open epoch
  uint64_t current_age_ GUARDED_BY(epoch_mu_) = 0;  // ticks since epoch start

  mutable Mutex stats_mu_;
  IngestStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_INGEST_H_
