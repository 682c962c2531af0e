#include "src/service/ingest.h"

#include <algorithm>

#include "src/crypto/sha256.h"

namespace prochlo {

size_t ShardedIngest::ShardOfReport(ByteSpan sealed_report, size_t num_shards) {
  // Hash of the ciphertext bytes only: the frontend never inspects (and
  // could not decrypt) the report's contents.  SHA-256 keeps the assignment
  // uniform even against adversarial report construction.
  Sha256Digest digest = Sha256::TaggedHash("prochlo-ingest-shard", sealed_report);
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) {
    h |= static_cast<uint64_t>(digest[i]) << (8 * i);
  }
  return static_cast<size_t>(h % num_shards);
}

ShardedIngest::ShardedIngest(IngestConfig config, IngestWal* wal) : config_(config), wal_(wal) {
  if (config_.num_shards == 0) {
    config_.num_shards = 1;
  }
}

Status ShardedIngest::Accept(ByteSpan sealed_report, ReportContext ctx,
                             std::function<void(const Status&)>* done) {
  bool size_trigger = false;
  {
    ReaderMutexLock epoch_lock(epoch_mu_);
    // Unified durability: the report AND its ack commit become one WAL
    // record, so there is no window where one is durable without the
    // other.  The WAL consumes *done on success (it fires after the next
    // group commit); a failed append leaves it with the caller.
    Result<uint64_t> lsn =
        wal_->AppendReport(current_epoch_.load(), sealed_report, ctx.session_id, ctx.seq, done);
    if (!lsn.ok()) {
      return lsn.error();  // not buffered: the client may retry
    }
    size_t total = current_total_.fetch_add(1) + 1;
    size_trigger = config_.max_epoch_reports > 0 && total >= config_.max_epoch_reports;
  }
  if (size_trigger) {
    // Re-checked under the exclusive lock: a racing Accept may have already
    // cut, in which case the epoch is fresh and below the trigger again.
    WriterMutexLock epoch_lock(epoch_mu_);
    if (config_.max_epoch_reports > 0 && current_total_.load() >= config_.max_epoch_reports) {
      Status status = SealCurrentLocked();
      if (status.ok()) {
        MutexLock stats_lock(stats_mu_);
        stats_.size_cuts++;
      }
      // A failed seal is NOT this report's failure: the report was already
      // buffered into the WAL above, so propagating the
      // error would tell the client "not ingested" and a retry would inject
      // a duplicate.  The epoch stays open with the failure recorded in
      // seal_failures/last_seal_error; the next Accept over the size
      // trigger, Tick(), or CutEpoch() retries the seal.
    }
  }
  return Status::Ok();
}

void ShardedIngest::RollbackAccepted(uint64_t count) {
  // No epoch lock here on purpose: a seal-time checkpoint holds epoch_mu_
  // exclusively while its flush (and thus this rollback) runs, and the
  // epoch cannot advance mid-rollback because advancing requires the same
  // exclusive epoch_mu_ the checkpoint holds.
  size_t total = current_total_.load();
  while (!current_total_.compare_exchange_weak(total, total - std::min<size_t>(total, count))) {
  }
}

Status ShardedIngest::Tick() {
  WriterMutexLock epoch_lock(epoch_mu_);
  current_age_++;
  if (config_.max_epoch_age == 0 || current_age_ < config_.max_epoch_age) {
    return Status::Ok();
  }
  size_t total = current_total_.load();
  if (total == 0 || total < config_.min_epoch_reports) {
    return Status::Ok();  // anonymity floor: an old-but-thin batch keeps waiting
  }
  // A failed seal (recorded by SealCurrentLocked) leaves the epoch open; the
  // error propagates so the frontend's Tick can report a wedged spool
  // instead of the failure silently vanishing.
  Status status = SealCurrentLocked();
  if (status.ok()) {
    MutexLock stats_lock(stats_mu_);
    stats_.age_cuts++;
  }
  return status;
}

Status ShardedIngest::CutEpoch(bool seal_if_empty) {
  WriterMutexLock epoch_lock(epoch_mu_);
  if (current_total_.load() == 0 && !seal_if_empty) {
    return Status::Ok();  // nothing to seal
  }
  return SealCurrentLocked();
}

Status ShardedIngest::SealCurrentLocked() {
  // The seal's group-commit flush can fail and roll buffered reports back
  // (which lowers current_total_), so the count is read only once the seal
  // succeeded.  A failed seal leaves the epoch fully intact, so a retry
  // seals the same accounting.
  Status status = wal_->SealEpoch(current_epoch_.load());
  {
    MutexLock stats_lock(stats_mu_);
    if (!status.ok()) {
      // Account the failure before propagating it: every failed seal is
      // visible in stats even if the caller drops the Status.
      stats_.seal_failures++;
      stats_.last_seal_error = status.error().message;
      return status;
    }
    // Commit: the epoch is durably sealed and queued in the WAL (epoch_mu_
    // is held exclusively, so no Accept slips in).
    stats_.accepted += current_total_.load();
    stats_.epochs_sealed++;
  }
  current_epoch_.fetch_add(1);
  current_total_.store(0);
  current_age_ = 0;
  if (seal_listener_) {
    // Under epoch_mu_ by construction (we are *Locked); the listener is
    // contractually lock-light (it nudges the drain scheduler's condition
    // variable), and nothing on the drain path re-enters the epoch lock
    // while holding the scheduler's.
    seal_listener_();
  }
  return Status::Ok();
}

void ShardedIngest::SetSealListener(std::function<void()> listener) {
  WriterMutexLock epoch_lock(epoch_mu_);
  seal_listener_ = std::move(listener);
}

void ShardedIngest::RestoreFromRecovery(const IngestWal::Recovery& recovery) {
  WriterMutexLock epoch_lock(epoch_mu_);
  current_epoch_.store(recovery.epochs.empty() ? 0 : recovery.epochs.rbegin()->first + 1);
  current_total_.store(0);
  current_age_ = 0;
  bool any_sealed = false;
  for (const auto& [epoch, recovered] : recovery.epochs) {
    if (!recovered.sealed) {
      // New reports land here, never in an older epoch whose seal marker
      // already exists.
      current_epoch_.store(epoch);
      current_total_.store(recovered.reports);
    }
    any_sealed = any_sealed || recovered.sealed;
  }
  if (any_sealed && seal_listener_) {
    seal_listener_();  // recovered epochs should drain without a poll too
  }
}

IngestStats ShardedIngest::stats() const {
  MutexLock lock(stats_mu_);
  IngestStats out = stats_;
  out.accepted += current_total_.load();
  return out;
}

}  // namespace prochlo
