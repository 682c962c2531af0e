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

ShardedIngest::ShardedIngest(IngestConfig config) : config_(config) {
  if (config_.num_shards == 0) {
    config_.num_shards = 1;
  }
  shards_.reserve(config_.num_shards);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

Status ShardedIngest::Accept(Bytes sealed_report) {
  size_t shard_index = ShardOfReport(sealed_report, config_.num_shards);
  return AcceptToShard(shard_index, std::move(sealed_report));
}

Status ShardedIngest::AcceptToShard(size_t shard_index, Bytes sealed_report) {
  return AcceptToShard(shard_index, std::move(sealed_report), ReportContext{}, nullptr);
}

Status ShardedIngest::AcceptToShard(size_t shard_index, Bytes sealed_report,
                                    ReportContext ctx,
                                    std::function<void(const Status&)>* done) {
  if (shard_index >= config_.num_shards) {
    return Error{"ingest: shard index out of range"};
  }
  bool size_trigger = false;
  {
    ReaderMutexLock epoch_lock(epoch_mu_);
    Shard& shard = *shards_[shard_index];
    MutexLock shard_lock(shard.mu);
    if (wal_ != nullptr) {
      // Unified durability: the report AND its ack commit become one WAL
      // record, so there is no window where one is durable without the
      // other.  The WAL consumes *done on success (it fires after the next
      // group commit); a failed append leaves it with the caller.
      Result<uint64_t> lsn = wal_->AppendReport(
          shard_index, current_epoch_.load(), sealed_report, ctx.session_id,
          ctx.seq, done);
      if (!lsn.ok()) {
        return lsn.error();  // not buffered: the client may retry
      }
    } else {
      shard.reports.push_back(std::move(sealed_report));
    }
    shard.count++;
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
        MutexLock sealed_lock(sealed_mu_);  // stats_ is guarded by sealed_mu_
        stats_.size_cuts++;
      }
      // A failed seal is NOT this report's failure: the report was already
      // buffered into the WAL (or stored in memory) above, so propagating the
      // error would tell the client "not ingested" and a retry would inject
      // a duplicate.  The epoch stays open with the failure recorded in
      // seal_failures/last_seal_error; the next Accept over the size
      // trigger, Tick(), or CutEpoch() retries the seal.
    }
  }
  return Status::Ok();
}

void ShardedIngest::RollbackAccepted(size_t shard_index, uint64_t epoch) {
  (void)epoch;  // WAL records always belong to the still-current epoch; see wal.h
  if (shard_index >= config_.num_shards) {
    return;
  }
  // No epoch lock here on purpose: a seal-time checkpoint holds epoch_mu_
  // exclusively while its flush (and thus this rollback) runs.  Shard counts
  // have their own mutex, and the epoch cannot advance mid-rollback because
  // advancing requires the same exclusive epoch_mu_ the checkpoint holds.
  Shard& shard = *shards_[shard_index];
  {
    MutexLock shard_lock(shard.mu);
    if (shard.count > 0) {
      shard.count--;
    }
  }
  size_t total = current_total_.load();
  while (total > 0 &&
         !current_total_.compare_exchange_weak(total, total - 1)) {
  }
}

void ShardedIngest::SetWal(IngestWal* wal) {
  WriterMutexLock epoch_lock(epoch_mu_);
  wal_ = wal;
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
    MutexLock sealed_lock(sealed_mu_);  // stats_ is guarded by sealed_mu_
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
  uint64_t epoch = current_epoch_.load();
  if (wal_ != nullptr) {
    // Seal BEFORE snapshotting the shard counts: the seal's group-commit
    // flush can fail and roll buffered reports back (which decrements the
    // counts).  A failed seal leaves the epoch fully intact, so a retry
    // seals the same accounting.
    Status status = wal_->SealEpoch(epoch);
    if (!status.ok()) {
      // Account the failure before propagating it: every failed seal is
      // visible in stats even if the caller drops the Status.
      MutexLock sealed_lock(sealed_mu_);
      stats_.seal_failures++;
      stats_.last_seal_error = status.error().message;
      return status;
    }
  }
  // Commit: the epoch is durably sealed (or in-memory); take and reset the
  // shards (epoch_mu_ is held exclusively, so no Accept slips in).
  EpochBatch batch;
  batch.epoch = epoch;
  batch.total = current_total_.load();
  batch.shard_counts.resize(config_.num_shards);
  if (wal_ == nullptr) {
    batch.shard_reports.resize(config_.num_shards);
  }
  for (size_t s = 0; s < config_.num_shards; ++s) {
    Shard& shard = *shards_[s];
    MutexLock shard_lock(shard.mu);
    batch.shard_counts[s] = shard.count;
    shard.count = 0;
    if (wal_ == nullptr) {
      batch.shard_reports[s] = std::move(shard.reports);
      shard.reports.clear();
    }
  }
  {
    MutexLock sealed_lock(sealed_mu_);
    stats_.accepted += batch.total;
    stats_.epochs_sealed++;
    sealed_.push_back(std::move(batch));
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

std::optional<EpochBatch> ShardedIngest::PopSealedEpoch() {
  MutexLock lock(sealed_mu_);
  if (sealed_.empty()) {
    return std::nullopt;
  }
  EpochBatch batch = std::move(sealed_.front());
  sealed_.pop_front();
  return batch;
}

void ShardedIngest::RequeueSealedEpoch(EpochBatch batch) {
  MutexLock lock(sealed_mu_);
  sealed_.push_front(std::move(batch));
}

void ShardedIngest::RestoreFromRecovery(const IngestWal::Recovery& recovery) {
  WriterMutexLock epoch_lock(epoch_mu_);
  uint64_t next_epoch = 0;
  bool resumed = false;
  for (const auto& [epoch, recovered] : recovery.epochs) {
    next_epoch = std::max(next_epoch, epoch + 1);
    size_t total = 0;
    std::vector<size_t> counts(config_.num_shards, 0);
    for (size_t s = 0; s < recovered.shard_counts.size(); ++s) {
      total += recovered.shard_counts[s];
      if (s < counts.size()) {
        counts[s] = recovered.shard_counts[s];
      }
    }
    if (!recovered.sealed) {
      // New reports land here, never in an older epoch whose seal marker
      // already exists.
      for (size_t s = 0; s < config_.num_shards; ++s) {
        MutexLock shard_lock(shards_[s]->mu);
        shards_[s]->count = counts[s];
      }
      current_epoch_.store(epoch);
      current_total_.store(total);
      current_age_ = 0;
      resumed = true;
      continue;
    }
    MutexLock sealed_lock(sealed_mu_);
    stats_.accepted += total;
    stats_.epochs_sealed++;
    sealed_.push_back(EpochBatch{epoch, total, std::move(counts), {}});
  }
  if (!resumed) {
    current_epoch_.store(next_epoch);
    current_total_.store(0);
    current_age_ = 0;
  }
  bool recovered_sealed = false;
  {
    MutexLock sealed_lock(sealed_mu_);
    recovered_sealed = !sealed_.empty();
  }
  if (recovered_sealed && seal_listener_) {
    seal_listener_();  // recovered epochs should drain without a poll too
  }
}

IngestStats ShardedIngest::stats() const {
  MutexLock lock(sealed_mu_);
  IngestStats out = stats_;
  out.accepted += current_total_.load();
  return out;
}

}  // namespace prochlo
