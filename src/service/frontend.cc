#include "src/service/frontend.h"

#include <chrono>
#include <thread>

#include "src/service/connection.h"

namespace prochlo {

namespace {

// Post-drain RemoveEpoch attempts in total, and the pause between them.
// Transient failures (e.g. a scanner holding the directory) usually clear
// within one retry.
constexpr uint32_t kRemoveRetryAttempts = 3;
constexpr std::chrono::milliseconds kRemoveRetryDelay{2};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// RecordStream over an in-memory EpochBatch's per-shard reports, shard order
// then arrival order — the same order the spooled path streams.  It borrows
// the batch and yields copies, so a failed drain leaves the batch intact for
// requeueing: the batch is the only copy of the epoch's reports in
// in-memory mode, and consuming it before the drain succeeds is exactly the
// data-loss bug this stream exists to prevent.
class EpochBatchRecordStream : public RecordStream {
 public:
  explicit EpochBatchRecordStream(const EpochBatch& batch) : batch_(&batch) {
    total_ = 0;
    for (const auto& shard : batch_->shard_reports) {
      total_ += shard.size();
    }
  }

  size_t size() const override { return total_; }

  std::optional<Bytes> Next() override {
    while (shard_ < batch_->shard_reports.size()) {
      const auto& reports = batch_->shard_reports[shard_];
      if (index_ < reports.size()) {
        return reports[index_++];
      }
      shard_++;
      index_ = 0;
    }
    return std::nullopt;
  }

  void Reset() override {
    shard_ = 0;
    index_ = 0;
  }

 private:
  const EpochBatch* batch_;
  size_t total_ = 0;
  size_t shard_ = 0;
  size_t index_ = 0;
};

}  // namespace

ShufflerFrontend::ShufflerFrontend(FrontendConfig config)
    : config_(std::move(config)),
      pipeline_(config_.pipeline),
      ingest_(std::make_unique<ShardedIngest>(config_.ingest)) {}

Status ShufflerFrontend::Start() {
  if (started_) {
    return Status::Ok();
  }
  if (!config_.spool_dir.empty()) {
    // WAL recovery: every epoch's report counts, and the session image —
    // wal.ckpt's snapshot with the session ops past it folded in.
    IngestWalConfig wal_config;
    wal_config.dir = config_.spool_dir;
    wal_config.fsync = config_.fsync_spool;
    wal_config.checkpoint_threshold_bytes = config_.wal_checkpoint_threshold_bytes;
    wal_config.fs = config_.fs;
    wal_ = std::make_unique<IngestWal>(wal_config);
    auto recovery = wal_->Recover();
    if (!recovery.ok()) {
      return recovery.error();
    }
    stats_.recovered_wal_reports += recovery.value().replayed_reports;
    stats_.recovered_wal_session_ops += recovery.value().replayed_session_ops;
    stats_.recovered_truncated_bytes += recovery.value().truncated_bytes;
    stats_.recovered_removals += recovery.value().finished_removals;
    stats_.recovered_sessions += recovery.value().sessions.live.size();
    for (const auto& [epoch, recovered] : recovery.value().epochs) {
      for (uint64_t count : recovered.shard_counts) {
        stats_.recovered_reports += count;
      }
    }
    ingest_->RestoreFromRecovery(recovery.value());
    wal_->set_rollback_callback([this](size_t shard, uint64_t epoch) {
      ingest_->RollbackAccepted(shard, epoch);
      stats_.reports_accepted--;
    });
    ingest_->SetWal(wal_.get());
  }
  started_ = true;
  return Status::Ok();
}

Status ShufflerFrontend::BindAckRegistry(AckRegistry* registry) {
  if (!started_) {
    return Error{"frontend: Start() must succeed before BindAckRegistry"};
  }
  registry->set_max_sessions(config_.max_sessions);
  if (wal_ != nullptr) {
    // Restore, then route commits, evictions and goodbyes through the WAL,
    // whose checkpoints fold them into the wal.ckpt snapshot.
    registry->RestoreFromRecovery(wal_->sessions());
    registry->AttachWal(wal_.get());
  }
  return Status::Ok();
}

Status ShufflerFrontend::AcceptFrameStream(ByteSpan stream) {
  FrameReader reader(stream);
  Status status = Status::Ok();
  while (auto payload = reader.Next()) {
    status = AcceptReport(std::move(*payload));
    if (!status.ok()) {
      break;  // fold the reader's stats in before surfacing the error
    }
  }
  // Folded on every path: an early AcceptReport failure must not drop the
  // frames/bytes the reader has already accounted, or the stats-balance
  // invariant ("every input byte is a good frame, a corrupt frame, or
  // skipped garbage") breaks exactly when operators need it most.
  stats_.frames_ok += reader.stats().frames_ok;
  stats_.frames_corrupt += reader.stats().frames_corrupt;
  stats_.bytes_skipped += reader.stats().bytes_skipped;
  return status;
}

Status ShufflerFrontend::AcceptReport(Bytes sealed_report) {
  Status status = ingest_->Accept(std::move(sealed_report));
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  return status;
}

Status ShufflerFrontend::AcceptRoutedReport(size_t shard_index, Bytes sealed_report) {
  Status status = ingest_->AcceptToShard(shard_index, std::move(sealed_report));
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  return status;
}

Status ShufflerFrontend::AcceptRoutedReportAsync(
    size_t shard_index, Bytes sealed_report, ReportContext ctx,
    std::function<void(const Status&)> done) {
  Status status =
      ingest_->AcceptToShard(shard_index, std::move(sealed_report), ctx, &done);
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  if (done) {
    // Not consumed by a WAL (in-memory mode, or the append itself failed):
    // the accept was synchronous and `status` is the durability verdict.
    done(status);
  }
  return status;
}

Status ShufflerFrontend::BarrierIngest() {
  return wal_ != nullptr ? wal_->Sync() : Status::Ok();
}

Status ShufflerFrontend::Tick() {
  Status status = ingest_->Tick();
  if (wal_ != nullptr) {
    // Backlog-threshold checkpoint rides the scheduling cadence, so a busy
    // epoch cannot grow the replay suffix without bound between seals.
    Status checkpointed = wal_->MaybeCheckpoint();
    if (status.ok() && !checkpointed.ok()) {
      status = checkpointed;
    }
  }
  return status;
}

Status ShufflerFrontend::CutEpoch(bool seal_if_empty) {
  return ingest_->CutEpoch(seal_if_empty);
}

DrainReport ShufflerFrontend::DrainSealedEpochs() {
  DrainReport report;
  while (auto drained = DrainNextEpoch(/*merge=*/true)) {
    const uint64_t epoch = drained->opened.epoch;
    if (!drained->status.ok()) {
      // The epochs already drained this call ride along in the report
      // rather than being discarded with the error.
      report.failure = DrainError{epoch, drained->status.error()};
      break;
    }
    FinishDrainedEpoch(epoch);
    report.results.push_back(
        EpochResult{epoch, drained->opened.reports, std::move(drained->merged)});
  }
  return report;
}

Result<std::optional<EpochPartialResult>> ShufflerFrontend::DrainNextEpochPartial() {
  auto drained = DrainNextEpoch(/*merge=*/false);
  if (!drained.has_value()) {
    return std::optional<EpochPartialResult>(std::nullopt);
  }
  if (!drained->status.ok()) {
    return drained->status.error();
  }
  // An empty alignment epoch still leaves a marker to remove.
  FinishDrainedEpoch(drained->opened.epoch);
  return std::optional<EpochPartialResult>(std::move(drained->opened));
}

std::optional<ShufflerFrontend::DrainedEpoch> ShufflerFrontend::DrainNextEpoch(bool merge) {
  std::optional<EpochBatch> batch = ingest_->PopSealedEpoch();
  if (!batch.has_value()) {
    return std::nullopt;
  }
  DrainedEpoch drained;
  drained.opened.epoch = batch->epoch;
  drained.opened.reports = batch->total;

  auto t0 = std::chrono::steady_clock::now();
  Result<EpochPartial> opened = Error{"epoch not drained"};
  if (wal_ != nullptr) {
    // Stream straight off the epoch's WAL generations.
    auto stream = wal_->OpenEpochStream(batch->epoch);
    opened = pipeline_.RunReportsPartial(*stream);
  } else {
    // Borrow the batch — never consume it before the drain succeeds: the
    // batch is the only copy of an in-memory epoch, and a requeue after
    // moving the reports out would retry an empty shell.
    EpochBatchRecordStream stream(*batch);
    opened = pipeline_.RunReportsPartial(stream);
  }
  const double open_seconds = SecondsSince(t0);
  drained.status = opened.ok() ? InjectedDrainFailure(batch->epoch) : Status(opened.error());
  if (drained.status.ok() && merge) {
    std::vector<EpochPartial> partials;
    partials.push_back(std::move(opened).value());
    auto merged = pipeline_.MergeEpoch(batch->epoch, partials);
    if (merged.ok()) {
      drained.merged = std::move(merged).value();
      // The first stage's wall-clock time spans the outer open as well.
      drained.merged.encode_shuffle1_seconds += open_seconds;
    } else {
      drained.status = merged.error();
    }
  } else if (drained.status.ok()) {
    drained.opened.partial = std::move(opened).value();
  }
  if (!drained.status.ok()) {
    // Put the intact batch back at the head of the queue, so a later drain
    // retries it; its generations also stay on disk untouched.
    ingest_->RequeueSealedEpoch(std::move(*batch));
  }
  return drained;
}

Status ShufflerFrontend::InjectedDrainFailure(uint64_t epoch) {
  if (!config_.inject_drain_failure.has_value() ||
      config_.inject_drain_failure->epoch != epoch ||
      injected_drain_failures_ >= config_.inject_drain_failure->times) {
    return Status::Ok();
  }
  injected_drain_failures_++;
  return Error{"injected drain failure (epoch " + std::to_string(epoch) + ")"};
}

void ShufflerFrontend::FinishDrainedEpoch(uint64_t epoch) {
  if (wal_ != nullptr) {
    // Transient unlink failures (a scanner pinning the directory, EMFILE
    // pressure) usually clear quickly, and a leaked epoch lingers on disk —
    // worth a couple of bounded retries before conceding.  The WAL keeps
    // what it failed to remove tracked, so each retry resumes there.
    Status removed = wal_->RemoveEpoch(epoch);
    for (uint32_t attempt = 1; !removed.ok() && attempt < kRemoveRetryAttempts; ++attempt) {
      stats_.remove_retries++;
      std::this_thread::sleep_for(kRemoveRetryDelay);
      removed = wal_->RemoveEpoch(epoch);
    }
    if (!removed.ok()) {
      // The epoch's reports are safe (already drained into a result); what
      // leaked is disk space — and, if not one generation went, a restart
      // that drains the epoch again.  Count it so operators see the leak.
      stats_.remove_failures++;
    }
  }
  stats_.epochs_drained++;
}

}  // namespace prochlo
