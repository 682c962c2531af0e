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

}  // namespace

ShufflerFrontend::ShufflerFrontend(FrontendConfig config)
    : config_(std::move(config)),
      pipeline_(config_.pipeline),
      mem_fs_(config_.fs == nullptr && config_.spool_dir.empty() ? std::make_unique<MemFs>()
                                                                 : nullptr),
      wal_(std::make_unique<IngestWal>(
          IngestWalConfig{config_.spool_dir, config_.fsync_spool,
                          config_.wal_checkpoint_threshold_bytes,
                          mem_fs_ != nullptr ? mem_fs_.get() : config_.fs})),
      ingest_(std::make_unique<ShardedIngest>(config_.ingest, wal_.get())) {}

Status ShufflerFrontend::Start() {
  if (started_) {
    return Status::Ok();
  }
  // WAL recovery: every epoch's report counts, and the session image —
  // wal.ckpt's snapshot with the session ops past it folded in.
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
    stats_.recovered_reports += recovered.reports;
  }
  ingest_->RestoreFromRecovery(recovery.value());
  wal_->set_rollback_callback([this](uint64_t dropped) {
    ingest_->RollbackAccepted(dropped);
    stats_.reports_accepted -= dropped;
  });
  started_ = true;
  return Status::Ok();
}

Status ShufflerFrontend::BindAckRegistry(AckRegistry* registry) {
  if (!started_) {
    return Error{"frontend: Start() must succeed before BindAckRegistry"};
  }
  registry->set_max_sessions(config_.max_sessions);
  // Restore, then route commits, evictions and goodbyes through the WAL,
  // whose checkpoints fold them into the wal.ckpt snapshot.
  registry->RestoreFromRecovery(wal_->sessions());
  registry->AttachWal(wal_.get());
  return Status::Ok();
}

Status ShufflerFrontend::AcceptRoutedReportAsync(
    size_t shard_index, Bytes sealed_report, ReportContext ctx,
    std::function<void(const Status&)> done) {
  Status status = shard_index < num_shards()
                      ? ingest_->Accept(sealed_report, ctx, &done)
                      : Status(Error{"ingest: shard index out of range"});
  if (status.ok()) {
    stats_.reports_accepted++;
  }
  if (done) {
    // Not consumed by the WAL (the append itself failed): `status` is the
    // verdict.
    done(status);
  }
  return status;
}

Status ShufflerFrontend::BarrierIngest() { return wal_->Sync(); }

Status ShufflerFrontend::Tick() {
  Status status = ingest_->Tick();
  // Backlog-threshold checkpoint rides the scheduling cadence, so a busy
  // epoch cannot grow the replay suffix without bound between seals.
  Status checkpointed = wal_->MaybeCheckpoint();
  if (status.ok() && !checkpointed.ok()) {
    status = checkpointed;
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
  std::optional<uint64_t> epoch = wal_->NextSealedEpoch();
  if (!epoch.has_value()) {
    return std::nullopt;
  }
  // Stream straight off the epoch's WAL generations.
  std::unique_ptr<RecordStream> stream = wal_->OpenEpochStream(*epoch);
  DrainedEpoch drained;
  drained.opened.epoch = *epoch;
  drained.opened.reports = stream->size();

  auto t0 = std::chrono::steady_clock::now();
  Result<EpochPartial> opened = pipeline_.RunReportsPartial(*stream);
  const double open_seconds = SecondsSince(t0);
  drained.status = opened.ok() ? Status::Ok() : Status(opened.error());
  if (drained.status.ok() && merge) {
    std::vector<EpochPartial> partials;
    partials.push_back(std::move(opened).value());
    auto merged = pipeline_.MergeEpoch(*epoch, partials);
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
  // A failure changes nothing: the epoch stays the WAL's next sealed one,
  // its generations untouched, until a drain succeeds and removes it.
  return drained;
}

void ShufflerFrontend::FinishDrainedEpoch(uint64_t epoch) {
  // Transient unlink failures (a scanner pinning the directory, EMFILE
  // pressure) usually clear quickly, and a leaked epoch lingers on disk —
  // worth a couple of bounded retries before conceding.  The WAL keeps what
  // it failed to remove tracked, so each retry resumes there.
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
  stats_.epochs_drained++;
}

}  // namespace prochlo
