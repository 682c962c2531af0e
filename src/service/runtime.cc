#include "src/service/runtime.h"

#include "src/service/ingest.h"

namespace prochlo {

// ------------------------------------------------------------ IngestWorkerPool

IngestWorkerPool::IngestWorkerPool(ShufflerFrontend* frontend, WorkerPoolConfig config)
    : frontend_(frontend), config_(config) {
  num_shards_ = frontend_->num_shards() == 0 ? 1 : frontend_->num_shards();
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 2;
  }
}

IngestWorkerPool::~IngestWorkerPool() { Stop(); }

void IngestWorkerPool::Start() {
  if (running_.load() || stopping_.load()) {
    return;  // one-shot: a stopped pool does not restart
  }
  if (config_.workers == 0) {
    running_.store(true);
    return;
  }
  workers_.reserve(config_.workers);
  for (size_t w = 0; w < config_.workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(config_.ring_capacity));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, &worker] { WorkerLoop(*worker); });
  }
  running_.store(true);
}

void IngestWorkerPool::Stop() {
  if (!running_.load()) {
    return;
  }
  stopping_.store(true);
  for (auto& worker : workers_) {
    {
      // Under the lock so a worker between its flag and its wait cannot
      // miss the stop notification entirely (the bounded wait would still
      // recover, but shutdown should not lean on the fallback).
      MutexLock lock(worker->wake_mu);
      worker->wake_cv.NotifyAll();
    }
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  // Close the EnqueueAsync/Stop race: an EnqueueAsync increments pending
  // (seq_cst) BEFORE it checks stopping_, so any producer that saw
  // stopping_ == false — and might therefore still publish into a dead
  // ring — is visible here as pending != 0.  Drain until every such
  // in-flight EnqueueAsync has either published its item (we ingest it) or
  // bailed (it decrements pending): a report handed to the runtime is never
  // dropped by shutdown, and pending reaches 0 so Flush cannot hang.
  for (auto& worker : workers_) {
    Worker* straggler_worker = worker.get();
    while (worker->pending.load() != 0) {
      if (auto item = worker->ring.TryPop()) {
        Completion done = std::move(item->done);
        (void)frontend_->AcceptRoutedReportAsync(  // verdict arrives via the completion
            item->shard, std::move(item->report), item->ctx,
            [this, straggler_worker, done = std::move(done)](const Status& status) {
              RecordAccept(status);
              if (done) {
                done(status);
              }
              straggler_worker->pending.fetch_sub(1, std::memory_order_release);
            });
        // One barrier per straggler is fine: this path only runs for the
        // handful of items that raced Stop, and each completion (with its
        // pending decrement) must fire before the loop re-reads pending.
        (void)frontend_->BarrierIngest();  // per-record outcome already delivered
      } else {
        std::this_thread::yield();  // a producer is mid-push; its item is coming
      }
    }
  }
  // workers_ is deliberately NOT cleared: a concurrent EnqueueAsync may still
  // hold a pointer into it.  The Worker objects (joined threads, empty
  // rings) live until the pool is destroyed.
  running_.store(false);
}

void IngestWorkerPool::EnqueueAsync(Bytes sealed_report, ReportContext ctx, Completion done) {
  size_t shard = ShardedIngest::ShardOfReport(sealed_report, num_shards_);
  if (workers_.empty()) {
    if (stopping_.load()) {
      if (done) {
        done(Error{"ingest pool: stopping; report not enqueued"});
      }
      return;
    }
    // Synchronous mode: ingest on the caller thread (workers == 0, or the
    // pool was never started).  The accept only buffers into the WAL and
    // the completion fires inside the barrier below — strictly before the
    // barrier returns (IngestWal's ordering contract), so the stack
    // captures cannot dangle; a failed append fires it inline.  Another
    // caller's group-commit leader may fire it while this thread checks
    // `resolved`, hence the atomic: seeing true means `final` is complete.
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    Status final = Status::Ok();
    std::atomic<bool> resolved{false};
    (void)frontend_->AcceptRoutedReportAsync(  // verdict arrives via the lambda
        shard, std::move(sealed_report), ctx, [&final, &resolved](const Status& status) {
          final = status;
          resolved.store(true);
        });
    if (!resolved.load()) {
      Status barrier = frontend_->BarrierIngest();
      if (!resolved.load()) {
        // The completion contract guarantees this cannot happen; fail loud
        // rather than reporting an unresolved report as ingested.
        final = barrier.ok() ? Status(Error{"ingest pool: completion lost"}) : barrier;
      }
    }
    RecordAccept(final);
    if (done) {
      done(final);
    }
    return;
  }
  Worker& worker = *workers_[shard % workers_.size()];
  Item item{shard, std::move(sealed_report), ctx, std::move(done)};
  // pending is incremented before the stopping_ check and before the push
  // (both seq_cst): a concurrent Flush never observes the ring drained
  // while this item is in flight, and a concurrent Stop that this thread
  // does not see (stopping_ reads false below) is guaranteed to see
  // pending != 0 and wait for the push in its straggler drain.
  worker.pending.fetch_add(1);
  if (stopping_.load()) {
    worker.pending.fetch_sub(1, std::memory_order_release);
    if (item.done) {
      item.done(Error{"ingest pool: stopping; report not enqueued"});
    }
    return;
  }
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  bool waited = false;
  while (!worker.ring.TryPush(std::move(item))) {
    if (stopping_.load()) {
      // Already counted in enqueued_, so the books must show the outcome:
      // this report was handed to the runtime but will not be ingested.
      worker.pending.fetch_sub(1, std::memory_order_release);
      Status status = Error{"ingest pool: stopping; report not enqueued"};
      RecordAccept(status);
      if (item.done) {
        item.done(status);
      }
      return;
    }
    if (!waited) {
      waited = true;
      ring_full_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::yield();
  }
  worker.WakeIfAsleep();
}

void IngestWorkerPool::RecordAccept(const Status& status) {
  if (status.ok()) {
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  accept_failures_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(stats_mu_);
  last_accept_error_ = status.error().message;
}

Status IngestWorkerPool::Flush() {
  for (auto& worker : workers_) {
    worker->WakeIfAsleep();
    // The acquire pairs with the worker's release decrement: once pending
    // reads 0, every Accept this worker performed happens-before our return.
    while (worker->pending.load(std::memory_order_acquire) != 0) {
      if (stopping_.load() && !running_.load()) {
        return Error{"ingest pool: stopped with items in flight"};
      }
      std::this_thread::yield();
    }
  }
  return Status::Ok();
}

WorkerPoolStats IngestWorkerPool::stats() const {
  WorkerPoolStats out;
  out.enqueued = enqueued_.load(std::memory_order_relaxed);
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  out.ring_full_waits = ring_full_waits_.load(std::memory_order_relaxed);
  MutexLock lock(stats_mu_);
  out.last_accept_error = last_accept_error_;
  return out;
}

void IngestWorkerPool::WorkerLoop(Worker& worker) {
  // Reports accepted into the WAL since the last barrier.  Bounded so a
  // firehose producer cannot defer completions (and their acks) without
  // limit; one group-commit fsync covers the whole run.
  size_t buffered = 0;
  constexpr size_t kMaxRun = 64;
  auto barrier = [&] {
    if (buffered == 0) {
      return;
    }
    // Per-record outcomes were already delivered through each completion
    // (Ok after the fsync, the flush error on rollback); the barrier's own
    // status would only duplicate them.
    (void)frontend_->BarrierIngest();
    buffered = 0;
  };
  auto process = [&](Item&& item) {
    Completion done = std::move(item.done);
    // The ack path: this fires on whichever thread leads the covering group
    // commit, strictly after the fsync — the only point where "acked ==
    // report-safe" holds — or inline on this worker thread when the append
    // itself failed.  Either way the item is released only after the
    // accept's effects are complete, so a Flush observing pending == 0
    // observes the ingestion (and the fired acks) too.
    (void)frontend_->AcceptRoutedReportAsync(  // verdict arrives via the completion
        item.shard, std::move(item.report), item.ctx,
        [this, &worker, done = std::move(done)](const Status& status) {
          RecordAccept(status);
          if (done) {
            done(status);
          }
          worker.pending.fetch_sub(1, std::memory_order_release);
        });
    buffered++;
  };
  for (;;) {
    if (auto item = worker.ring.TryPop()) {
      process(std::move(*item));
      if (buffered >= kMaxRun) {
        barrier();
      }
      continue;
    }
    // Ring drained: commit the run before idling so no ack waits on the
    // next arrival.
    barrier();
    if (stopping_.load() && worker.pending.load(std::memory_order_acquire) == 0) {
      return;
    }
    // Idle: raise the asleep flag, then re-check the ring — an item pushed
    // between the miss above and the flag would otherwise sleep unwoken.
    // The bounded wait is only a fallback for the narrow flag/publish races
    // (a missed notify costs one timeout, never a stall); the normal wake
    // is the producer's WakeIfAsleep.
    MutexLock lock(worker.wake_mu);
    worker.asleep.store(true);
    if (auto item = worker.ring.TryPop()) {
      worker.asleep.store(false);
      lock.Unlock();
      process(std::move(*item));
      continue;
    }
    if (!stopping_.load()) {
      worker.wake_cv.WaitFor(worker.wake_mu, std::chrono::milliseconds(10));
    }
    worker.asleep.store(false);
  }
}

// --------------------------------------------------------------- DrainScheduler

DrainScheduler::DrainScheduler(ShufflerFrontend* frontend, DrainSchedulerConfig config)
    : frontend_(frontend), config_(config) {}

DrainScheduler::~DrainScheduler() { Stop(); }

void DrainScheduler::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  stop_ = false;
  // Seal events drive the drain: the ingest tier fires this from
  // SealCurrentLocked, so a freshly sealed epoch starts draining without
  // waiting out the fallback poll.
  frontend_->SetSealListener([this] { RequestDrain(); });
  thread_ = std::thread([this] { DrainLoop(); });
}

void DrainScheduler::Stop() {
  if (!started_) {
    return;
  }
  // Unregister first: SetSealListener synchronizes on the epoch lock, so
  // once it returns no seal can be mid-call into this object.
  frontend_->SetSealListener(nullptr);
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  if (thread_.joinable()) {
    thread_.join();
  }
  started_ = false;
  // One final pass so epochs sealed just before Stop are not stranded.
  DrainOnce();
}

void DrainScheduler::RequestDrain() {
  {
    MutexLock lock(mu_);
    drain_requested_ = true;
  }
  wake_cv_.NotifyOne();
}

std::vector<EpochResult> DrainScheduler::TakeResults() {
  MutexLock lock(mu_);
  std::vector<EpochResult> out = std::move(results_);
  results_.clear();
  return out;
}

bool DrainScheduler::WaitForDrainedEpochs(size_t n, std::chrono::milliseconds timeout) {
  MutexLock lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (drained_total_ < n) {
    if (!drained_cv_.WaitUntil(mu_, deadline)) {
      break;  // timed out; report whether the target was reached anyway
    }
  }
  return drained_total_ >= n;
}

DrainSchedulerStats DrainScheduler::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void DrainScheduler::DrainLoop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      auto deadline = std::chrono::steady_clock::now() + config_.poll_interval;
      while (!stop_ && !drain_requested_) {
        if (!wake_cv_.WaitUntil(mu_, deadline)) {
          break;  // fallback poll: run a pass even without a nudge
        }
      }
      drain_requested_ = false;
      if (stop_) {
        return;  // Stop() performs the final pass after the join
      }
    }
    DrainOnce();
  }
}

void DrainScheduler::DrainOnce() {
  // DrainSealedEpochs runs outside mu_: it is the expensive part and must
  // not block TakeResults/WaitForDrainedEpochs.
  DrainReport report = frontend_->DrainSealedEpochs();
  MutexLock lock(mu_);
  stats_.drain_calls++;
  stats_.epochs_drained += report.results.size();
  drained_total_ += report.results.size();
  for (auto& result : report.results) {
    results_.push_back(std::move(result));
  }
  if (!report.ok()) {
    // The failed epoch stays queued intact; the next poll retries it.
    stats_.drain_failures++;
    stats_.last_drain_error = report.failure->error.message;
  }
  drained_cv_.NotifyAll();
}

}  // namespace prochlo
