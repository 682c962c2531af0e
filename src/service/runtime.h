// The concurrent accept/drain runtime around ShufflerFrontend: the piece
// that turns the single-process ingestion tier into a standing service shape
// (ROADMAP: "per-shard worker threads draining Accept from lock-free rings
// ... multi-epoch drain overlap").
//
//   connection threads ──EnqueueAsync──► MpscRing per worker ──► worker
//                      (route by ciphertext hash;      └─ AcceptRoutedReportAsync
//                       no WAL I/O on the                 (WAL append; one
//                       connection thread)                 group commit per
//                                                          run)
//
//   drain thread  ──poll/nudge──► frontend.DrainSealedEpochs
//                       (drains sealed epoch e while the workers keep
//                        accumulating e+1 — the spool isolates them)
//
// Determinism: the runtime adds no randomness and the per-epoch pipeline RNG
// is derived from (seed, epoch), so for a fixed epoch membership the
// per-epoch histogram is bit-identical to the serial frontend at any worker
// count, ring size, and drain interleaving.  Epoch membership itself is
// fixed by cutting epochs at quiescent points (Flush() then CutEpoch/Tick);
// a size-cut racing concurrent producers seals *some* valid membership, and
// each epoch's result is still a pure function of the membership it got.
//
// Error contract: every EnqueueAsync completion fires exactly once with the
// report's final outcome.  A failure means that report was NOT ingested; it
// is counted in stats().accept_failures with last_accept_error kept.
// Flush() is the barrier that makes those outcomes visible: after it
// returns, every enqueued report is either ingested or counted as failed.
#ifndef PROCHLO_SRC_SERVICE_RUNTIME_H_
#define PROCHLO_SRC_SERVICE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/service/frontend.h"
#include "src/util/mpsc_ring.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct WorkerPoolConfig {
  // Worker threads; 0 = synchronous (EnqueueAsync ingests on the caller
  // thread).
  size_t workers = 0;
  // Per-worker bounded ring capacity (rounded up to a power of two).  A full
  // ring back-pressures EnqueueAsync (it spins/yields, counted in
  // stats().ring_full_waits) rather than dropping.
  size_t ring_capacity = 1024;
};

struct WorkerPoolStats {
  uint64_t enqueued = 0;  // reports handed to the runtime (counted at enqueue)
  uint64_t accepted = 0;  // reports ingested
  // Reports handed to the runtime but NOT ingested (ingest errors, or an
  // enqueue aborted by Stop).  Invariant once quiescent (after
  // Flush/Stop): enqueued == accepted + accept_failures.
  uint64_t accept_failures = 0;
  uint64_t ring_full_waits = 0;  // back-pressure episodes on EnqueueAsync
  std::string last_accept_error;
};

// Worker threads fed by bounded MPSC rings.  A report's shard is its routing
// key: shard s runs on worker s % workers, so reports spread across the
// workers by ciphertext hash.  Nothing downstream depends on which worker
// appended a report.
class IngestWorkerPool {
 public:
  IngestWorkerPool(ShufflerFrontend* frontend, WorkerPoolConfig config);
  ~IngestWorkerPool();

  IngestWorkerPool(const IngestWorkerPool&) = delete;
  IngestWorkerPool& operator=(const IngestWorkerPool&) = delete;

  void Start();
  // Joins the workers after they drain their rings, then ingests on the
  // caller thread any item an EnqueueAsync raced in after a worker exited —
  // a report handed to the runtime is never dropped by shutdown.
  // Idempotent; the pool is one-shot (a stopped pool does not restart).
  void Stop();

  // Invoked exactly once with the report's final ingest outcome — on the
  // thread that leads the covering group commit (async mode), on the caller
  // thread (synchronous mode), or with the abort error when the pool is
  // stopping.  The acknowledgment path hangs off this: a FrameConnection
  // ACKs a report from `done(Ok)`, so "acked" means "durably spooled",
  // never merely "handed to the runtime".
  using Completion = std::function<void(const Status&)>;
  // Thread-safe.  Routes the report by ciphertext hash and enqueues it on
  // its shard's worker ring; blocks (yielding) while the ring is full.
  // `ctx` carries the report's (session, seq) so the frontend fuses the ack
  // commit into the report's own durable record.  Workers batch a run of
  // ring items into the WAL and pay one group-commit fsync for the whole
  // run (BarrierIngest), after which every item's `done` has fired — N
  // concurrent reports, one fsync.  With workers == 0, ingests and commits
  // on the caller thread before returning.
  void EnqueueAsync(Bytes sealed_report, ReportContext ctx, Completion done);

  // Barrier: returns once every report enqueued so far has been ingested or
  // counted in accept_failures.  Does not block EnqueueAsync from other
  // threads; reports enqueued after Flush begins may or may not be covered.
  Status Flush();

  WorkerPoolStats stats() const;
  size_t workers() const { return workers_.size(); }

 private:
  struct Item {
    size_t shard = 0;
    Bytes report;
    ReportContext ctx;  // (session, seq) for the unified WAL record
    Completion done;    // may be null
  };

  struct Worker {
    explicit Worker(size_t ring_capacity) : ring(ring_capacity) {}
    MpscRing<Item> ring;
    std::thread thread;
    // Enqueued-but-not-yet-processed items.  Incremented seq_cst BEFORE the
    // producer's stopping_ check (so Stop's straggler drain is guaranteed
    // to see any producer that missed the stop flag), decremented with
    // release after processing (so a Flush() observing 0 also observes
    // every Accept's side effects).
    std::atomic<uint64_t> pending{0};
    // Sleep/wake handshake: the worker sets `asleep` before a bounded wait;
    // producers take wake_mu and notify only when the flag is up, so the
    // hot enqueue path never touches the mutex and an idle pool costs a
    // handful of fallback wakeups per second instead of a 200 µs spin.
    Mutex wake_mu;
    CondVar wake_cv;
    std::atomic<bool> asleep{false};

    void WakeIfAsleep() {
      if (asleep.load(std::memory_order_relaxed)) {
        MutexLock lock(wake_mu);
        wake_cv.NotifyOne();
      }
    }
  };

  void WorkerLoop(Worker& worker);
  void RecordAccept(const Status& status);

  ShufflerFrontend* frontend_;  // borrowed
  WorkerPoolConfig config_;
  size_t num_shards_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable Mutex stats_mu_;  // guards the non-atomic stats fields
  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> accept_failures_{0};
  std::atomic<uint64_t> ring_full_waits_{0};
  std::string last_accept_error_ GUARDED_BY(stats_mu_);
};

struct DrainSchedulerConfig {
  // Fallback poll cadence of the background drain thread.  The primary
  // wakeup is the seal event: Start() registers a listener the ingest tier
  // fires from SealCurrentLocked, so a sealed epoch begins draining
  // immediately — a busy box never spins on this interval and an idle box
  // adds no seal-to-drain latency.  The poll only bounds the retry latency
  // of a failed drain and guards against a lost nudge.  RequestDrain()
  // still nudges sooner.
  std::chrono::milliseconds poll_interval{250};
};

struct DrainSchedulerStats {
  uint64_t drain_calls = 0;
  uint64_t epochs_drained = 0;
  uint64_t drain_failures = 0;
  std::string last_drain_error;
};

// Background drain thread: overlaps draining sealed epoch e with the worker
// pool accumulating epoch e+1.  Owns all DrainSealedEpochs calls while
// running (the frontend allows one drainer at a time), and owns the
// frontend's seal listener between Start() and Stop().
class DrainScheduler {
 public:
  DrainScheduler(ShufflerFrontend* frontend, DrainSchedulerConfig config = {});
  ~DrainScheduler();

  DrainScheduler(const DrainScheduler&) = delete;
  DrainScheduler& operator=(const DrainScheduler&) = delete;

  void Start();
  // Unregisters the seal listener, performs one final drain pass, then
  // joins the thread.  Idempotent.
  void Stop();

  // Nudges the drain thread to run ahead of its poll cadence.
  void RequestDrain();

  // Results drained since the last TakeResults, in drain order.
  std::vector<EpochResult> TakeResults();
  // Blocks until `n` epochs have been drained in total (across TakeResults
  // calls) or `timeout` elapses; returns whether the target was reached.
  bool WaitForDrainedEpochs(size_t n, std::chrono::milliseconds timeout);

  DrainSchedulerStats stats() const;

 private:
  void DrainLoop();
  void DrainOnce();

  ShufflerFrontend* frontend_;  // borrowed
  DrainSchedulerConfig config_;
  // Start/Stop run on one owning thread by contract; the handle and flag
  // are never touched from the drain thread, so they need no lock.
  std::thread thread_;
  bool started_ = false;

  mutable Mutex mu_;
  CondVar wake_cv_;     // poll/nudge/stop
  CondVar drained_cv_;  // WaitForDrainedEpochs
  bool stop_ GUARDED_BY(mu_) = false;
  bool drain_requested_ GUARDED_BY(mu_) = false;
  std::vector<EpochResult> results_ GUARDED_BY(mu_);
  size_t drained_total_ GUARDED_BY(mu_) = 0;
  DrainSchedulerStats stats_ GUARDED_BY(mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_RUNTIME_H_
