// EpochCoordinator: the cluster's epoch barrier.  Tracks every group's seal
// progress, buffers drained partials, and releases an epoch to the merge
// only when every group has contributed it — or a timeout expired with the
// shortfall accounted, never silently dropped.
//
//   groups seal epoch e ──listener nudge──► coordinator drains partials
//                                           (one thread per group, joined)
//                                               │  all N buffered for e?
//                                               ▼
//                                    HistogramMerge::Merge(e, partials)
//
// A partial is ciphertext: each crowd's still-encrypted inner boxes after
// the outer open.  The merge thresholds the union once and decrypts only
// the survivors (see merge.h).
//
// Epoch alignment: CutEpochAll() is the quiescent cut — flush every worker
// ring (each enqueued report durably ingested), then force-seal every
// group's current epoch even when empty (CutEpoch(seal_if_empty=true)), so
// all groups advance in lockstep and epoch numbers mean the same thing
// everywhere.  A group that recovered past an empty epoch (crash + reopen
// discards empty sealed epochs) is recognized by its current_epoch() having
// moved past e before a drain that emptied its queue, and contributes an
// empty partial rather than a shortfall.
#ifndef PROCHLO_SRC_SERVICE_CLUSTER_COORDINATOR_H_
#define PROCHLO_SRC_SERVICE_CLUSTER_COORDINATOR_H_

#include <chrono>
#include <map>
#include <vector>

#include "src/service/cluster/merge.h"
#include "src/service/cluster/shard_group.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

// One merged epoch plus its completeness accounting.
struct ClusterEpochResult {
  EpochResult merged;  // epoch, total reports, analyzer-facing result
  size_t groups_merged = 0;
  // Groups that had not contributed when the barrier timed out.  Their
  // reports are NOT lost — still spooled under their group — but this
  // epoch's histogram was computed without them; the caller decides whether
  // to re-merge later or accept the shortfall.
  std::vector<uint64_t> missing_groups;

  bool complete() const { return missing_groups.empty(); }
};

class EpochCoordinator {
 public:
  explicit EpochCoordinator(std::vector<ShardGroup*> groups);
  ~EpochCoordinator();

  EpochCoordinator(const EpochCoordinator&) = delete;
  EpochCoordinator& operator=(const EpochCoordinator&) = delete;

  // Registers a seal listener on every group so MergeEpoch's barrier wakes
  // on seals instead of polling blind.  Owns the groups' seal listeners
  // until Stop().
  void Start();
  void Stop();

  // The quiescent cluster-wide cut (see the header comment).  Returns the
  // first failure; groups after it are still attempted.
  Status CutEpochAll();

  // Barrier + merge for epoch `epoch`: drains partials from every group as
  // they seal (the groups concurrently; every drain thread is joined before
  // this returns), blocks (listener-nudged) until all groups contributed or
  // `timeout` expired, then merges what arrived.  Counts merge_waits when
  // it had to block and merge_shortfalls per missing group on timeout.
  Result<ClusterEpochResult> MergeEpoch(uint64_t epoch, HistogramMerge& merge,
                                        std::chrono::milliseconds timeout);

  // merge_waits / merge_shortfalls live here (the merge side has no
  // frontend of its own).
  FrontendStats& merge_stats() { return merge_stats_; }

 private:
  // Drains every group's sealed epochs into partials_, each group on its
  // own thread, joined before returning.  Returns, per group (groups_
  // order), the epoch below which that group's partials are all buffered,
  // or 0 when its drain failed (the failed epoch stays queued at the
  // group for the next pass).
  std::vector<uint64_t> PumpPartials() EXCLUDES(mu_);
  // One group's drain loop for PumpPartials: the group's current epoch
  // before draining, or 0 on a drain failure.
  uint64_t PumpGroup(ShardGroup& group) EXCLUDES(mu_);

  std::vector<ShardGroup*> groups_;  // borrowed
  FrontendStats merge_stats_;
  bool started_ = false;

  Mutex mu_;
  CondVar seal_cv_;
  // epoch -> (group id -> that group's partial for the epoch)
  std::map<uint64_t, std::map<uint64_t, EpochPartial>> partials_ GUARDED_BY(mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_CLUSTER_COORDINATOR_H_
