#include "src/service/cluster/coordinator.h"

#include <thread>

namespace prochlo {

EpochCoordinator::EpochCoordinator(std::vector<ShardGroup*> groups)
    : groups_(std::move(groups)) {}

EpochCoordinator::~EpochCoordinator() { Stop(); }

void EpochCoordinator::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (ShardGroup* group : groups_) {
    // Lock-light nudge: the seal path only flips a condition variable; the
    // actual drain happens in MergeEpoch's pump.
    group->frontend().SetSealListener([this] {
      MutexLock lock(mu_);
      seal_cv_.NotifyAll();
    });
  }
}

void EpochCoordinator::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  for (ShardGroup* group : groups_) {
    group->frontend().SetSealListener(nullptr);
  }
}

Status EpochCoordinator::CutEpochAll() {
  Status first_error = Status::Ok();
  // Quiesce first: after every flush, each report enqueued anywhere in the
  // cluster is durably ingested (or a counted failure), so the cut below
  // fixes an identical epoch membership to what a serial frontend fed the
  // same reports would have sealed.
  for (ShardGroup* group : groups_) {
    Status status = group->pool().Flush();
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  }
  // seal_if_empty keeps the cluster in lockstep: a group that happened to
  // own no reports this epoch still seals and advances, so epoch numbers
  // mean the same thing on every group.
  for (ShardGroup* group : groups_) {
    Status status = group->frontend().CutEpoch(/*seal_if_empty=*/true);
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  }
  return first_error;
}

uint64_t EpochCoordinator::PumpGroup(ShardGroup& group) {
  // Read before draining: a seal queues its batch before it advances the
  // epoch, so every epoch below this one is in the queue drained below, or
  // was empty and discarded by crash recovery.
  const uint64_t reached = group.frontend().current_epoch();
  for (;;) {
    auto drained = group.frontend().DrainNextEpochPartial();
    if (!drained.ok()) {
      // The epoch was requeued intact at its group; a later pump retries.
      return 0;
    }
    if (!drained.value().has_value()) {
      return reached;  // this group's sealed queue is empty
    }
    EpochPartialResult result = std::move(*drained.value());
    MutexLock lock(mu_);
    partials_[result.epoch][group.group_id()] = std::move(result.partial);
  }
}

std::vector<uint64_t> EpochCoordinator::PumpPartials() {
  // One thread per group — the calling thread takes the first — so the
  // groups' outer opens run concurrently.
  std::vector<uint64_t> drained_below(groups_.size(), 0);
  {
    // jthreads join when this scope ends, on every path, so no drain
    // outlives the call or the vector it writes.
    std::vector<std::jthread> threads;
    threads.reserve(groups_.size());
    for (size_t i = 1; i < groups_.size(); ++i) {
      threads.emplace_back(
          [this, &drained_below, i] { drained_below[i] = PumpGroup(*groups_[i]); });
    }
    if (!groups_.empty()) {
      drained_below[0] = PumpGroup(*groups_[0]);
    }
  }
  return drained_below;
}

Result<ClusterEpochResult> EpochCoordinator::MergeEpoch(uint64_t epoch, HistogramMerge& merge,
                                                        std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bool waited = false;
  std::vector<uint64_t> missing;
  for (;;) {
    // A failed drain leaves its epoch requeued; the next pass retries it
    // until the deadline.
    const std::vector<uint64_t> drained_below = PumpPartials();
    missing.clear();
    {
      MutexLock lock(mu_);
      auto& epoch_partials = partials_[epoch];
      for (size_t i = 0; i < groups_.size(); ++i) {
        const uint64_t group_id = groups_[i]->group_id();
        if (epoch_partials.count(group_id) != 0) {
          continue;
        }
        if (drained_below[i] > epoch) {
          // The group had passed this epoch before a drain that emptied
          // its queue, yet nothing arrived for it: the epoch was empty
          // there (crash recovery discards empty sealed epochs, so no batch
          // will ever arrive).  An explicit empty contribution keeps the
          // barrier accounting exact.
          epoch_partials[group_id] = EpochPartial{};
          continue;
        }
        missing.push_back(group_id);
      }
      if (!missing.empty() && std::chrono::steady_clock::now() < deadline) {
        if (!waited) {
          waited = true;
          merge_stats_.merge_waits.fetch_add(1, std::memory_order_relaxed);
        }
        // Seal listeners nudge this; the bounded wait also covers a nudge
        // racing in before the wait began.
        (void)seal_cv_.WaitFor(mu_, std::chrono::milliseconds(10));  // bounded poll; loop re-checks
        continue;
      }
    }
    break;
  }
  if (!missing.empty()) {
    // Timed out.  Merge what arrived; the shortfall is accounted per
    // missing group and surfaced in the result — never a silent drop.
    merge_stats_.merge_shortfalls.fetch_add(missing.size(), std::memory_order_relaxed);
  }

  std::map<uint64_t, EpochPartial> contributions;
  {
    MutexLock lock(mu_);
    contributions = std::move(partials_[epoch]);
    partials_.erase(epoch);
  }
  std::vector<EpochPartial> merge_inputs;
  merge_inputs.reserve(contributions.size());
  uint64_t total_reports = 0;
  for (auto& [group_id, partial] : contributions) {
    total_reports += partial.reports;
    merge_inputs.push_back(std::move(partial));
  }
  auto merged = merge.Merge(epoch, merge_inputs);
  if (!merged.ok()) {
    // e.g. the epoch union is below the minimum batch: put the partials
    // back so a later MergeEpoch (after more groups contribute, or with the
    // caller batching epochs) can retry without re-draining.
    MutexLock lock(mu_);
    auto& epoch_partials = partials_[epoch];
    size_t i = 0;
    for (auto& [group_id, partial] : contributions) {
      epoch_partials[group_id] = std::move(merge_inputs[i++]);
    }
    return merged.error();
  }

  ClusterEpochResult result;
  result.merged.epoch = epoch;
  result.merged.reports = total_reports;
  result.merged.result = std::move(merged).value();
  result.groups_merged = contributions.size();
  result.missing_groups = std::move(missing);
  return result;
}

}  // namespace prochlo
