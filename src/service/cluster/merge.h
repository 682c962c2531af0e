// HistogramMerge: combines per-group per-epoch partials into the one
// analyzer-facing histogram — bit-identical to what a serial single
// frontend would have produced for the same epoch membership.
//
// Why this works (and what it must NOT do): thresholding, noise, and the
// minimum-batch decision are functions of the WHOLE epoch, so per-group
// histograms cannot simply be summed — a crowd split 12/8 across two groups
// passes a T=20 threshold globally but would die in both halves.  Groups
// therefore ship only what the shuffler side sees after the outer open:
// each crowd's still-encrypted inner boxes (EpochPartial).  The merge runs
// the rest of the drain exactly once over their union — the serial drain is
// this same merge over one partial — with (seed, epoch)-derived RNGs: the
// canonical-order shuffle, the threshold and noise decision in
// Shuffler::ThresholdAndStrip, the survivors' re-shuffle, and then the one
// analyzer stage of the cluster, which decrypts the survivors and nothing
// else.  No group-side code path calls the analyzer (scripts/lint.py's
// analyzer-boundary rule keeps it that way).
#ifndef PROCHLO_SRC_SERVICE_CLUSTER_MERGE_H_
#define PROCHLO_SRC_SERVICE_CLUSTER_MERGE_H_

#include <vector>

#include "src/core/pipeline.h"
#include "src/service/frontend.h"

namespace prochlo {

class HistogramMerge {
 public:
  // `config` must equal the groups' pipeline config (same seed → same
  // analyzer/shuffler keys, same per-epoch RNG derivations).  The survivors
  // are decrypted on this pipeline's own pool (config.num_threads).
  explicit HistogramMerge(const PipelineConfig& config) : pipeline_(config) {}

  // Merges one epoch's partials (one per contributing group; order
  // irrelevant) into the final result through Pipeline::MergeEpoch, the
  // call the serial drain makes with its one partial.  The inner
  // boxes are moved out of `partials` on success; on error (the epoch's
  // union is below the minimum batch) `partials` is left intact.
  Result<PipelineResult> Merge(uint64_t epoch, std::vector<EpochPartial>& partials) {
    return pipeline_.MergeEpoch(epoch, partials);
  }

 private:
  Pipeline pipeline_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_CLUSTER_MERGE_H_
