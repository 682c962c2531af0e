#include "src/service/cluster/merge.h"

namespace prochlo {

Result<PipelineResult> HistogramMerge::Merge(uint64_t epoch,
                                             std::vector<EpochPartial>& partials) {
  SecureRandom rng = DeriveEpochRng(config_.seed, epoch);
  Rng noise_rng = DeriveEpochNoiseRng(config_.seed, epoch);
  return pipeline_.MergePartials(partials, rng, noise_rng);
}

}  // namespace prochlo
