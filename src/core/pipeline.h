// End-to-end ESA pipeline wiring (paper Figure 1): encoders at clients, one
// shuffler (or a blinded two-shuffler pair), and an analyzer, with the
// attestation-based trust establishment of §4.1.1.
//
// This is the highest-level public API: construct a Pipeline with a
// PipelineConfig, feed client values, and collect the analyzer-side
// histogram.  The benches and examples drive experiments through it.
#ifndef PROCHLO_SRC_CORE_PIPELINE_H_
#define PROCHLO_SRC_CORE_PIPELINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/blind_shuffler.h"
#include "src/core/encoder.h"
#include "src/core/shuffler.h"
#include "src/util/record_stream.h"
#include "src/util/thread_pool.h"

namespace prochlo {

struct PipelineConfig {
  // Single shuffler (plain-hash crowd IDs) or the §4.3 two-shuffler split.
  bool use_blinded_crowd_ids = false;
  ShufflerConfig shuffler;
  // Secret-share encoding threshold; typically equal to the crowd threshold
  // (§5.2 sets both to 20).
  std::optional<uint32_t> secret_share_threshold;
  size_t payload_size = 64;
  // Worker threads for the crypto-heavy stages (0 = sequential).
  size_t num_threads = 0;
  // Deterministic seed for all pipeline randomness.
  std::string seed = "prochlo-pipeline";
};

struct PipelineResult {
  std::map<std::string, uint64_t> histogram;  // value -> count at analyzer
  uint64_t locked_groups = 0;                 // secret-share groups not recovered
  ShufflerStats shuffler_stats;   // single-shuffler mode, or stage 2 in blinded mode
  ShufflerStats shuffler1_stats;  // blinded mode only
  AnalyzerStats analyzer_stats;
  // Wall-clock split, seconds (Table 3's columns).
  double encode_shuffle1_seconds = 0;
  double shuffle2_seconds = 0;
  double analyze_seconds = 0;
};

// One epoch's pre-threshold state from one shard group (the serial drain's
// one group is the whole epoch), the unit MergePartials combines: each
// crowd's still-encrypted inner boxes, keyed by plain crowd hash.  The outer
// layer is open — the shuffler's view — and nothing else has happened: no
// threshold, noise, minimum-batch or analyzer decision, which are functions
// of the whole epoch and belong to MergePartials.
struct EpochPartial {
  uint64_t reports = 0;    // raw reports pulled from the stream
  uint64_t malformed = 0;  // outer opens that failed
  std::map<uint64_t, std::vector<Bytes>> crowds;
};

// Per-epoch derived randomness: for a fixed (seed, epoch) the shuffle and
// the threshold noise are the same wherever and however often they replay.
SecureRandom DeriveEpochRng(const std::string& seed, uint64_t epoch);
Rng DeriveEpochNoiseRng(const std::string& seed, uint64_t epoch);

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  // An encoder configured with this pipeline's keys (clients would each own
  // one; they are stateless and shareable).
  Encoder MakeEncoder() const;

  // Runs the full pipeline over (crowd_id, value) client inputs.
  // With secret-share encoding configured, the value is share-encoded.
  Result<PipelineResult> Run(const std::vector<std::pair<std::string, std::string>>& inputs);

  // Convenience: crowd ID = value (the Vocab arrangement).
  Result<PipelineResult> RunValues(const std::vector<std::string>& values);

  // The shuffler side of one epoch's drain: opens the outer layer of every
  // report pulled from `reports` (so a spooled epoch streams off disk) and
  // buckets each still-encrypted inner box under its crowd.  It needs no
  // randomness and no analyzer key, so a partial is a pure function of its
  // report set.  Plain-hash crowd IDs and the in-memory shuffle only: the
  // blinded pair and the enclave's Stash Shuffle return an Error here.
  Result<EpochPartial> RunReportsPartial(RecordStream& reports);

  // Everything after the open, over one epoch's partials (one per shard
  // group): the minimum-batch check, ShuffleViews with `rng`, the one
  // Shuffler::ThresholdAndStrip with `noise_rng`, the survivors' re-shuffle,
  // and one analyzer DecryptBatch over the survivors only.  The result and
  // its stats depend only on the report *set* and the two RNGs, never on
  // arrival order, the group count or the partial order.  The inner boxes
  // are moved out of `partials` on success; on error (the union is below
  // the minimum batch) `partials` is left intact for a retry.
  Result<PipelineResult> MergePartials(std::vector<EpochPartial>& partials, SecureRandom& rng,
                                       Rng& noise_rng);
  // The same with the pipeline's own SecureRandom driving the shuffles.
  Result<PipelineResult> MergePartials(std::vector<EpochPartial>& partials, Rng& noise_rng);

  // The service's one merge entry point, for the serial drain and the
  // cluster's HistogramMerge: MergePartials with the RNGs derived from
  // (config seed, `epoch`).
  Result<PipelineResult> MergeEpoch(uint64_t epoch, std::vector<EpochPartial>& partials);

 private:
  // The analyzer stage: decrypts `inner_boxes` on the pool into the
  // histogram (or secret-share recovery) and times it.  Returns how many
  // inner boxes opened.
  size_t Analyze(const std::vector<Bytes>& inner_boxes, PipelineResult& result);

  PipelineConfig config_;
  SecureRandom rng_;
  Rng noise_rng_;
  std::unique_ptr<ThreadPool> pool_;  // null when sequential
  std::optional<Shuffler> shuffler_;
  std::optional<BlindShufflerPair> blind_pair_;
  Analyzer analyzer_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CORE_PIPELINE_H_
