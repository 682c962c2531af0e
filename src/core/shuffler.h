// The ESA Shuffler (paper §3.3): anonymization, shuffling, thresholding, and
// batching between untrusted clients and the analyzer.
//
// Pipeline per batch:
//   1. batching  — refuse to process fewer than `min_batch_size` reports
//                  (reports must get lost in a crowd);
//   2. anonymize — strip the outer encryption layer (and with it all
//                  metadata: arrival order is discarded below);
//   3. threshold — group by crowd ID and apply naive or randomized
//                  thresholding (drop d ~ ⌊N(D,σ²)⌉ per crowd, then require
//                  count ≥ T), establishing DP for the crowd-ID multiset;
//   4. shuffle   — re-order the survivors: either a plain in-memory
//                  Fisher-Yates (trusted-third-party deployment) or the
//                  oblivious Stash Shuffle inside the SGX enclave
//                  (§4.1; hosted-by-the-analyzer deployment).
//
// Blinded crowd IDs are handled by the two-party split shuffler in
// blind_shuffler.h.
#ifndef PROCHLO_SRC_CORE_SHUFFLER_H_
#define PROCHLO_SRC_CORE_SHUFFLER_H_

#include <cstdint>

#include "src/core/report.h"
#include "src/dp/threshold_dp.h"
#include "src/sgx/enclave.h"
#include "src/util/record_stream.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace prochlo {

enum class ThresholdMode {
  kNone,        // forward everything (the §5.2 NoCrowd arrangement)
  kNaive,       // count >= T (k-anonymity-style; no DP)
  kRandomized,  // drop noise then count >= T (DP for the crowd-ID multiset)
};

struct ShufflerConfig {
  ThresholdMode threshold_mode = ThresholdMode::kRandomized;
  ThresholdPolicy policy;      // T, D, sigma (paper §5: T=20, D=10, sigma=2)
  size_t min_batch_size = 0;   // 0 = no batching constraint
  bool use_stash_shuffle = false;  // requires an enclave
  // Enclave-hosted deployments threshold inside the enclave (§4.1.5):
  // counting thresholder for small crowd domains, with automatic fallback to
  // the sort-based routine when the counter table would not fit.
  bool use_enclave_thresholding = false;
};

struct ShufflerStats {
  uint64_t received = 0;
  uint64_t malformed = 0;
  uint64_t dropped_noise = 0;      // randomized pre-threshold drops
  uint64_t dropped_threshold = 0;  // below-T crowds
  uint64_t forwarded = 0;
  uint64_t crowds_seen = 0;
  uint64_t crowds_forwarded = 0;
};

class Shuffler {
 public:
  // Trusted-third-party deployment: bare keys, in-memory shuffle.
  Shuffler(KeyPair keys, ShufflerConfig config);
  // SGX deployment: keys come from the enclave; the shuffle may route
  // through the Stash Shuffle with metered private memory.
  Shuffler(Enclave& enclave, ShufflerConfig config);

  const EcPoint& public_key() const { return keys_.public_key; }

  // Processes one batch of client reports and returns the shuffled,
  // thresholded inner boxes for the analyzer.  `rng` drives cryptographic
  // and permutation randomness; `noise_rng` drives thresholding noise
  // (separate so experiments can be reproducible).  `pool`, when given,
  // parallelizes the outer-layer decryption and (in the stash-shuffle path)
  // the re-encryption work; the analyzer-visible histogram is identical
  // with and without it.
  Result<std::vector<Bytes>> ProcessBatch(const std::vector<Bytes>& reports, SecureRandom& rng,
                                          Rng& noise_rng, ThreadPool* pool = nullptr);

  // Streaming variant for spooled epochs: reports are pulled from `reports`
  // (e.g. straight off the ingestion tier's WAL generations).  In the
  // stash-shuffle path the records stream through the enclave one input
  // bucket at a time, so an epoch larger than RAM never materializes; the
  // trusted-deployment Fisher-Yates path must hold the opened views in
  // memory regardless and only bounds the *raw* report residency.
  Result<std::vector<Bytes>> ProcessStream(RecordStream& reports, SecureRandom& rng,
                                           Rng& noise_rng, ThreadPool* pool = nullptr);

  // Opens every report's outer layer — no shuffle, no thresholding, no
  // min-batch check — for ProcessStream's in-memory path and for
  // Pipeline::RunReportsPartial, the drain's first half.  Reports are pulled
  // and opened in bounded chunks through the batched ECDH path.  Malformed
  // reports are counted into stats() and skipped.
  Result<std::vector<ShufflerView>> OpenStream(RecordStream& reports,
                                               ThreadPool* pool = nullptr);

  const ShufflerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ShufflerStats{}; }

  // The in-memory shuffle of opened views: sorts them into a canonical
  // order — (inner box, crowd hash) — then Fisher-Yates with `rng`.  The
  // order that reaches thresholding, and so which members a noise drop
  // removes, is then a function of the view *set* and the rng alone, not of
  // arrival order or of how the views were split across shard groups.
  static void ShuffleViews(std::vector<ShufflerView>& views, SecureRandom& rng);

  // The one thresholding routine (paper §3.5), over views in shuffled
  // order, keyed by plain crowd hash: the serial drain and the cluster
  // merge both decide here.  Crowds are visited in ascending hash order, so
  // each consumes the same noise draw whatever the batch's arrival order;
  // a randomized drop removes a crowd's last members in the given order.
  // Counts crowds_seen, dropped_noise, dropped_threshold and
  // crowds_forwarded into `stats`; returns the survivors' inner boxes.
  static std::vector<Bytes> ThresholdAndStrip(std::vector<ShufflerView> views,
                                              const ShufflerConfig& config, Rng& noise_rng,
                                              ShufflerStats& stats);

 private:
  // Thresholding + post-shuffle shared by the batch and stream paths.
  Result<std::vector<Bytes>> FinishViews(std::vector<ShufflerView> views, SecureRandom& rng,
                                         Rng& noise_rng);

  KeyPair keys_;
  ShufflerConfig config_;
  Enclave* enclave_ = nullptr;  // borrowed; may be null
  ShufflerStats stats_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CORE_SHUFFLER_H_
