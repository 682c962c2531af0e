// The Stash Shuffle (paper §4.1.4, Algorithms 1–4): PROCHLO's scalable,
// efficient oblivious shuffle for SGX.
//
// Two phases over B buckets of D = ceil(N/B) items:
//
//  Distribution — read one input bucket at a time into private memory,
//  assign each item a random output bucket, and write out fixed-size chunks
//  of exactly C (re-encrypted) items per (input, output) bucket pair, padded
//  with indistinguishable dummies.  Items overflowing a chunk's cap queue in
//  a private *stash* (capacity S) and ride along in later chunks; a final
//  drain flushes the stash as K = S/B extra items per output bucket.
//
//  Compression — slide a window over the intermediate buckets: import one
//  (shuffle it inside private memory, decrypt, discard dummies, enqueue the
//  real items), and emit exactly D items per output bucket from the queue.
//
// Every quantity visible outside private memory (chunk sizes, bucket sizes,
// pass structure) is independent of the data, so the observable operation
// sequence reveals nothing about the permutation.  The algorithm can FAIL —
// stash overflow, stash not drained, queue under/overflow — in which case
// nothing about the attempted permutation leaks (intermediates are sealed
// under a fresh ephemeral key) and the caller retries.
#ifndef PROCHLO_SRC_SHUFFLE_STASH_SHUFFLE_H_
#define PROCHLO_SRC_SHUFFLE_STASH_SHUFFLE_H_

#include <functional>
#include <optional>

#include "src/sgx/enclave.h"
#include "src/shuffle/oblivious_shuffler.h"
#include "src/shuffle/stash_params.h"
#include "src/util/thread_pool.h"

namespace prochlo {

class StashShuffler : public ObliviousShuffler {
 public:
  struct Options {
    // Zero-initialized num_buckets selects parameters automatically from the
    // input size and the enclave's private-memory budget.
    StashShuffleParams params;
    // Applied to each input item as it first enters the enclave — in ESA
    // this strips the outer layer of nested encryption (returns nullopt on
    // forged records, which are dropped and replaced by dummies).  Must be
    // thread-safe when a pool is supplied (it is called concurrently).
    std::function<std::optional<Bytes>(const Bytes&)> open_outer;
    // Batched variant: opens a whole input bucket at once so the per-report
    // ECDH runs on the batched constant-time ladder (shared-inversion
    // tables; see BatchOpenReports).  When set, it is used for bulk opens and
    // `open_outer` only for the single-record size probe; slot i must be
    // nullopt exactly when open_outer would fail on record i.
    std::function<std::vector<std::optional<Bytes>>(const std::vector<Bytes>&, ThreadPool*)>
        open_outer_batch;
    // Workers for the crypto-heavy per-item work: the outer-layer public-key
    // decryption and the intermediate-record AEAD seal/open (the paper notes
    // distribution parallelizes well for exactly this reason).  Randomness
    // is forked per fixed-size item group, so the emitted permutation is
    // identical with and without a pool.  Borrowed; may be null.
    ThreadPool* pool = nullptr;
  };

  StashShuffler(Enclave& enclave, Options options);

  Result<std::vector<Bytes>> Shuffle(const std::vector<Bytes>& input,
                                     SecureRandom& rng) override;

  // True streaming input: records are pulled one input bucket at a time, so
  // only D raw records are ever resident alongside the private working set —
  // a spooled epoch larger than RAM streams straight off disk.  Shuffle()
  // is this with a vector-backed stream.
  Result<std::vector<Bytes>> ShuffleStream(RecordStream& input, SecureRandom& rng) override;

  const ShuffleMetrics& metrics() const override { return metrics_; }
  std::string name() const override { return "StashShuffle"; }

  // Parameters used by the last Shuffle() call (after auto-selection).
  const StashShuffleParams& effective_params() const { return effective_params_; }

 private:
  Enclave& enclave_;
  Options options_;
  StashShuffleParams effective_params_;
  ShuffleMetrics metrics_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SHUFFLE_STASH_SHUFFLE_H_
