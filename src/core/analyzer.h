// The ESA Analyzer (paper §3.4): decrypts the innermost layer, materializes
// a database of anonymous records, and runs analyses — optionally with
// differentially-private release on top (src/dp).
#ifndef PROCHLO_SRC_CORE_ANALYZER_H_
#define PROCHLO_SRC_CORE_ANALYZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace prochlo {

struct AnalyzerStats {
  uint64_t received = 0;
  uint64_t undecryptable = 0;
};

class Analyzer {
 public:
  explicit Analyzer(KeyPair keys) : keys_(std::move(keys)) {}

  static Analyzer Create(SecureRandom& rng) { return Analyzer(KeyPair::Generate(rng)); }

  const EcPoint& public_key() const { return keys_.public_key; }

  // Decrypts a batch of inner boxes to (unpadded) payloads, in input order;
  // undecryptable records are counted and skipped.  Runs on
  // BatchOpenInnerBoxes (fixed chunks, batched constant-time ECDH), so the
  // output is identical with or without a pool and at any thread count.
  std::vector<Bytes> DecryptBatch(const std::vector<Bytes>& inner_boxes,
                                  ThreadPool* pool = nullptr);

  // Materializes a histogram of string-valued payloads — the "database
  // compatible with standard tools" of §3.4.
  static std::map<std::string, uint64_t> HistogramOfValues(const std::vector<Bytes>& payloads);

  // Secret-share recovery (§4.2): groups encodings by their deterministic
  // ciphertext, recovers every value with >= threshold distinct shares, and
  // returns the histogram of recovered values.
  struct RecoveredHistogram {
    std::map<std::string, uint64_t> values;
    uint64_t locked_groups = 0;   // ciphertexts with too few shares
    uint64_t malformed = 0;
  };
  static RecoveredHistogram RecoverSecretShared(const std::vector<Bytes>& payloads,
                                                uint32_t threshold);

  const AnalyzerStats& stats() const { return stats_; }

 private:
  KeyPair keys_;
  AnalyzerStats stats_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CORE_ANALYZER_H_
