// Benchmark inputs: report values drawn from the seed, sealed in parallel
// into wire reports, and the exact reference histogram the service must
// reproduce.
#ifndef PROCHLO_ESABENCH_ESA_COHORT_H_
#define PROCHLO_ESABENCH_ESA_COHORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/encoder.h"
#include "src/util/rng.h"
#include "src/workload/zipf.h"

namespace prochlo::esa {

enum class ValueShape {
  kZipf,       // Zipf(s = 1.0) over 10^4 values: about half the reports in crowds >= T
  kUniform32,  // uniform over 32 values: every crowd clears T, every report decrypts
};

// `n` report values.  The crowd ID of each report is its value, so crowd
// cardinality is value frequency (the paper's Vocab arrangement).
inline std::vector<std::string> DrawValues(ValueShape shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> values;
  values.reserve(n);
  if (shape == ValueShape::kZipf) {
    ZipfSampler zipf(10000, 1.0);
    for (size_t i = 0; i < n; ++i) {
      values.push_back("v" + std::to_string(zipf.Sample(rng)));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      values.push_back("v" + std::to_string(rng.NextBelow(32)));
    }
  }
  return values;
}

// Seals one report per value on `threads` threads.  Slice t uses its own
// DRBG seeded from (seed, t), so the output depends only on the inputs.
inline Result<std::vector<Bytes>> SealParallel(const Encoder& encoder,
                                               const std::vector<std::string>& values,
                                               uint64_t seed, size_t threads) {
  std::vector<Result<std::vector<Bytes>>> parts(threads, Error{"not sealed"});
  std::vector<std::thread> workers;
  size_t per = (values.size() + threads - 1) / threads;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::pair<std::string, std::string>> inputs;
      for (size_t i = t * per; i < std::min(values.size(), (t + 1) * per); ++i) {
        inputs.emplace_back(values[i], values[i]);
      }
      SecureRandom rng(ToBytes("esabench-seal-" + std::to_string(seed) + "-" + std::to_string(t)));
      parts[t] = encoder.BatchSealReports(inputs, rng);
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  std::vector<Bytes> sealed;
  sealed.reserve(values.size());
  for (auto& part : parts) {
    if (!part.ok()) {
      return part.error();
    }
    for (auto& report : part.value()) {
      sealed.push_back(std::move(report));
    }
  }
  return sealed;
}

using Histogram = std::map<std::string, uint64_t>;

inline Histogram CountValues(const std::vector<std::string>& values) {
  Histogram counts;
  for (const auto& value : values) {
    counts[value]++;
  }
  return counts;
}

// What naive thresholding at `threshold` leaves for the analyzer.
inline Histogram ThresholdedReference(const Histogram& counts, uint64_t threshold) {
  Histogram kept;
  for (const auto& [value, count] : counts) {
    if (count >= threshold) {
      kept[value] = count;
    }
  }
  return kept;
}

inline uint64_t HistogramTotal(const Histogram& histogram) {
  uint64_t total = 0;
  for (const auto& [value, count] : histogram) {
    total += count;
  }
  return total;
}

}  // namespace prochlo::esa

#endif  // PROCHLO_ESABENCH_ESA_COHORT_H_
