#include "src/core/shuffler.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "src/shuffle/oblivious_threshold.h"
#include "src/shuffle/stash_shuffle.h"

namespace prochlo {

Shuffler::Shuffler(KeyPair keys, ShufflerConfig config)
    : keys_(std::move(keys)), config_(config) {}

Shuffler::Shuffler(Enclave& enclave, ShufflerConfig config)
    : keys_(enclave.keys()), config_(config), enclave_(&enclave) {}

void Shuffler::ShuffleViews(std::vector<ShufflerView>& views, SecureRandom& rng) {
  std::sort(views.begin(), views.end(), [](const ShufflerView& a, const ShufflerView& b) {
    auto order = a.inner_box <=> b.inner_box;
    return order != 0 ? order < 0 : a.crowd.plain_hash < b.crowd.plain_hash;
  });
  rng.ShuffleVector(views);
}

std::vector<Bytes> Shuffler::ThresholdAndStrip(std::vector<ShufflerView> views,
                                               const ShufflerConfig& config, Rng& noise_rng,
                                               ShufflerStats& stats) {
  // Group report indices by crowd hash.  (Inside the SGX deployment this is
  // the §4.1.5 private-memory counting pass: one counter per distinct
  // crowd ID, then a filtering pass; domains of up to ~20M fit.)  An ordered
  // map keeps the noise-draw sequence a function of the crowd *set* rather
  // than of arrival order, so sequential and threaded runs threshold
  // identically for the same seed.
  std::map<uint64_t, std::vector<size_t>> crowds;
  for (size_t i = 0; i < views.size(); ++i) {
    crowds[views[i].crowd.plain_hash].push_back(i);
  }
  stats.crowds_seen += crowds.size();

  std::vector<Bytes> survivors;
  survivors.reserve(views.size());
  for (auto& [crowd_hash, indices] : crowds) {
    size_t count = indices.size();
    if (config.threshold_mode == ThresholdMode::kRandomized) {
      // Drop d ~ ⌊N(D, σ²)⌉ items (truncated at 0) before thresholding
      // (paper §3.5); which items are dropped is immaterial post-shuffle, so
      // drop from the tail.
      size_t d = static_cast<size_t>(noise_rng.NextRoundedTruncatedGaussian(
          config.policy.drop_mean, config.policy.drop_sigma));
      d = std::min(d, count);
      stats.dropped_noise += d;
      count -= d;
    }
    bool keep = true;
    if (config.threshold_mode != ThresholdMode::kNone) {
      keep = static_cast<double>(count) >= config.policy.threshold;
    }
    if (!keep) {
      stats.dropped_threshold += count;
      continue;
    }
    stats.crowds_forwarded++;
    for (size_t k = 0; k < count; ++k) {
      survivors.push_back(std::move(views[indices[k]].inner_box));
    }
  }
  return survivors;
}

Result<std::vector<Bytes>> Shuffler::ProcessBatch(const std::vector<Bytes>& reports,
                                                  SecureRandom& rng, Rng& noise_rng,
                                                  ThreadPool* pool) {
  VectorRecordStream stream(reports);
  return ProcessStream(stream, rng, noise_rng, pool);
}

Result<std::vector<Bytes>> Shuffler::ProcessStream(RecordStream& reports, SecureRandom& rng,
                                                   Rng& noise_rng, ThreadPool* pool) {
  const size_t n = reports.size();
  if (n < config_.min_batch_size) {
    return Error{"batch below the minimum cardinality; keep batching"};
  }

  std::vector<ShufflerView> views;
  if (config_.use_stash_shuffle) {
    if (enclave_ == nullptr) {
      return Error{"stash shuffle requires an enclave-hosted shuffler"};
    }
    stats_.received += n;
    views.reserve(n);
    StashShuffler::Options options;
    options.open_outer = [this](const Bytes& record) -> std::optional<Bytes> {
      auto view = OpenReport(keys_, record);
      if (!view.has_value()) {
        return std::nullopt;
      }
      return view->Serialize();
    };
    // Bulk opens go through the batched variable-base path: one shared
    // inversion per chunk of ECDH opens instead of per-report conversions.
    options.open_outer_batch = [this](const std::vector<Bytes>& records,
                                      ThreadPool* open_pool) {
      std::vector<std::optional<ShufflerView>> views =
          BatchOpenReports(keys_, records, open_pool);
      std::vector<std::optional<Bytes>> out(views.size());
      for (size_t i = 0; i < views.size(); ++i) {
        if (views[i].has_value()) {
          out[i] = views[i]->Serialize();
        }
      }
      return out;
    };
    options.pool = pool;
    StashShuffler stash(*enclave_, std::move(options));
    auto shuffled = ShuffleStreamWithRetries(stash, reports, rng, /*max_attempts=*/5);
    if (!shuffled.ok()) {
      return shuffled.error();
    }
    for (const auto& raw : shuffled.value()) {
      auto view = ShufflerView::Deserialize(raw);
      if (!view.has_value()) {
        stats_.malformed++;
        continue;
      }
      views.push_back(std::move(*view));
    }
  } else {
    auto opened = OpenStream(reports, pool);
    if (!opened.ok()) {
      return opened.error();
    }
    views = std::move(opened).value();
    ShuffleViews(views, rng);
  }

  return FinishViews(std::move(views), rng, noise_rng);
}

Result<std::vector<ShufflerView>> Shuffler::OpenStream(RecordStream& reports,
                                                       ThreadPool* pool) {
  // Pull and open in bounded chunks: the opened views must all be resident
  // for the in-memory Fisher-Yates anyway, but the raw sealed reports need
  // never be held more than a chunk at a time.
  constexpr size_t kOpenChunk = 4096;
  const size_t n = reports.size();
  stats_.received += n;
  std::vector<ShufflerView> views;
  views.reserve(n);
  std::vector<Bytes> raw;
  std::vector<std::optional<ShufflerView>> slots;
  size_t remaining = n;
  while (remaining > 0) {
    const size_t count = std::min(kOpenChunk, remaining);
    raw.clear();
    raw.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      auto record = reports.Next();
      if (!record.has_value()) {
        Status failed = reports.status();
        return failed.ok() ? Error{"record stream ended before its declared size"}
                           : failed.error();
      }
      raw.push_back(std::move(*record));
    }
    slots = BatchOpenReports(keys_, raw, pool);
    for (auto& slot : slots) {
      if (!slot.has_value()) {
        stats_.malformed++;
        continue;
      }
      views.push_back(std::move(*slot));
    }
    remaining -= count;
  }
  // Read to the end: damage past the last record (a bad block of session
  // ops after an epoch's last report) fails the open instead of going
  // unseen, and so does a stream that holds more than its declared size.
  if (reports.Next().has_value()) {
    return Error{"record stream holds more than its declared size"};
  }
  Status ended = reports.status();
  if (!ended.ok()) {
    return ended.error();
  }
  return views;
}

Result<std::vector<Bytes>> Shuffler::FinishViews(std::vector<ShufflerView> views,
                                                 SecureRandom& rng, Rng& noise_rng) {
  std::vector<Bytes> survivors;
  if (config_.use_enclave_thresholding && enclave_ != nullptr) {
    // In-enclave thresholding (§4.1.5).  Decide the routine up front from
    // the crowd-ID domain cardinality: one counter per distinct value when
    // the table fits private memory, the oblivious sort-based routine
    // otherwise.
    std::unordered_set<uint64_t> distinct;
    distinct.reserve(views.size());
    for (const auto& view : views) {
      distinct.insert(view.crowd.plain_hash);
    }
    constexpr size_t kCounterSlot = 24;
    size_t available = enclave_->memory().budget() - enclave_->memory().used();
    bool counters_fit = distinct.size() * kCounterSlot <= available / 2;

    std::vector<CrowdRecord> records;
    records.reserve(views.size());
    for (auto& view : views) {
      records.push_back(CrowdRecord{view.crowd.plain_hash, std::move(view.inner_box)});
    }
    ThresholdPolicy policy = config_.policy;
    if (config_.threshold_mode == ThresholdMode::kNone) {
      policy = ThresholdPolicy{0, 0, 0};
    } else if (config_.threshold_mode == ThresholdMode::kNaive) {
      policy.drop_mean = 0;
      policy.drop_sigma = 0;
    }

    Result<std::vector<CrowdRecord>> thresholded = std::vector<CrowdRecord>{};
    if (counters_fit) {
      CountingThresholder counting(*enclave_);
      thresholded = counting.Threshold(std::move(records), policy, noise_rng);
    } else {
      SortingThresholder sorting(*enclave_);
      thresholded = sorting.Threshold(std::move(records), policy, noise_rng);
    }
    if (!thresholded.ok()) {
      return thresholded.error();
    }
    stats_.dropped_threshold += views.size() - thresholded.value().size();
    for (auto& record : thresholded.value()) {
      survivors.push_back(std::move(record.payload));
    }
  } else {
    survivors = ThresholdAndStrip(std::move(views), config_, noise_rng, stats_);
  }
  // Re-shuffle after thresholding so grouping order does not leak.
  rng.ShuffleVector(survivors);
  stats_.forwarded += survivors.size();
  return survivors;
}

}  // namespace prochlo
