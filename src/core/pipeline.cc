#include "src/core/pipeline.h"

#include <algorithm>
#include <chrono>

#include "src/crypto/sha256.h"
#include "src/util/serialization.h"

namespace prochlo {

namespace {
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

Sha256Digest EpochDigest(const char* tag, const std::string& seed, uint64_t epoch) {
  Writer w;
  w.PutString(seed);
  w.PutU64(epoch);
  return Sha256::TaggedHash(tag, w.data());
}
}  // namespace

SecureRandom DeriveEpochRng(const std::string& seed, uint64_t epoch) {
  Sha256Digest digest = EpochDigest("prochlo-epoch-rng", seed, epoch);
  return SecureRandom(ByteSpan(digest.data(), digest.size()));
}

Rng DeriveEpochNoiseRng(const std::string& seed, uint64_t epoch) {
  Sha256Digest digest = EpochDigest("prochlo-epoch-noise", seed, epoch);
  uint64_t rng_seed = 0;
  for (int i = 0; i < 8; ++i) {
    rng_seed |= static_cast<uint64_t>(digest[i]) << (8 * i);
  }
  return Rng(rng_seed);
}

Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config),
      rng_(ToBytes(config.seed)),
      noise_rng_(CrowdIdHash(config.seed + "-noise")),
      pool_(config.num_threads > 0 ? std::make_unique<ThreadPool>(config.num_threads) : nullptr),
      analyzer_(KeyPair::Generate(rng_)) {
  if (config_.use_blinded_crowd_ids) {
    blind_pair_.emplace(rng_, config_.shuffler);
  } else {
    shuffler_.emplace(KeyPair::Generate(rng_), config_.shuffler);
  }
}

Encoder Pipeline::MakeEncoder() const {
  EncoderConfig encoder_config;
  if (config_.use_blinded_crowd_ids) {
    encoder_config.shuffler_public = blind_pair_->shuffler1_public();
    encoder_config.shuffler2_public = blind_pair_->shuffler2_elgamal_public();
    encoder_config.crowd_mode = CrowdIdMode::kBlinded;
  } else {
    encoder_config.shuffler_public = shuffler_->public_key();
    encoder_config.crowd_mode = CrowdIdMode::kPlainHash;
  }
  encoder_config.analyzer_public = analyzer_.public_key();
  encoder_config.payload_size = config_.payload_size;
  encoder_config.secret_share_threshold = config_.secret_share_threshold;
  return Encoder(encoder_config);
}

Result<PipelineResult> Pipeline::Run(
    const std::vector<std::pair<std::string, std::string>>& inputs) {
  // ---- Encode (clients) ----
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Bytes> reports(inputs.size());
  std::vector<uint8_t> failed(inputs.size(), 0);
  {
    // One shared Encoder holds the immutable key/config state; each worker
    // forks only an independent DRBG, as each client has its own.
    const Encoder encoder = MakeEncoder();
    size_t workers = pool_ != nullptr ? pool_->num_threads() : 1;
    std::vector<SecureRandom> rngs;
    for (size_t w = 0; w < workers; ++w) {
      rngs.emplace_back(SecureRandom(rng_.RandomBytes(32)));
    }
    size_t per_worker = (inputs.size() + workers - 1) / workers;
    auto encode_range = [&](size_t w) {
      size_t begin = w * per_worker;
      size_t end = std::min(inputs.size(), begin + per_worker);
      for (size_t i = begin; i < end; ++i) {
        auto report = encoder.EncodeValue(inputs[i].second, inputs[i].first, rngs[w]);
        if (report.ok()) {
          reports[i] = std::move(report).value();
        } else {
          failed[i] = 1;
        }
      }
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(workers, encode_range);
    } else {
      encode_range(0);
    }
  }
  std::vector<Bytes> valid_reports;
  valid_reports.reserve(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    if (failed[i] == 0) {
      valid_reports.push_back(std::move(reports[i]));
    }
  }
  if (valid_reports.size() != inputs.size()) {
    return Error{"some inputs could not be encoded (payload_size too small?)"};
  }

  // ---- Shuffle + threshold + analyze ----
  PipelineResult result;
  if (config_.use_blinded_crowd_ids) {
    // The two-party split (§4.3).  ProcessBatch runs both stages; the Vocab
    // timing bench drives them separately to split out Shuffler 2's time.
    auto stage1 = blind_pair_->ProcessBatch(valid_reports, rng_, noise_rng_, pool_.get());
    if (!stage1.ok()) {
      return stage1.error();
    }
    result.shuffler1_stats = blind_pair_->stats1();
    result.shuffler_stats = blind_pair_->stats2();
    Analyze(stage1.value(), result);
    result.analyzer_stats = analyzer_.stats();
  } else {
    // The service's drain over one partial: the outer open, then the merge.
    VectorRecordStream stream(valid_reports);
    auto partial = RunReportsPartial(stream);
    if (!partial.ok()) {
      return partial.error();
    }
    std::vector<EpochPartial> partials;
    partials.push_back(std::move(partial).value());
    auto merged = MergePartials(partials, rng_, noise_rng_);
    if (!merged.ok()) {
      return merged.error();
    }
    result = std::move(merged).value();
  }
  // Fold the encode stage into the first stage's wall-clock split.
  result.encode_shuffle1_seconds = SecondsSince(t0);
  return result;
}

size_t Pipeline::Analyze(const std::vector<Bytes>& inner_boxes, PipelineResult& result) {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Bytes> payloads = analyzer_.DecryptBatch(inner_boxes, pool_.get());
  if (config_.secret_share_threshold.has_value()) {
    auto recovered =
        Analyzer::RecoverSecretShared(payloads, *config_.secret_share_threshold);
    result.histogram = std::move(recovered.values);
    result.locked_groups = recovered.locked_groups;
  } else {
    result.histogram = Analyzer::HistogramOfValues(payloads);
  }
  result.analyze_seconds = SecondsSince(t0);
  return payloads.size();
}

Result<EpochPartial> Pipeline::RunReportsPartial(RecordStream& reports) {
  if (config_.use_blinded_crowd_ids) {
    return Error{
        "partial drain requires plain-hash crowd IDs "
        "(blinded mode needs the two-party rendezvous)"};
  }
  if (config_.shuffler.use_stash_shuffle) {
    // A Pipeline's shuffler holds bare keys: there is no enclave to host it.
    return Error{"stash shuffle requires an enclave-hosted shuffler"};
  }
  EpochPartial partial;
  partial.reports = reports.size();
  auto views = shuffler_->OpenStream(reports, pool_.get());
  if (!views.ok()) {
    return views.error();
  }
  partial.malformed = partial.reports - views.value().size();
  for (auto& view : views.value()) {
    partial.crowds[view.crowd.plain_hash].push_back(std::move(view.inner_box));
  }
  return partial;
}

Result<PipelineResult> Pipeline::MergePartials(std::vector<EpochPartial>& partials,
                                               SecureRandom& rng, Rng& noise_rng) {
  PipelineResult result;
  size_t opened = 0;
  for (const auto& partial : partials) {
    result.shuffler_stats.received += partial.reports;
    result.shuffler_stats.malformed += partial.malformed;
    opened += partial.reports - partial.malformed;
  }
  // The minimum-batch decision is a property of the whole epoch, so it runs
  // here, over the union, with Shuffler::ProcessStream's semantics and
  // message: the raw report count, malformed included, must clear the bar.
  // It is the only failure, and it comes before anything is moved out.
  if (result.shuffler_stats.received < config_.shuffler.min_batch_size) {
    return Error{"batch below the minimum cardinality; keep batching"};
  }

  auto t0 = std::chrono::steady_clock::now();
  std::vector<ShufflerView> views;
  views.reserve(opened);
  for (auto& partial : partials) {
    for (auto& [crowd_hash, inner_boxes] : partial.crowds) {
      for (auto& inner_box : inner_boxes) {
        ShufflerView view;
        view.crowd.plain_hash = crowd_hash;
        view.inner_box = std::move(inner_box);
        views.push_back(std::move(view));
      }
    }
  }
  Shuffler::ShuffleViews(views, rng);
  std::vector<Bytes> survivors =
      Shuffler::ThresholdAndStrip(std::move(views), config_.shuffler, noise_rng,
                                  result.shuffler_stats);
  rng.ShuffleVector(survivors);
  result.shuffler_stats.forwarded = survivors.size();
  result.encode_shuffle1_seconds = SecondsSince(t0);

  // The analyzer sees only the survivors.
  size_t decrypted = Analyze(survivors, result);
  result.analyzer_stats.received = survivors.size();
  result.analyzer_stats.undecryptable = survivors.size() - decrypted;
  return result;
}

Result<PipelineResult> Pipeline::MergePartials(std::vector<EpochPartial>& partials,
                                               Rng& noise_rng) {
  return MergePartials(partials, rng_, noise_rng);
}

Result<PipelineResult> Pipeline::MergeEpoch(uint64_t epoch,
                                            std::vector<EpochPartial>& partials) {
  SecureRandom rng = DeriveEpochRng(config_.seed, epoch);
  Rng noise_rng = DeriveEpochNoiseRng(config_.seed, epoch);
  return MergePartials(partials, rng, noise_rng);
}

Result<PipelineResult> Pipeline::RunValues(const std::vector<std::string>& values) {
  std::vector<std::pair<std::string, std::string>> inputs;
  inputs.reserve(values.size());
  for (const auto& value : values) {
    inputs.emplace_back(value, value);
  }
  return Run(inputs);
}

}  // namespace prochlo
