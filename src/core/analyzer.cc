#include "src/core/analyzer.h"

#include <optional>

#include "src/crypto/secret_share.h"

namespace prochlo {

std::vector<Bytes> Analyzer::DecryptBatch(const std::vector<Bytes>& inner_boxes,
                                          ThreadPool* pool) {
  stats_.received += inner_boxes.size();
  std::vector<std::optional<Bytes>> opened = BatchOpenInnerBoxes(keys_, inner_boxes, pool);
  std::vector<Bytes> payloads;
  payloads.reserve(inner_boxes.size());
  for (const auto& padded : opened) {
    std::optional<Bytes> payload =
        padded.has_value() ? UnpadPayload(*padded) : std::optional<Bytes>();
    if (payload.has_value()) {
      payloads.push_back(std::move(*payload));
    } else {
      stats_.undecryptable++;
    }
  }
  return payloads;
}

std::map<std::string, uint64_t> Analyzer::HistogramOfValues(const std::vector<Bytes>& payloads) {
  std::map<std::string, uint64_t> histogram;
  for (const auto& payload : payloads) {
    histogram[ToString(payload)]++;
  }
  return histogram;
}

Analyzer::RecoveredHistogram Analyzer::RecoverSecretShared(const std::vector<Bytes>& payloads,
                                                           uint32_t threshold) {
  RecoveredHistogram result;
  // Group shares by their deterministic ciphertext.
  std::map<Bytes, std::vector<SecretShare>> groups;
  for (const auto& payload : payloads) {
    auto encoding = SecretShareEncoding::Deserialize(payload);
    if (!encoding.has_value()) {
      result.malformed++;
      continue;
    }
    groups[encoding->ciphertext].push_back(encoding->share);
  }

  SecretSharer sharer(threshold);
  for (const auto& [ciphertext, shares] : groups) {
    auto recovered = sharer.Recover(ciphertext, shares);
    if (recovered.has_value()) {
      result.values[ToString(*recovered)] += shares.size();
    } else {
      result.locked_groups++;
    }
  }
  return result;
}

}  // namespace prochlo
