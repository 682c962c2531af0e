#include "src/core/report.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/crypto/aes.h"
#include "src/crypto/sha256.h"

namespace prochlo {

uint64_t CrowdIdHash(const std::string& crowd_id) {
  Sha256Digest digest = Sha256::TaggedHash("prochlo-crowd-id", ToBytes(crowd_id));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(digest[i]) << (8 * i);
  }
  return out;
}

Bytes CrowdPart::Serialize() const {
  Writer w;
  w.PutU8(static_cast<uint8_t>(mode));
  if (mode == CrowdIdMode::kPlainHash) {
    w.PutU64(plain_hash);
  } else {
    w.PutBytes(blinded_ct->Serialize());
  }
  return w.Take();
}

std::optional<CrowdPart> CrowdPart::Deserialize(Reader& reader) {
  uint8_t mode_byte = 0;
  if (!reader.GetU8(&mode_byte)) {
    return std::nullopt;
  }
  CrowdPart part;
  if (mode_byte == static_cast<uint8_t>(CrowdIdMode::kPlainHash)) {
    part.mode = CrowdIdMode::kPlainHash;
    if (!reader.GetU64(&part.plain_hash)) {
      return std::nullopt;
    }
  } else if (mode_byte == static_cast<uint8_t>(CrowdIdMode::kBlinded)) {
    part.mode = CrowdIdMode::kBlinded;
    Bytes ct_bytes;
    if (!reader.GetBytes(2 * kEcPointEncodedSize, &ct_bytes)) {
      return std::nullopt;
    }
    auto ct = ElGamalCiphertext::Deserialize(ct_bytes);
    if (!ct.has_value()) {
      return std::nullopt;
    }
    part.blinded_ct = *ct;
  } else {
    return std::nullopt;
  }
  return part;
}

Bytes ShufflerView::Serialize() const {
  Writer w;
  w.PutBytes(crowd.Serialize());
  w.PutBytes(inner_box);  // rest of buffer
  return w.Take();
}

std::optional<ShufflerView> ShufflerView::Deserialize(ByteSpan data) {
  Reader reader(data);
  ShufflerView view;
  auto crowd = CrowdPart::Deserialize(reader);
  if (!crowd.has_value()) {
    return std::nullopt;
  }
  view.crowd = *crowd;
  if (!reader.GetBytes(reader.remaining(), &view.inner_box)) {
    return std::nullopt;
  }
  return view;
}

std::optional<Bytes> PadPayload(ByteSpan payload, size_t target_size) {
  if (payload.size() + 4 > target_size) {
    return std::nullopt;
  }
  Writer w;
  w.PutLengthPrefixed(payload);
  Bytes out = w.Take();
  out.resize(target_size, 0);
  return out;
}

std::optional<Bytes> UnpadPayload(ByteSpan padded) {
  Reader reader(padded);
  Bytes out;
  if (!reader.GetLengthPrefixed(&out)) {
    return std::nullopt;
  }
  return out;
}

Bytes SealReport(const CrowdPart& crowd, ByteSpan padded_payload,
                 const EcPoint& shuffler_public, const EcPoint& analyzer_public,
                 SecureRandom& rng) {
  HybridBox inner = HybridSeal(analyzer_public, padded_payload, kAnalyzerLayerContext, rng);
  ShufflerView view;
  view.crowd = crowd;
  view.inner_box = inner.Serialize();
  Bytes shuffler_plaintext = view.Serialize();
  HybridBox outer = HybridSeal(shuffler_public, shuffler_plaintext, kShufflerLayerContext, rng);
  return outer.Serialize();
}

std::vector<Bytes> BatchSealReports(const std::vector<CrowdPart>& crowds,
                                    const std::vector<Bytes>& padded_payloads,
                                    const EcPoint& shuffler_public,
                                    const EcPoint& analyzer_public, SecureRandom& rng) {
  assert(crowds.size() == padded_payloads.size());
  const size_t n = crowds.size();
  if (n == 0) {
    return {};
  }
  const P256& curve = P256::Get();

  // Ephemeral scalars: [0, n) seal the inner (analyzer) layer, [n, 2n) the
  // outer (shuffler) layer.
  std::vector<U256> scalars;
  scalars.reserve(2 * n);
  for (size_t i = 0; i < 2 * n; ++i) {
    scalars.push_back(rng.RandomScalar(curve.order()));
  }

  // One batch fixed-base pass (single inversion) for all ephemeral publics.
  std::vector<EcPoint> ephemerals = curve.BatchBaseMult(scalars);

  // ECDH against the two long-lived recipient keys — table-driven when the
  // Encoder has registered them — normalized with one more batch inversion.
  std::vector<P256::Jacobian> shared;
  shared.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    shared.push_back(curve.JacScalarMultCached(analyzer_public, scalars[i]));
  }
  for (size_t i = 0; i < n; ++i) {
    shared.push_back(curve.JacScalarMultCached(shuffler_public, scalars[n + i]));
  }
  std::vector<EcPoint> shared_affine = curve.BatchNormalize(shared);

  std::vector<Bytes> out(n);
  for (size_t i = 0; i < n; ++i) {
    // Honest recipient keys are valid group elements, so ECDH cannot land
    // on the identity (the same invariant HybridSeal asserts).
    assert(!shared_affine[i].infinity && !shared_affine[n + i].infinity);

    HybridBox inner;
    inner.ephemeral_public = curve.Encode(ephemerals[i]);
    SecretBytes inner_key = DeriveSessionKey(Secret<U256>(shared_affine[i].x), ephemerals[i],
                                             analyzer_public, kAnalyzerLayerContext,
                                             kAes128KeySize);
    AesGcm inner_aead(inner_key);
    inner.nonce = rng.RandomNonce();
    inner.sealed = inner_aead.Seal(inner.nonce, padded_payloads[i], /*aad=*/{});

    ShufflerView view;
    view.crowd = crowds[i];
    view.inner_box = inner.Serialize();
    Bytes shuffler_plaintext = view.Serialize();

    HybridBox outer;
    outer.ephemeral_public = curve.Encode(ephemerals[n + i]);
    SecretBytes outer_key = DeriveSessionKey(Secret<U256>(shared_affine[n + i].x),
                                             ephemerals[n + i], shuffler_public,
                                             kShufflerLayerContext, kAes128KeySize);
    AesGcm outer_aead(outer_key);
    outer.nonce = rng.RandomNonce();
    outer.sealed = outer_aead.Seal(outer.nonce, shuffler_plaintext, /*aad=*/{});
    out[i] = outer.Serialize();
  }
  return out;
}

std::optional<ShufflerView> OpenReport(const KeyPair& shuffler_keys, ByteSpan report) {
  auto outer = HybridBox::Deserialize(report);
  if (!outer.has_value()) {
    return std::nullopt;
  }
  auto plaintext = HybridOpen(shuffler_keys, *outer, kShufflerLayerContext);
  if (!plaintext.has_value()) {
    return std::nullopt;
  }
  return ShufflerView::Deserialize(*plaintext);
}

namespace {
// Opens serialized hybrid boxes in fixed 256-box chunks (not pool-derived,
// so results are identical at any thread count), each chunk through one
// HybridOpenBatch — one batched constant-time ECDH — with chunks spread
// across `pool`.  Calls emit(i, plaintext) from the chunk's thread for every
// box that opens.
template <typename Emit>
void BatchOpenBoxes(const KeyPair& keys, const std::vector<Bytes>& wire_boxes,
                    const std::string& context, ThreadPool* pool, const Emit& emit) {
  constexpr size_t kOpenChunk = 256;
  const size_t n = wire_boxes.size();
  const size_t num_chunks = (n + kOpenChunk - 1) / kOpenChunk;
  ParallelFor(pool, num_chunks, [&](size_t c) {
    const size_t begin = c * kOpenChunk;
    const size_t end = std::min(n, begin + kOpenChunk);
    // Boxes that fail to deserialize keep a default-constructed HybridBox,
    // whose empty ephemeral key makes HybridOpenBatch yield nullopt.
    std::vector<HybridBox> boxes(end - begin);
    for (size_t i = begin; i < end; ++i) {
      auto box = HybridBox::Deserialize(wire_boxes[i]);
      if (box.has_value()) {
        boxes[i - begin] = std::move(*box);
      }
    }
    std::vector<std::optional<Bytes>> opened = HybridOpenBatch(keys, boxes, context);
    for (size_t i = begin; i < end; ++i) {
      if (opened[i - begin].has_value()) {
        emit(i, *opened[i - begin]);
      }
    }
  });
}
}  // namespace

std::vector<std::optional<ShufflerView>> BatchOpenReports(const KeyPair& shuffler_keys,
                                                          const std::vector<Bytes>& reports,
                                                          ThreadPool* pool) {
  std::vector<std::optional<ShufflerView>> out(reports.size());
  BatchOpenBoxes(shuffler_keys, reports, kShufflerLayerContext, pool,
                 [&](size_t i, const Bytes& plaintext) {
                   out[i] = ShufflerView::Deserialize(plaintext);
                 });
  return out;
}

std::vector<std::optional<Bytes>> BatchOpenInnerBoxes(const KeyPair& analyzer_keys,
                                                      const std::vector<Bytes>& inner_boxes,
                                                      ThreadPool* pool) {
  std::vector<std::optional<Bytes>> out(inner_boxes.size());
  BatchOpenBoxes(analyzer_keys, inner_boxes, kAnalyzerLayerContext, pool,
                 [&](size_t i, Bytes& plaintext) { out[i] = std::move(plaintext); });
  return out;
}

std::optional<Bytes> OpenInnerBox(const KeyPair& analyzer_keys, ByteSpan inner_box) {
  auto box = HybridBox::Deserialize(inner_box);
  if (!box.has_value()) {
    return std::nullopt;
  }
  return HybridOpen(analyzer_keys, *box, kAnalyzerLayerContext);
}

size_t ReportWireSize(size_t padded_payload_size, CrowdIdMode mode) {
  size_t crowd_bytes = 1 + (mode == CrowdIdMode::kPlainHash ? 8 : 2 * kEcPointEncodedSize);
  size_t inner = HybridBox::SerializedSize(padded_payload_size);
  return HybridBox::SerializedSize(crowd_bytes + inner);
}

}  // namespace prochlo
