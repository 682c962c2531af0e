#include "src/crypto/keys.h"

#include <cassert>

#include "src/crypto/hmac.h"
#include "src/util/serialization.h"

namespace prochlo {

KeyPair KeyPair::Generate(SecureRandom& rng) {
  const P256& curve = P256::Get();
  Secret<U256> priv = rng.RandomSecretScalar(curve.order());
  // BaseMultSecret: the one-off ladder cost is irrelevant at key
  // generation, and long-term keys never touch the variable-time paths.
  return KeyPair{priv, curve.BaseMultSecret(priv)};
}

std::optional<Secret<U256>> EcdhSharedSecret(const Secret<U256>& private_key,
                                             const EcPoint& peer_public) {
  const P256& curve = P256::Get();
  EcPoint shared = curve.ScalarMultSecret(peer_public, private_key);
  // The infinity flag is declassified by BatchNormalizeCt: it is public
  // protocol state (an invalid peer key), not key-dependent data.
  if (shared.infinity) {  // lint:allow(secret-branch)
    return std::nullopt;
  }
  return Secret<U256>(shared.x);
}

std::vector<std::optional<Secret<U256>>> EcdhSharedSecretBatch(
    const Secret<U256>& private_key, const std::vector<EcPoint>& peer_publics) {
  std::vector<EcPoint> shared = P256::Get().BatchScalarMultSecret(peer_publics, private_key);
  std::vector<std::optional<Secret<U256>>> out(peer_publics.size());
  for (size_t i = 0; i < peer_publics.size(); ++i) {
    // The infinity flag is declassified by BatchNormalizeCt.
    if (!shared[i].infinity) {  // lint:allow(secret-branch)
      out[i] = Secret<U256>(shared[i].x);
    }
  }
  return out;
}

std::vector<std::optional<Bytes>> HybridOpenBatch(const KeyPair& recipient,
                                                  const std::vector<HybridBox>& boxes,
                                                  const std::string& context) {
  const P256& curve = P256::Get();
  // Decode every ephemeral key first; undecodable boxes keep the identity
  // placeholder, which the batched ECDH maps to nullopt.
  std::vector<EcPoint> ephemerals(boxes.size(), EcPoint::Infinity());
  std::vector<uint8_t> decoded(boxes.size(), 0);
  for (size_t i = 0; i < boxes.size(); ++i) {
    auto point = curve.Decode(boxes[i].ephemeral_public);
    if (point.has_value() && !point->infinity) {
      ephemerals[i] = *point;
      decoded[i] = 1;
    }
  }
  std::vector<std::optional<Secret<U256>>> shared =
      EcdhSharedSecretBatch(recipient.private_key, ephemerals);
  std::vector<std::optional<Bytes>> out(boxes.size());
  for (size_t i = 0; i < boxes.size(); ++i) {
    if (decoded[i] == 0 || !shared[i].has_value()) {
      continue;
    }
    SecretBytes key = DeriveSessionKey(*shared[i], ephemerals[i], recipient.public_key, context,
                                       kAes128KeySize);
    AesGcm aead(key);
    out[i] = aead.Open(boxes[i].nonce, boxes[i].sealed, /*aad=*/{});
  }
  return out;
}

SecretBytes DeriveSessionKey(const Secret<U256>& shared_x, const EcPoint& ephemeral_public,
                             const EcPoint& recipient_public, const std::string& context,
                             size_t key_size) {
  const P256& curve = P256::Get();
  // SHA-256/HMAC are add/xor/rotate only — no secret-indexed tables, no
  // secret-dependent branches — so Expose() (not Declassify) is correct
  // here: the taint survives the KDF and the derived key comes back out
  // wrapped.  The poison harness traces ECDH -> HKDF end to end on this.
  auto ikm = shared_x.Expose().ToBytes();
  Writer info;
  info.PutString(context);
  info.PutLengthPrefixed(curve.Encode(ephemeral_public));
  info.PutLengthPrefixed(curve.Encode(recipient_public));
  return SecretBytes(Hkdf(/*salt=*/{}, ByteSpan(ikm.data(), ikm.size()), info.data(), key_size));
}

Bytes HybridBox::Serialize() const {
  Writer w;
  w.PutBytes(ephemeral_public);
  w.PutBytes(ByteSpan(nonce.data(), nonce.size()));
  w.PutBytes(sealed);
  return w.Take();
}

std::optional<HybridBox> HybridBox::Deserialize(ByteSpan data) {
  if (data.size() < kEcPointEncodedSize + kGcmNonceSize + kGcmTagSize) {
    return std::nullopt;
  }
  HybridBox box;
  box.ephemeral_public.assign(data.begin(), data.begin() + kEcPointEncodedSize);
  std::copy(data.begin() + kEcPointEncodedSize,
            data.begin() + kEcPointEncodedSize + kGcmNonceSize, box.nonce.begin());
  box.sealed.assign(data.begin() + kEcPointEncodedSize + kGcmNonceSize, data.end());
  return box;
}

HybridBox HybridSeal(const EcPoint& recipient_public, ByteSpan plaintext,
                     const std::string& context, SecureRandom& rng) {
  const P256& curve = P256::Get();
  // The ephemeral scalar is one-shot: generated, used for a single ECDH,
  // and destroyed before any attacker-controlled input is processed, so a
  // timing probe has nothing to average over.  It therefore stays on the
  // variable-time fast paths (fixed-base table for the public key, wNAF for
  // the shared point) rather than KeyPair::Generate's ct ladder — report
  // sealing is the client hot path and the ladders cost more per report
  // (docs/constant-time.md, "ephemeral scalars").
  U256 eph = rng.RandomScalar(curve.order());
  EcPoint eph_public = curve.BaseMult(eph);
  EcPoint shared = curve.ScalarMult(recipient_public, eph);
  // Honest recipients' public keys are valid group elements, so ECDH cannot
  // land on the identity; the assert documents the invariant.
  assert(!shared.infinity);
  SecretBytes key = DeriveSessionKey(Secret<U256>(shared.x), eph_public, recipient_public,
                                     context, kAes128KeySize);
  AesGcm aead(key);
  HybridBox box;
  box.ephemeral_public = curve.Encode(eph_public);
  box.nonce = rng.RandomNonce();
  box.sealed = aead.Seal(box.nonce, plaintext, /*aad=*/{});
  return box;
}

std::optional<Bytes> HybridOpen(const KeyPair& recipient, const HybridBox& box,
                                const std::string& context) {
  const P256& curve = P256::Get();
  auto ephemeral_public = curve.Decode(box.ephemeral_public);
  if (!ephemeral_public.has_value()) {
    return std::nullopt;
  }
  auto shared = EcdhSharedSecret(recipient.private_key, *ephemeral_public);
  // Engagement mirrors the declassified point-at-infinity flag.
  if (!shared.has_value()) {  // lint:allow(secret-branch)
    return std::nullopt;
  }
  SecretBytes key = DeriveSessionKey(*shared, *ephemeral_public, recipient.public_key, context,
                                     kAes128KeySize);
  AesGcm aead(key);
  return aead.Open(box.nonce, box.sealed, /*aad=*/{});
}

}  // namespace prochlo
