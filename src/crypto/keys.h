// P-256 key pairs, ECDH key agreement, and the HKDF key schedule used by the
// nested report encryption (paper §5.1: "NIST P-256 asymmetric key pairs used
// to derive AES-128 GCM symmetric keys").
//
// Each layer of a PROCHLO report is a "hybrid" box: an ephemeral sender key
// pair, ECDH against the recipient's static public key, HKDF to an AES-128
// key, AES-GCM over the payload.
#ifndef PROCHLO_SRC_CRYPTO_KEYS_H_
#define PROCHLO_SRC_CRYPTO_KEYS_H_

#include <optional>

#include "src/crypto/p256.h"
#include "src/crypto/random.h"
#include "src/util/bytes.h"

namespace prochlo {

// A long-term key pair.  The private scalar lives in the Secret<> wrapper
// from birth: generation runs on the constant-time ladder, and every API
// that consumes it stays on the ct lane (see docs/constant-time.md).
struct KeyPair {
  Secret<U256> private_key;
  EcPoint public_key;

  static KeyPair Generate(SecureRandom& rng);
};

// Raw ECDH: X coordinate of private * peer_public, computed on the
// constant-time ladder (the peer point is attacker-chosen, so this is
// exactly the surface a timing probe would target).  The shared X stays
// Secret<> until it is consumed by the key schedule.  Returns nullopt for
// the identity result (never happens for honest keys; the infinity flag is
// the one declassified bit).
std::optional<Secret<U256>> EcdhSharedSecret(const Secret<U256>& private_key,
                                             const EcPoint& peer_public);

// Batched ECDH against many peers with one private key — the private-key
// half of both report layers' opens (the shuffler's outer layer and the
// analyzer's inner one), where every peer is a distinct ephemeral key that
// cannot be precomputed.  Runs on P256::BatchScalarMultSecret: the
// constant-time ladder, with the per-point tables and the results each
// normalized through one shared inversion.  Slot i matches
// EcdhSharedSecret(private_key, peer_publics[i]) exactly, including nullopt
// on the identity.
std::vector<std::optional<Secret<U256>>> EcdhSharedSecretBatch(
    const Secret<U256>& private_key, const std::vector<EcPoint>& peer_publics);

// Derives a symmetric key of `key_size` bytes from an ECDH secret, binding
// both parties' public keys and a context label into the KDF.  HMAC/HKDF
// are pure arithmetic (no key-indexed lookups), so the schedule keeps the
// taint end-to-end; the result is declassified only at the AesGcm boundary.
SecretBytes DeriveSessionKey(const Secret<U256>& shared_x, const EcPoint& ephemeral_public,
                             const EcPoint& recipient_public, const std::string& context,
                             size_t key_size);

// One hybrid-encryption layer: ephemeral public key || nonce || AES-GCM box.
struct HybridBox {
  Bytes ephemeral_public;  // 65-byte SEC1 encoding
  GcmNonce nonce;
  Bytes sealed;  // ciphertext || tag

  Bytes Serialize() const;
  static std::optional<HybridBox> Deserialize(ByteSpan data);

  // Wire size for a plaintext of n bytes.
  static constexpr size_t SerializedSize(size_t n) {
    return kEcPointEncodedSize + kGcmNonceSize + n + kGcmTagSize;
  }
};

// Seals `plaintext` to `recipient_public` under `context`.
HybridBox HybridSeal(const EcPoint& recipient_public, ByteSpan plaintext,
                     const std::string& context, SecureRandom& rng);

// Opens a box with the recipient's private key; nullopt on any failure.
std::optional<Bytes> HybridOpen(const KeyPair& recipient, const HybridBox& box,
                                const std::string& context);

// Opens a whole batch of boxes, sharing the batched ECDH across all of them
// (the per-box public-key operation dominates the open; see
// EcdhSharedSecretBatch).  Slot i is nullopt exactly when
// HybridOpen(recipient, boxes[i], context) would fail.
std::vector<std::optional<Bytes>> HybridOpenBatch(const KeyPair& recipient,
                                                  const std::vector<HybridBox>& boxes,
                                                  const std::string& context);

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_KEYS_H_
