// EC-El-Gamal encryption with multiplicative (here: scalar) blinding, the
// cryptographic core of PROCHLO's split-shuffler private thresholding
// (paper §4.3).
//
// Protocol roles:
//   * Encoder: hashes the crowd ID to µ = H(crowd ID) and El Gamal-encrypts
//     it to Shuffler 2's public key h = xG as (rG, rH + µ) — additive
//     notation for the paper's (g^r, h^r · µ).
//   * Shuffler 1: blinds the ciphertext with its secret α: (αrG, α(rH + µ)),
//     then shuffles and forwards.
//   * Shuffler 2: decrypts with x to recover αµ = α·H(crowd ID) — a *blinded*
//     crowd ID that preserves equality, enabling counting and thresholding
//     without learning the ID, and without either shuffler alone being able
//     to mount a dictionary attack.
#ifndef PROCHLO_SRC_CRYPTO_ELGAMAL_H_
#define PROCHLO_SRC_CRYPTO_ELGAMAL_H_

#include <optional>
#include <vector>

#include "src/crypto/keys.h"
#include "src/crypto/p256.h"
#include "src/crypto/random.h"
#include "src/util/bytes.h"
#include "src/util/thread_pool.h"

namespace prochlo {

// An El Gamal ciphertext (c1, c2) = (rG, rH + M).
struct ElGamalCiphertext {
  EcPoint c1;
  EcPoint c2;

  Bytes Serialize() const;  // 130 bytes: both points uncompressed
  static std::optional<ElGamalCiphertext> Deserialize(ByteSpan data);
};

// Encrypts group element `message` to `recipient_public`.
ElGamalCiphertext ElGamalEncrypt(const EcPoint& recipient_public, const EcPoint& message,
                                 SecureRandom& rng);

// Multiplies both components by the blinding secret α:  Dec(Blind(ct, α)) =
// α·M.  Blinding commutes with decryption and preserves equality of
// plaintexts.  α is Shuffler 1's long-term secret — the whole point of the
// split-shuffler design is that Shuffler 2 never learns it — so this runs on
// the constant-time lane (a one-ciphertext ElGamalBlindBatch); the blinded
// output points are public by protocol (they are forwarded to Shuffler 2).
ElGamalCiphertext ElGamalBlind(const ElGamalCiphertext& ciphertext,
                               const Secret<U256>& secret_alpha);

// Re-randomizes a ciphertext without changing the plaintext (adds an
// encryption of the identity), hiding the link between input and output.
ElGamalCiphertext ElGamalRerandomize(const ElGamalCiphertext& ciphertext,
                                     const EcPoint& recipient_public, SecureRandom& rng);

// Decrypts to the (possibly blinded) message point: c2 - x·c1, on the
// constant-time lane (a one-ciphertext ElGamalDecryptBatch; c1 is
// attacker-chosen, x is Shuffler 2's long-term key).  The decrypted point is declassified on return — it is the protocol
// output (a blinded crowd ID that feeds public counting).
EcPoint ElGamalDecrypt(const Secret<U256>& private_key, const ElGamalCiphertext& ciphertext);

// ------------------------------------------------------------ batch fast path
//
// The shuffler re-encrypts every report in a pass (paper §4.1.4, Table 3),
// so these batch variants are the system's hottest crypto surface.  They
// compute in Jacobian form and convert to affine once per fixed-size chunk
// (one field inversion amortized over the chunk — Montgomery's trick), use
// the fixed-base tables for G and for the recipient key, and optionally
// spread chunks across a ThreadPool.  Outputs are identical to calling the
// scalar versions in a loop with the same randomness, regardless of whether
// a pool is supplied.

// Blinds every ciphertext with the same secret α (Shuffler 1's pass), on
// P256::BatchScalarMultSecret: both legs of a chunk's ciphertexts share one
// table-normalization inversion and one constant-time output inversion.
// The blinded ciphertexts are declassified on return (forwarded on the wire).
std::vector<ElGamalCiphertext> ElGamalBlindBatch(const std::vector<ElGamalCiphertext>& cts,
                                                 const Secret<U256>& secret_alpha,
                                                 ThreadPool* pool = nullptr);

// Re-randomizes every ciphertext under `recipient_public`.  Callers that own
// a long-lived recipient key should P256::RegisterFixedBase it once so the
// second leg takes the table-driven path (registration is deliberately not
// done here: the fixed-base cache is never evicted, so the key's owner must
// decide).  Randomness is drawn from `rng` up front, so the result is
// deterministic for a seeded rng even when a pool is used.
std::vector<ElGamalCiphertext> ElGamalRerandomizeBatch(
    const std::vector<ElGamalCiphertext>& cts, const EcPoint& recipient_public,
    SecureRandom& rng, ThreadPool* pool = nullptr);

// Decrypts every ciphertext (Shuffler 2's pass).  Every c1 is a distinct
// ephemeral point, so x·c1 runs on P256::BatchScalarMultSecret's batched
// constant-time ladder; c2 - x·c1 uses the ct point ops and one shared ct
// inversion per chunk.  The decrypted points are declassified on return,
// as ElGamalDecrypt's are.
std::vector<EcPoint> ElGamalDecryptBatch(const Secret<U256>& private_key,
                                         const std::vector<ElGamalCiphertext>& cts,
                                         ThreadPool* pool = nullptr);

// Protocol-named alias: the shuffler-side *open* of the El Gamal layer is
// exactly the batched decrypt above.
inline std::vector<EcPoint> ElGamalOpenBatch(const Secret<U256>& private_key,
                                             const std::vector<ElGamalCiphertext>& cts,
                                             ThreadPool* pool = nullptr) {
  return ElGamalDecryptBatch(private_key, cts, pool);
}

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_ELGAMAL_H_
