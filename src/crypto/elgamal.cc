#include "src/crypto/elgamal.h"

#include "src/crypto/ct.h"

namespace prochlo {

Bytes ElGamalCiphertext::Serialize() const {
  const P256& curve = P256::Get();
  Bytes out = curve.Encode(c1);
  Bytes c2_bytes = curve.Encode(c2);
  out.insert(out.end(), c2_bytes.begin(), c2_bytes.end());
  return out;
}

std::optional<ElGamalCiphertext> ElGamalCiphertext::Deserialize(ByteSpan data) {
  const P256& curve = P256::Get();
  if (data.size() != 2 * kEcPointEncodedSize) {
    return std::nullopt;
  }
  auto c1 = curve.Decode(data.subspan(0, kEcPointEncodedSize));
  auto c2 = curve.Decode(data.subspan(kEcPointEncodedSize, kEcPointEncodedSize));
  if (!c1.has_value() || !c2.has_value()) {
    return std::nullopt;
  }
  return ElGamalCiphertext{*c1, *c2};
}

ElGamalCiphertext ElGamalEncrypt(const EcPoint& recipient_public, const EcPoint& message,
                                 SecureRandom& rng) {
  const P256& curve = P256::Get();
  U256 r = rng.RandomScalar(curve.order());
  EcPoint c1 = curve.BaseMult(r);
  EcPoint c2 = curve.Add(curve.ScalarMult(recipient_public, r), message);
  return ElGamalCiphertext{c1, c2};
}

ElGamalCiphertext ElGamalBlind(const ElGamalCiphertext& ciphertext,
                               const Secret<U256>& secret_alpha) {
  return ElGamalBlindBatch({ciphertext}, secret_alpha)[0];
}

ElGamalCiphertext ElGamalRerandomize(const ElGamalCiphertext& ciphertext,
                                     const EcPoint& recipient_public, SecureRandom& rng) {
  const P256& curve = P256::Get();
  U256 s = rng.RandomScalar(curve.order());
  return ElGamalCiphertext{curve.Add(ciphertext.c1, curve.BaseMult(s)),
                           curve.Add(ciphertext.c2, curve.ScalarMult(recipient_public, s))};
}

EcPoint ElGamalDecrypt(const Secret<U256>& private_key, const ElGamalCiphertext& ciphertext) {
  return ElGamalDecryptBatch(private_key, {ciphertext})[0];
}

namespace {

// Chunk size for the one-inversion-per-chunk affine conversion.  Fixed (not
// derived from the pool) so results are bit-identical with and without
// threading.
constexpr size_t kBatchChunk = 128;

// Runs fn(begin, end) over [0, n) in kBatchChunk-sized chunks, on the pool
// when one is supplied.
void ForEachChunk(size_t n, ThreadPool* pool,
                  const std::function<void(size_t, size_t)>& fn) {
  size_t num_chunks = (n + kBatchChunk - 1) / kBatchChunk;
  ParallelFor(pool, num_chunks,
              [&](size_t c) { fn(c * kBatchChunk, std::min(n, (c + 1) * kBatchChunk)); });
}

}  // namespace

std::vector<ElGamalCiphertext> ElGamalBlindBatch(const std::vector<ElGamalCiphertext>& cts,
                                                 const Secret<U256>& secret_alpha,
                                                 ThreadPool* pool) {
  const P256& curve = P256::Get();
  std::vector<ElGamalCiphertext> out(cts.size());
  ForEachChunk(cts.size(), pool, [&](size_t begin, size_t end) {
    // Both legs of every ciphertext through one batched ct ladder: all the
    // chunk's tables share one affine-normalization inversion, and all the
    // results share one ct inversion.
    std::vector<EcPoint> points;
    points.reserve(2 * (end - begin));
    for (size_t i = begin; i < end; ++i) {
      points.push_back(cts[i].c1);
      points.push_back(cts[i].c2);
    }
    std::vector<EcPoint> blinded = curve.BatchScalarMultSecret(points, secret_alpha);
    // The blinded ciphertexts are forwarded to Shuffler 2 — public by protocol.
    ct::UnpoisonObject(blinded);  // ct:declassify(blinded ciphertext is forwarded on the wire)
    for (size_t i = begin; i < end; ++i) {
      out[i] = ElGamalCiphertext{blinded[2 * (i - begin)], blinded[2 * (i - begin) + 1]};
    }
  });
  return out;
}

std::vector<ElGamalCiphertext> ElGamalRerandomizeBatch(
    const std::vector<ElGamalCiphertext>& cts, const EcPoint& recipient_public,
    SecureRandom& rng, ThreadPool* pool) {
  const P256& curve = P256::Get();
  // Draw all randomness up front, sequentially, so the output does not
  // depend on the chunk execution order.
  std::vector<U256> s(cts.size());
  for (auto& scalar : s) {
    scalar = rng.RandomScalar(curve.order());
  }
  std::vector<ElGamalCiphertext> out(cts.size());
  ForEachChunk(cts.size(), pool, [&](size_t begin, size_t end) {
    std::vector<P256::Jacobian> jacs;
    jacs.reserve(2 * (end - begin));
    for (size_t i = begin; i < end; ++i) {
      jacs.push_back(curve.JacAdd(curve.ToJacobian(cts[i].c1), curve.JacBaseMult(s[i])));
      jacs.push_back(curve.JacAdd(curve.ToJacobian(cts[i].c2),
                                  curve.JacScalarMultCached(recipient_public, s[i])));
    }
    std::vector<EcPoint> points = curve.BatchNormalize(jacs);
    for (size_t i = begin; i < end; ++i) {
      out[i] = ElGamalCiphertext{points[2 * (i - begin)], points[2 * (i - begin) + 1]};
    }
  });
  return out;
}

std::vector<EcPoint> ElGamalDecryptBatch(const Secret<U256>& private_key,
                                         const std::vector<ElGamalCiphertext>& cts,
                                         ThreadPool* pool) {
  const P256& curve = P256::Get();
  const ModField& f = curve.field();
  std::vector<EcPoint> out(cts.size());
  ForEachChunk(cts.size(), pool, [&](size_t begin, size_t end) {
    // x*c1 for the whole chunk on the batched ct ladder, then c2 - x*c1 with
    // the ct point ops, and one shared ct inversion for the affine results.
    std::vector<EcPoint> c1s;
    c1s.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      c1s.push_back(cts[i].c1);
    }
    std::vector<P256::Jacobian> jacs = curve.BatchScalarMultSecretJac(c1s, private_key);
    for (size_t i = begin; i < end; ++i) {
      P256::Jacobian& s = jacs[i - begin];
      s.y = f.NegCt(s.y);  // negation is domain-agnostic
      s = curve.JacAddCt(curve.ToJacobian(cts[i].c2), s);
    }
    std::vector<EcPoint> points = curve.BatchNormalizeCt(jacs);
    // The decrypted points ARE the protocol output (blinded crowd IDs that
    // feed public thresholding).
    ct::UnpoisonObject(points);  // ct:declassify(decrypted point is the protocol output)
    for (size_t i = begin; i < end; ++i) {
      out[i] = points[i - begin];
    }
  });
  return out;
}

}  // namespace prochlo
