// NIST P-256 (secp256r1) elliptic-curve arithmetic, from scratch.
//
// PROCHLO uses P-256 for (paper §4.1.1, §4.3, §5.1):
//   * shuffler/analyzer key pairs and ECDH-derived AES-GCM session keys for
//     the nested report encryption;
//   * ECDSA signatures on simulated SGX attestation quotes;
//   * EC-El-Gamal encryption plus exponent blinding of crowd IDs for the
//     two-shuffler private thresholding.
//
// Scalar multiplication uses Jacobian coordinates kept in the Montgomery
// domain.  Two lanes coexist, split by who may know the scalar
// (docs/constant-time.md has the full policy):
//
//   * The fast paths below (fixed-base tables, width-5 wNAF, batch
//     normalization) are variable-time and serve PUBLIC and EPHEMERAL
//     scalars — per-report keys, re-randomizers, benchmarks.  Lint rule
//     `wnaf-public-only` keeps BatchScalarMult[Jac] out of the rest of src/.
//
//   * `BatchScalarMultSecret` / `BaseMultSecret` / the `*Ct` point ops form
//     the constant-time lane for `Secret<U256>` scalars (long-term private
//     keys and blinding exponents): fixed-window ladder, full-scan masked
//     table reads, branchless conditional negation, no secret-dependent
//     branches anywhere.  Every private-key operation runs on it, batched
//     or single-shot.
//
// Three fast paths serve the shuffler's bulk workloads (§4.1.4, Table 3),
// where millions of scalar multiplications per pass dominate:
//
//   * Fixed-base precomputation — a 4-bit windowed table of multiples of a
//     base point (the generator always; any caller-registered point, e.g. a
//     shuffler's El Gamal key, via RegisterFixedBase).  A table-driven
//     multiplication is 64 mixed additions with no doublings and no
//     per-call table build.
//
//   * Variable-base wNAF — ScalarMult on an arbitrary point (an ephemeral
//     per-report key, which CANNOT be precomputed) recodes the scalar into
//     width-5 signed digits over the odd multiples 1P, 3P, ..., 15P.
//     Signed digits cost nothing extra because Jacobian negation is a free
//     y-flip, and they cut the addition count by a third versus the old
//     fixed 4-bit window.  BatchScalarMult amortizes further: the odd-
//     multiple tables of a whole batch are normalized to affine with one
//     shared inversion, so every wNAF addition is a cheap mixed addition.
//
//   * Batch affine conversion — BatchNormalize converts a whole batch of
//     Jacobian points to affine with ONE field inversion (Montgomery's
//     simultaneous-inversion trick) instead of one inversion per point.
//
// The Jacobian type and Jac* entry points are public for the same reason
// ModField exposes its Montgomery primitives: hot loops compose them and
// convert to affine only at the batch edge.
#ifndef PROCHLO_SRC_CRYPTO_P256_H_
#define PROCHLO_SRC_CRYPTO_P256_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/crypto/bignum.h"
#include "src/crypto/ct.h"
#include "src/util/bytes.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

// Affine point in normal (non-Montgomery) domain; (0,0,infinity=true) is the
// identity.
struct EcPoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static EcPoint Infinity() { return EcPoint{U256::Zero(), U256::Zero(), true}; }

  bool operator==(const EcPoint& other) const {
    if (infinity || other.infinity) {
      return infinity == other.infinity;
    }
    return x == other.x && y == other.y;
  }
};

constexpr size_t kEcPointEncodedSize = 65;  // 0x04 || X || Y
constexpr size_t kEcScalarSize = 32;

// The P-256 group.  Stateless apart from precomputed constants and the
// fixed-base table cache; access the process-wide instance via Get().
class P256 {
 public:
  // Jacobian point with coordinates in the Montgomery domain of field();
  // z == 0 (normal-domain zero) encodes infinity.
  struct Jacobian {
    U256 x, y, z;
  };

  static const P256& Get();

  const ModField& field() const { return fp_; }
  const ModField& scalar_field() const { return fn_; }
  const U256& order() const { return fn_.modulus(); }
  const EcPoint& generator() const { return generator_; }

  bool IsOnCurve(const EcPoint& point) const;

  EcPoint Add(const EcPoint& a, const EcPoint& b) const;
  EcPoint Double(const EcPoint& a) const;
  EcPoint Negate(const EcPoint& a) const;
  // scalar * point; scalar is reduced mod the group order.  Table-driven
  // when `point` is the generator or has been registered via
  // RegisterFixedBase; width-5 wNAF otherwise.
  EcPoint ScalarMult(const EcPoint& point, const U256& scalar) const;
  // scalar * G, always table-driven.
  EcPoint BaseMult(const U256& scalar) const;

  // Precomputes and caches the windowed multiples of `base` so later
  // multiplications by that exact point take the fixed-base fast path.
  // Idempotent and thread-safe; the identity is ignored.  Each table costs
  // 60 KB, so register long-lived keys (shuffler/analyzer public keys), not
  // ephemerals.
  void RegisterFixedBase(const EcPoint& base) const;
  bool HasFixedBase(const EcPoint& base) const;

  // ------------------------------------------------ Jacobian batch API
  Jacobian ToJacobian(const EcPoint& p) const;
  EcPoint FromJacobian(const Jacobian& p) const;
  Jacobian JacAdd(const Jacobian& p, const Jacobian& q) const;
  Jacobian JacDouble(const Jacobian& p) const;
  // Variable-base path: width-5 wNAF over a per-call odd-multiples table.
  Jacobian JacScalarMult(const Jacobian& p, const U256& scalar) const;
  // Plain left-to-right double-and-add, one bit at a time: the pre-wNAF
  // baseline, kept as the obviously-correct reference that the wNAF and
  // batched paths are cross-checked (and benchmarked) against.
  Jacobian JacScalarMultReference(const Jacobian& p, const U256& scalar) const;
  // Fixed-base path for the generator.
  Jacobian JacBaseMult(const U256& scalar) const;
  // Table-driven when `base` is registered, wNAF otherwise.
  Jacobian JacScalarMultCached(const EcPoint& base, const U256& scalar) const;
  // Affine conversion of the whole batch with a single field inversion.
  std::vector<EcPoint> BatchNormalize(const std::vector<Jacobian>& points) const;
  // scalar[i] * G for every i, normalized with a single inversion.
  std::vector<EcPoint> BatchBaseMult(const std::vector<U256>& scalars) const;
  // scalars[i] * points[i] for every i with PUBLIC scalars (variable-time
  // wNAF; private-key batches go through BatchScalarMultSecret).  All wNAF
  // odd-multiple tables are normalized to affine with one shared inversion
  // (so the main loops run on cheap mixed additions), and the results with
  // a second; bit-identical to calling ScalarMult per item.
  std::vector<EcPoint> BatchScalarMult(const std::vector<EcPoint>& points,
                                       const std::vector<U256>& scalars) const;
  // Jacobian-output variant for hot loops that keep composing.
  std::vector<Jacobian> BatchScalarMultJac(const std::vector<EcPoint>& points,
                                           const std::vector<U256>& scalars) const;

  // --------------------------------------------- constant-time secret lane
  //
  // scalar * points[i] for every i with one Secret<> scalar: the bulk
  // private-key ECDH of both report layers and the El Gamal blind/decrypt
  // passes.  Per point, multiples 1P..8P are built with the variable-time
  // ops (the points are public) and all tables of the batch are normalized
  // to affine with one shared inversion.  The ladder is the signed
  // fixed-window (w = 4) recode: 65 windows of 4 doublings, one full-scan
  // masked affine lookup, a masked negation and a masked mixed addition, so
  // control flow, memory addresses and the field-op sequence are independent
  // of the scalar.  Every field op is the inline P-256 field core
  // (src/crypto/p256_field.h).  Outputs are normalized by BatchNormalizeCt.
  // Slot i is bit-identical to JacScalarMultReference(points[i], scalar),
  // identity inputs included.
  std::vector<EcPoint> BatchScalarMultSecret(const std::vector<EcPoint>& points,
                                             const Secret<U256>& secret_scalar) const;
  // Jacobian-output variant for callers that keep composing (the El Gamal
  // decrypt adds c2 before its own normalization).
  std::vector<Jacobian> BatchScalarMultSecretJac(const std::vector<EcPoint>& points,
                                                 const Secret<U256>& secret_scalar) const;
  // Affine conversion of a batch of secret-derived points: Montgomery's
  // trick with MontMulCt and one Fermat MontInvCt.  Only each slot's
  // point-at-infinity bit is declassified; the coordinates keep their taint.
  std::vector<EcPoint> BatchNormalizeCt(const std::vector<Jacobian>& points) const;
  // Fixed-base ladder over the generator table: same discipline (every
  // window's 15 entries are scanned; a zero digit selects the identity via
  // masks).  Used by long-term key generation.
  Jacobian JacBaseMultSecret(const Secret<U256>& secret_scalar) const;
  // Single-point forms (ScalarMultSecret is a batch of one); the
  // point-at-infinity bit of the result is declassified (it is public
  // protocol state), the coordinates keep their taint until a caller
  // declassifies them.
  EcPoint ScalarMultSecret(const EcPoint& point, const Secret<U256>& secret_scalar) const;
  EcPoint BaseMultSecret(const Secret<U256>& secret_scalar) const;
  EcPoint FromJacobianCt(const Jacobian& p) const;
  // Branchless point ops: compute the generic formula unconditionally, then
  // mask in the exceptional cases (identity operands, doubling).  Safe for
  // secret-derived operands.
  Jacobian JacAddCt(const Jacobian& p, const Jacobian& q) const;
  Jacobian JacDoubleCt(const Jacobian& p) const;

  // Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes); the identity
  // encodes as a single 0x00 byte.
  Bytes Encode(const EcPoint& point) const;
  std::optional<EcPoint> Decode(ByteSpan encoded) const;

  // Recovers y from x and a parity bit; used by hash-to-curve.
  std::optional<EcPoint> LiftX(const U256& x, bool y_odd) const;

 private:
  // Affine point in the Montgomery domain (implicit z = 1).
  struct AffineMont {
    U256 x, y;
  };
  // win[w][d-1] = d * 2^(4w) * base for d in 1..15: one 4-bit window per
  // scalar nibble, so a multiplication is at most 64 mixed additions.
  struct FixedBaseTable {
    std::array<std::array<AffineMont, 15>, 64> win;
  };

  P256();

  FixedBaseTable BuildFixedBaseTable(const EcPoint& base) const;
  Jacobian JacFixedMult(const FixedBaseTable& table, const U256& scalar) const;
  // Mixed addition p + (qx, qy, 1), all in the Montgomery domain.
  Jacobian JacAddAffine(const Jacobian& p, const AffineMont& q) const;
  // Its branchless twin for the secret lane: q_inf (a mask) says q is the
  // identity; patch_double (public) adds the masked p == q case.
  Jacobian JacAddAffineCt(const Jacobian& p, const AffineMont& q, uint64_t q_inf,
                          bool patch_double) const;
  // Rewrites every finite point to (affine x, affine y, 1), Montgomery
  // domain, sharing one inversion across the batch.
  void NormalizeToAffineMont(std::vector<Jacobian>& points) const;
  const FixedBaseTable* FindTable(const EcPoint& base) const;
  // Cheap 64-bit mix of the point's coordinates; collisions are resolved by
  // comparing the stored point (no per-lookup heap allocation, unlike a
  // string key).
  static uint64_t TableKey(const EcPoint& base);

  ModField fp_;
  ModField fn_;
  EcPoint generator_;
  FixedBaseTable gen_table_;
  mutable SharedMutex tables_mu_;
  mutable std::unordered_map<uint64_t,
                             std::vector<std::pair<EcPoint, std::unique_ptr<FixedBaseTable>>>>
      tables_ GUARDED_BY(tables_mu_);
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_P256_H_
