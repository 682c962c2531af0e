// Constant-time lane cross-checks.
//
// Three layers:
//   * the ct.h mask/select primitives themselves, over every mask edge case
//     (zero, one, all-ones, high-bit-only) and out-of-range table indices;
//   * the ModField operations, which are one branch-free implementation for
//     both lanes, over both P-256 fields (the inline P-256 field core of the
//     prime field and the generic CIOS of the scalar field), checked against the
//     schoolbook MulWide + bit-serial ReduceWide reference and near-modulus
//     operands;
//   * the point ops and the ScalarMultSecret / BatchScalarMultSecret /
//     JacBaseMultSecret ladders, bit-identical to JacScalarMultReference over
//     the edge-scalar set (0, 1, 2, n-1, n, n+1, 2^255, 2^255+1), n-1..n-16,
//     1k random scalars, batches mixing identities, repeats and P/-P, and
//     every batch size from 1 to 9 with the identity at every position.
//
// These are functional checks; the "no secret-dependent branches" property
// is checked by scripts/lint.py (statically) and tools/ct_harness.cc under
// valgrind/MSan (dynamically).
#include <gtest/gtest.h>

#include <type_traits>

#include "src/crypto/bignum.h"
#include "src/crypto/ct.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/hash_to_curve.h"
#include "src/crypto/hmac.h"
#include "src/crypto/keys.h"
#include "src/crypto/p256.h"
#include "src/crypto/random.h"

namespace prochlo {
namespace {

// ------------------------------------------------------------- primitives

TEST(CtPrimitiveTest, Masks) {
  EXPECT_EQ(ct::NonZeroMask(0), 0u);
  EXPECT_EQ(ct::NonZeroMask(1), ~0ull);
  EXPECT_EQ(ct::NonZeroMask(~0ull), ~0ull);
  EXPECT_EQ(ct::NonZeroMask(1ull << 63), ~0ull);  // high bit only
  EXPECT_EQ(ct::NonZeroMask(0x8000000000000001ull), ~0ull);

  EXPECT_EQ(ct::IsZeroMask(0), ~0ull);
  EXPECT_EQ(ct::IsZeroMask(42), 0u);
  EXPECT_EQ(ct::IsZeroMask(1ull << 63), 0u);

  EXPECT_EQ(ct::EqMask(uint64_t{7}, uint64_t{7}), ~0ull);
  EXPECT_EQ(ct::EqMask(uint64_t{7}, uint64_t{8}), 0u);
  EXPECT_EQ(ct::EqMask(~0ull, ~0ull), ~0ull);
  EXPECT_EQ(ct::EqMask(0ull, ~0ull), 0u);

  U256 a = U256::FromHex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  EXPECT_EQ(ct::IsZeroMask(U256::Zero()), ~0ull);
  EXPECT_EQ(ct::IsZeroMask(a), 0u);
  EXPECT_EQ(ct::EqMask(a, a), ~0ull);
  U256 b = a;
  b.limbs[3] ^= 1ull << 63;  // single-bit difference in the top limb
  EXPECT_EQ(ct::EqMask(a, b), 0u);
}

TEST(CtPrimitiveTest, SelectAndSwap) {
  EXPECT_EQ(ct::CtSelect(~0ull, uint64_t{11}, uint64_t{22}), 11u);
  EXPECT_EQ(ct::CtSelect(uint64_t{0}, uint64_t{11}, uint64_t{22}), 22u);

  U256 a = U256::FromU64(111);
  U256 b = U256::FromU64(222);
  EXPECT_EQ(ct::CtSelect(~0ull, a, b), a);
  EXPECT_EQ(ct::CtSelect(uint64_t{0}, a, b), b);

  U256 x = a;
  U256 y = b;
  ct::CtSwap(uint64_t{0}, x, y);
  EXPECT_EQ(x, a);
  EXPECT_EQ(y, b);
  ct::CtSwap(~0ull, x, y);
  EXPECT_EQ(x, b);
  EXPECT_EQ(y, a);

  uint64_t u = 5, v = 9;
  ct::CtSwap(~0ull, u, v);
  EXPECT_EQ(u, 9u);
  EXPECT_EQ(v, 5u);
}

TEST(CtPrimitiveTest, TableLookup) {
  U256 table[9];
  for (uint64_t i = 0; i < 9; ++i) {
    table[i] = U256::FromU64(i * 1000 + 7);
  }
  for (uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(ct::CtTableLookup(table, 9, i), table[i]) << "index " << i;
  }
  // Out of range selects nothing and yields zero rather than reading OOB.
  EXPECT_EQ(ct::CtTableLookup(table, 9, 9), U256::Zero());
  EXPECT_EQ(ct::CtTableLookup(table, 9, ~0ull), U256::Zero());
}

TEST(CtPrimitiveTest, CtEq) {
  Bytes a = ToBytes("sixteen-byte-tag");
  Bytes b = a;
  EXPECT_TRUE(ct::CtEq(a, b));
  b[0] ^= 1;  // first byte
  EXPECT_FALSE(ct::CtEq(a, b));
  b = a;
  b.back() ^= 0x80;  // last byte, high bit
  EXPECT_FALSE(ct::CtEq(a, b));
  Bytes shorter(a.begin(), a.end() - 1);
  EXPECT_FALSE(ct::CtEq(a, shorter));
  EXPECT_TRUE(ct::CtEq(ByteSpan(), ByteSpan()));
}

// Secret<T> compiles away its footguns: no comparison, no bool conversion,
// no indexing.  (Checked at compile time; the runtime body is trivial.)
TEST(CtPrimitiveTest, SecretDeletesFootguns) {
  static_assert(!std::equality_comparable<Secret<U256>>);
  static_assert(!std::is_constructible_v<bool, Secret<U256>>);
  static_assert(!std::is_convertible_v<Secret<U256>, bool>);
  Secret<U256> s(U256::FromU64(5));
  EXPECT_EQ(s.Expose().limbs[0], 5u);
  EXPECT_EQ(s.Declassify().limbs[0], 5u);
}

// ------------------------------------------------------------- field ops

// The wide reference: (value mod m) by MulWide + the bit-serial ReduceWide,
// which share no code with the Montgomery multiply or the masked add/sub.
U256 WideMod(const ModField& f, const U256& lo, uint64_t carry = 0) {
  return f.ReduceWide({lo.limbs[0], lo.limbs[1], lo.limbs[2], lo.limbs[3], carry, 0, 0, 0});
}

// Operands at the edges of the field: the largest residues (whose sums
// carry out of the top limb), m - 2^32 and m - 2^64 (borrows across the
// sparse middle limbs of the P-256 prime), values just under a limb
// boundary, and the halves of m (whose sum lands exactly on m or m + 1).
std::vector<U256> NearModulusOperands(const ModField& f) {
  const U256& m = f.modulus();
  auto minus = [&](const U256& v) {
    U256 out;
    SubWithBorrow(m, v, &out);
    return out;
  };
  U256 two_32 = U256::FromU64(1ull << 32);
  U256 two_64{{0, 1, 0, 0}};
  U256 two_255{{0, 0, 0, 1ull << 63}};
  U256 top_limb_just_below{{~0ull, ~0ull, ~0ull, m.limbs[3] - 1}};
  U256 half_down = ShiftRight1(m);  // (m - 1) / 2
  U256 half_up;
  AddWithCarry(half_down, U256::One(), &half_up);  // (m + 1) / 2
  return {minus(U256::One()), minus(U256::FromU64(2)), minus(two_32), minus(two_64),
          two_255, top_limb_just_below, half_down, half_up};
}

void CheckFieldAgainstWideReference(const ModField& f, const char* label) {
  SecureRandom rng(ToBytes(std::string("ct-field-") + label));
  const U256 r_mod_m = f.ReduceWide({0, 0, 0, 0, 1, 0, 0, 0});  // 2^256 mod m
  std::vector<U256> operands = {U256::Zero(), U256::One(), U256::FromU64(2)};
  for (const U256& v : NearModulusOperands(f)) {
    operands.push_back(v);
  }
  for (int i = 0; i < 48; ++i) {
    operands.push_back(rng.RandomScalar(f.modulus()));
  }
  for (const U256& a : operands) {
    for (const U256& b : operands) {
      U256 sum;
      uint64_t carry = AddWithCarry(a, b, &sum);
      ASSERT_EQ(f.Add(a, b), WideMod(f, sum, carry))
          << label << " " << a.ToHex() << " + " << b.ToHex();
      // a - b = a + (m - b), with m - b in (0, m].
      U256 m_minus_b;
      SubWithBorrow(f.modulus(), b, &m_minus_b);
      carry = AddWithCarry(a, m_minus_b, &sum);
      ASSERT_EQ(f.Sub(a, b), WideMod(f, sum, carry))
          << label << " " << a.ToHex() << " - " << b.ToHex();
      // MontMul(a, b) = a*b/R, so MontMul(a, b) * R == a*b (mod m).
      ASSERT_EQ(f.ReduceWide(MulWide(f.MontMul(a, b), r_mod_m)), f.ReduceWide(MulWide(a, b)))
          << label << " " << a.ToHex() << " * " << b.ToHex();
    }
    U256 m_minus_a;
    SubWithBorrow(f.modulus(), a, &m_minus_a);
    EXPECT_EQ(f.Neg(a), WideMod(f, m_minus_a)) << label << " a=" << a.ToHex();
    EXPECT_EQ(f.ReduceWide(MulWide(f.MontSqr(a), r_mod_m)), f.ReduceWide(MulWide(a, a)))
        << label << " a=" << a.ToHex();
    EXPECT_EQ(f.ToMont(a), f.ReduceWide(MulWide(a, r_mod_m))) << label << " a=" << a.ToHex();
    EXPECT_EQ(f.FromMont(f.ToMont(a)), a) << label;
    // MontInvCt: Fermat in the Montgomery domain vs the xGCD Inv.
    U256 inv_ct = f.FromMont(f.MontInvCt(f.ToMont(a)));
    EXPECT_EQ(inv_ct, f.Inv(a)) << label << " a=" << a.ToHex();
    // ReduceOnceCt on a and a + m (both below 2m).
    EXPECT_EQ(f.ReduceOnceCt(a), a) << label;
    U256 shifted;
    if (AddWithCarry(a, f.modulus(), &shifted) == 0) {
      EXPECT_EQ(f.ReduceOnceCt(shifted), a) << label;
    }
  }
}

TEST(CtFieldTest, PrimeFieldMatchesVariableTime) {
  CheckFieldAgainstWideReference(P256::Get().field(), "fp");  // P-256 field core
}

TEST(CtFieldTest, ScalarFieldMatchesVariableTime) {
  CheckFieldAgainstWideReference(P256::Get().scalar_field(), "fn");  // generic CIOS
}

// ------------------------------------------------------------- point ops

std::vector<U256> CtEdgeScalars() {
  const P256& curve = P256::Get();
  U256 n_minus_1;
  SubWithBorrow(curve.order(), U256::One(), &n_minus_1);
  U256 n_plus_1;
  AddWithCarry(curve.order(), U256::One(), &n_plus_1);
  U256 two_255;
  two_255.limbs[3] = 1ull << 63;
  U256 two_255_plus_1 = two_255;
  two_255_plus_1.limbs[0] = 1;
  return {U256::Zero(), U256::One(), U256::FromU64(2),    n_minus_1,
          curve.order(), n_plus_1,   two_255,             two_255_plus_1};
}

EcPoint ReferenceMult(const EcPoint& point, const U256& scalar) {
  const P256& curve = P256::Get();
  return curve.FromJacobian(curve.JacScalarMultReference(curve.ToJacobian(point), scalar));
}

TEST(CtPointTest, AddAndDoubleMatchVariableTime) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-point-ops"));
  P256::Jacobian p = curve.JacBaseMult(rng.RandomScalar(curve.order()));
  P256::Jacobian q = curve.JacBaseMult(rng.RandomScalar(curve.order()));
  P256::Jacobian inf = curve.ToJacobian(EcPoint::Infinity());

  auto same = [&](const P256::Jacobian& a, const P256::Jacobian& b) {
    EXPECT_EQ(curve.FromJacobian(a), curve.FromJacobian(b));
  };
  // Generic addition.
  same(curve.JacAddCt(p, q), curve.JacAdd(p, q));
  // Doubling, both via JacDoubleCt and via the masked patch in JacAddCt.
  same(curve.JacDoubleCt(p), curve.JacDouble(p));
  same(curve.JacAddCt(p, p), curve.JacDouble(p));
  // Same point under different Jacobian representations (scaled coords) must
  // still hit the doubling patch.
  P256::Jacobian p_scaled = p;
  U256 lambda = curve.field().ToMont(U256::FromU64(3));
  U256 lambda2 = curve.field().MontSqr(lambda);
  p_scaled.x = curve.field().MontMul(p.x, lambda2);
  p_scaled.y = curve.field().MontMul(p.y, curve.field().MontMul(lambda2, lambda));
  p_scaled.z = curve.field().MontMul(p.z, lambda);
  same(curve.JacAddCt(p, p_scaled), curve.JacDouble(p));
  // p + (-p) is the identity.
  P256::Jacobian neg_p = p;
  neg_p.y = curve.field().Neg(neg_p.y);
  EXPECT_TRUE(curve.FromJacobian(curve.JacAddCt(p, neg_p)).infinity);
  // Identity operands.
  same(curve.JacAddCt(p, inf), p);
  same(curve.JacAddCt(inf, q), q);
  EXPECT_TRUE(curve.FromJacobian(curve.JacAddCt(inf, inf)).infinity);
  EXPECT_TRUE(curve.FromJacobian(curve.JacDoubleCt(inf)).infinity);
}

TEST(CtScalarMultTest, EdgeScalarsMatchReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-ladder-edges"));
  EcPoint random_base = curve.BaseMult(rng.RandomScalar(curve.order()));
  for (const EcPoint& base : {curve.generator(), random_base}) {
    for (const U256& k : CtEdgeScalars()) {
      EcPoint ct_result = curve.ScalarMultSecret(base, Secret<U256>(k));
      EXPECT_EQ(ct_result, ReferenceMult(base, k)) << "scalar " << k.ToHex();
    }
  }
  // Identity in, identity out; k = 0 and k = n are the identity.
  EXPECT_TRUE(curve.ScalarMultSecret(EcPoint::Infinity(), Secret<U256>(U256::FromU64(7))).infinity);
  EXPECT_TRUE(curve.ScalarMultSecret(curve.generator(), Secret<U256>(U256::Zero())).infinity);
  EXPECT_TRUE(curve.ScalarMultSecret(curve.generator(), Secret<U256>(curve.order())).infinity);
}

TEST(CtScalarMultTest, OneThousandRandomScalarsMatchReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-ladder-1k"));
  EcPoint base = curve.BaseMult(rng.RandomScalar(curve.order()));
  for (int i = 0; i < 1000; ++i) {
    U256 k = rng.RandomScalar(curve.order());
    EcPoint ct_result = curve.ScalarMultSecret(base, Secret<U256>(k));
    ASSERT_EQ(ct_result, ReferenceMult(base, k)) << "scalar " << k.ToHex();
  }
}

// ------------------------------------------------------ batched secret lane

// Runs BatchScalarMultSecret over `points` and checks every slot against the
// reference ladder.
void ExpectBatchMatchesReference(const std::vector<EcPoint>& points, const U256& k) {
  const P256& curve = P256::Get();
  std::vector<EcPoint> batch = curve.BatchScalarMultSecret(points, Secret<U256>(k));
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(batch[i], ReferenceMult(points[i], k)) << "slot " << i << " scalar " << k.ToHex();
  }
}

TEST(CtBatchScalarMultTest, EdgeScalarsMatchReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-batch-edges"));
  std::vector<EcPoint> points = {curve.generator(),
                                 curve.BaseMult(rng.RandomScalar(curve.order())),
                                 curve.BaseMult(rng.RandomScalar(curve.order()))};
  for (const U256& k : CtEdgeScalars()) {
    ExpectBatchMatchesReference(points, k);
  }
}

// k = n - 2 is the one reduced scalar whose last-window addition is a
// doubling (acc = 16*K*P = -P = digit * P); its neighbours bracket it.
TEST(CtBatchScalarMultTest, ScalarsJustBelowOrderMatchReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-batch-n-minus"));
  std::vector<EcPoint> points = {curve.generator(),
                                 curve.BaseMult(rng.RandomScalar(curve.order()))};
  for (uint64_t d = 1; d <= 16; ++d) {
    U256 k;
    SubWithBorrow(curve.order(), U256::FromU64(d), &k);
    ExpectBatchMatchesReference(points, k);
  }
}

TEST(CtBatchScalarMultTest, OneThousandRandomScalarsMatchReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-batch-1k"));
  // Two points, so every scalar also runs through a shared table
  // normalization and a shared output inversion.
  std::vector<EcPoint> points = {curve.BaseMult(rng.RandomScalar(curve.order())),
                                 curve.BaseMult(rng.RandomScalar(curve.order()))};
  for (int i = 0; i < 1000; ++i) {
    ExpectBatchMatchesReference(points, rng.RandomScalar(curve.order()));
  }
}

// Identity placeholders, a repeated point and P/-P pairs in one batch: the
// placeholders must come out as the identity without disturbing the shared
// table normalization or the shared output inversion of their neighbours.
TEST(CtBatchScalarMultTest, MixedBatchMatchesReference) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-batch-mixed"));
  EcPoint p = curve.BaseMult(rng.RandomScalar(curve.order()));
  EcPoint q = curve.BaseMult(rng.RandomScalar(curve.order()));
  std::vector<EcPoint> points = {EcPoint::Infinity(), p,
                                 curve.Negate(p),     EcPoint::Infinity(),
                                 q,                   p,
                                 EcPoint::Infinity(), curve.Negate(q),
                                 curve.generator(),   curve.Negate(curve.generator())};
  std::vector<U256> scalars = CtEdgeScalars();
  for (int i = 0; i < 8; ++i) {
    scalars.push_back(rng.RandomScalar(curve.order()));
  }
  U256 n_minus_2;
  SubWithBorrow(curve.order(), U256::FromU64(2), &n_minus_2);
  scalars.push_back(n_minus_2);
  for (const U256& k : scalars) {
    ExpectBatchMatchesReference(points, k);
  }
  // An all-identity batch and an empty batch.
  ExpectBatchMatchesReference({EcPoint::Infinity(), EcPoint::Infinity()}, scalars.back());
  EXPECT_TRUE(curve.BatchScalarMultSecret({}, Secret<U256>(U256::One())).empty());
}

// Every batch size from 1 to 9, with the identity at every position (and
// once nowhere), over the edge scalars and n - 2: the identity slot must
// neither shift its neighbours' tables nor break the shared normalizations.
TEST(CtBatchScalarMultTest, EveryBatchSizeWithTheIdentityAtEveryPosition) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-batch-sizes"));
  std::vector<EcPoint> finite;
  for (int i = 0; i < 9; ++i) {
    finite.push_back(curve.BaseMult(rng.RandomScalar(curve.order())));
  }
  std::vector<U256> scalars = CtEdgeScalars();
  U256 n_minus_2;
  SubWithBorrow(curve.order(), U256::FromU64(2), &n_minus_2);
  scalars.push_back(n_minus_2);
  for (size_t size = 1; size <= 9; ++size) {
    for (size_t identity_at = 0; identity_at <= size; ++identity_at) {
      std::vector<EcPoint> points(finite.begin(), finite.begin() + size);
      if (identity_at < size) {
        points[identity_at] = EcPoint::Infinity();
      }
      for (const U256& k : scalars) {
        SCOPED_TRACE("size " + std::to_string(size) + " identity at " +
                     std::to_string(identity_at));
        ExpectBatchMatchesReference(points, k);
      }
    }
  }
}

TEST(CtBatchScalarMultTest, BatchNormalizeCtMatchesBatchNormalize) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-batch-normalize"));
  std::vector<P256::Jacobian> jacs;
  for (int i = 0; i < 20; ++i) {
    // Every third slot is the identity; the rest get a non-trivial z.
    if (i % 3 == 0) {
      jacs.push_back(curve.ToJacobian(EcPoint::Infinity()));
      continue;
    }
    jacs.push_back(curve.JacAdd(curve.JacBaseMult(rng.RandomScalar(curve.order())),
                                curve.JacBaseMult(rng.RandomScalar(curve.order()))));
  }
  EXPECT_EQ(curve.BatchNormalizeCt(jacs), curve.BatchNormalize(jacs));
}

TEST(CtScalarMultTest, BaseMultSecretMatchesBaseMult) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-basemult"));
  for (const U256& k : CtEdgeScalars()) {
    EXPECT_EQ(curve.BaseMultSecret(Secret<U256>(k)), curve.BaseMult(k)) << "scalar " << k.ToHex();
  }
  for (int i = 0; i < 200; ++i) {
    U256 k = rng.RandomScalar(curve.order());
    ASSERT_EQ(curve.BaseMultSecret(Secret<U256>(k)), curve.BaseMult(k)) << "scalar " << k.ToHex();
  }
}

TEST(CtScalarMultTest, FromJacobianCtMatchesFromJacobian) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-fromjac"));
  for (int i = 0; i < 50; ++i) {
    P256::Jacobian p = curve.JacBaseMult(rng.RandomScalar(curve.order()));
    // Scale to a non-trivial z.
    U256 lambda = curve.field().ToMont(rng.RandomScalar(curve.field().modulus()));
    U256 lambda2 = curve.field().MontSqr(lambda);
    p.x = curve.field().MontMul(p.x, lambda2);
    p.y = curve.field().MontMul(p.y, curve.field().MontMul(lambda2, lambda));
    p.z = curve.field().MontMul(p.z, lambda);
    ASSERT_EQ(curve.FromJacobianCt(p), curve.FromJacobian(p));
  }
  EXPECT_TRUE(curve.FromJacobianCt(curve.ToJacobian(EcPoint::Infinity())).infinity);
}

// ------------------------------------------------- end-to-end secret paths

TEST(CtEndToEndTest, HmacVerifyAcceptsAndRejects) {
  SecureRandom rng(ToBytes("ct-hmac"));
  Bytes key = rng.RandomBytes(32);
  Bytes data = ToBytes("the quick brown fox");
  Sha256Digest mac = HmacSha256(ByteSpan(key), ByteSpan(data));
  ByteSpan mac_span(mac.data(), mac.size());

  EXPECT_TRUE(HmacVerify(ByteSpan(key), ByteSpan(data), mac_span));

  // Any single flipped bit, in any byte position, must reject: exercises
  // every lane of the accumulated-XOR compare.
  for (size_t i = 0; i < mac.size(); ++i) {
    Sha256Digest bad = mac;
    bad[i] ^= 0x01;
    EXPECT_FALSE(HmacVerify(ByteSpan(key), ByteSpan(data), ByteSpan(bad.data(), bad.size())))
        << "flipped byte " << i;
  }
  // Truncated and oversized MACs reject on length alone.
  EXPECT_FALSE(HmacVerify(ByteSpan(key), ByteSpan(data), ByteSpan(mac.data(), mac.size() - 1)));
  Bytes longer(mac.begin(), mac.end());
  longer.push_back(0);
  EXPECT_FALSE(HmacVerify(ByteSpan(key), ByteSpan(data), ByteSpan(longer)));
}

TEST(CtEndToEndTest, EcdhSecretPathMatchesVariableTimeScalarMult) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("ct-ecdh"));
  for (int i = 0; i < 20; ++i) {
    Secret<U256> priv = rng.RandomSecretScalar(curve.order());
    EcPoint peer = curve.BaseMult(rng.RandomScalar(curve.order()));
    auto shared = EcdhSharedSecret(priv, peer);
    ASSERT_TRUE(shared.has_value());
    // Same x-coordinate as the public-lane wNAF multiply.
    EcPoint expected = curve.ScalarMult(peer, priv.Declassify());
    EXPECT_EQ(shared->Declassify(), expected.x);
  }
  // The identity peer must be rejected, not silently produce x = 0.
  Secret<U256> priv = rng.RandomSecretScalar(curve.order());
  EXPECT_FALSE(EcdhSharedSecret(priv, EcPoint::Infinity()).has_value());
}

TEST(CtEndToEndTest, ElGamalDecryptRoundTripsThroughCtLane) {
  SecureRandom rng(ToBytes("ct-elgamal"));
  KeyPair recipient = KeyPair::Generate(rng);
  for (int i = 0; i < 20; ++i) {
    EcPoint message = HashToCurve("ct-msg-" + std::to_string(i));
    ElGamalCiphertext ct = ElGamalEncrypt(recipient.public_key, message, rng);
    EXPECT_EQ(ElGamalDecrypt(recipient.private_key, ct), message);
  }
  // Identity-component edges through the ct add/normalize path.
  EcPoint message = HashToCurve(std::string("ct-msg-edge"));
  EXPECT_EQ(ElGamalDecrypt(recipient.private_key,
                           ElGamalCiphertext{EcPoint::Infinity(), message}),
            message);
  EXPECT_TRUE(ElGamalDecrypt(recipient.private_key,
                             ElGamalCiphertext{EcPoint::Infinity(), EcPoint::Infinity()})
                  .infinity);
}

}  // namespace
}  // namespace prochlo
