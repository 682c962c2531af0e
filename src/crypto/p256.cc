#include "src/crypto/p256.h"

#include <cassert>

#include "src/crypto/p256_field.h"

namespace prochlo {

namespace {
namespace fe = p256_field;

constexpr char kPrimeHex[] = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
constexpr char kOrderHex[] = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
constexpr char kBHex[] = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
constexpr char kGxHex[] = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
constexpr char kGyHex[] = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";

// Nibble w of a 256-bit scalar (w in [0, 64)).
inline uint64_t ScalarNibble(const U256& k, size_t w) {
  return (k.limbs[w / 16] >> (4 * (w % 16))) & 0xf;
}

// Width-5 wNAF: digits are 0 or odd in [-15, 15], at most one nonzero in any
// 5 consecutive positions (so ~256/6 additions per multiplication).  Digits
// are emitted LSB-first into `digits` (capacity 257: a borrowed high bit can
// push the length one past the scalar's 256 bits); returns the count.  The
// scalar must be < 2^256 - 16, which holds for anything reduced mod the
// group order.
constexpr int kWnafWidth = 5;
constexpr size_t kWnafOddMultiples = 1u << (kWnafWidth - 2);  // 1P, 3P, ..., 15P
constexpr int kWnafMaxDigits = 257;

int WnafRecode(const U256& scalar, int8_t* digits) {
  U256 k = scalar;
  int len = 0;
  while (!k.IsZero()) {
    int8_t d = 0;
    if (k.IsOdd()) {
      uint64_t w = k.limbs[0] & ((1u << kWnafWidth) - 1);  // k mod 32
      if (w >= (1u << (kWnafWidth - 1))) {
        // Negative digit: round k up to the next multiple of 32.
        d = static_cast<int8_t>(static_cast<int>(w) - (1 << kWnafWidth));
        AddWithCarry(k, U256::FromU64((1u << kWnafWidth) - w), &k);
      } else {
        d = static_cast<int8_t>(w);
        SubWithBorrow(k, U256::FromU64(w), &k);
      }
    }
    digits[len++] = d;
    k = ShiftRight1(k);
  }
  return len;
}

// The identity: z == 0 (y is arbitrary).
constexpr P256::Jacobian kIdentity{U256{}, fe::kOneMont, U256{}};

// The point formulas on the inline field core, all values in the Montgomery
// domain (which is linear, so Add/Sub work unchanged), with no case
// analysis: the variable-time ops branch on the exceptional cases around
// them, the constant-time ops mask them in.

// dbl-2001-b (a = -3).  For z == 0 it yields z3 = 2yz = 0, the identity
// again.
[[gnu::always_inline]] inline P256::Jacobian DoubleFormula(const P256::Jacobian& p) {
  U256 delta = fe::MontSqr(p.z);
  U256 gamma = fe::MontSqr(p.y);
  U256 beta = fe::MontMul(p.x, gamma);
  // alpha = 3(x - delta)(x + delta); the multiplication by 3 is two modular
  // additions, much cheaper than a field multiplication.
  U256 inner = fe::MontMul(fe::Sub(p.x, delta), fe::Add(p.x, delta));
  U256 alpha = fe::Add(fe::Add(inner, inner), inner);
  U256 beta2 = fe::Add(beta, beta);
  U256 beta4 = fe::Add(beta2, beta2);
  U256 beta8 = fe::Add(beta4, beta4);
  U256 x3 = fe::Sub(fe::MontSqr(alpha), beta8);
  // z3 = 2yz as a plain multiplication.  The (y+z)^2 - gamma - delta trick
  // would trade it for a squaring (about a sixth cheaper, docs/perf.md) and
  // two more subtractions; it is unmeasured here, and it would change no
  // output, since every field value is canonical.
  U256 z3 = fe::MontMul(fe::Add(p.y, p.y), p.z);
  U256 gamma2 = fe::MontSqr(gamma);
  U256 gamma2_2 = fe::Add(gamma2, gamma2);
  U256 gamma2_4 = fe::Add(gamma2_2, gamma2_2);
  U256 gamma2_8 = fe::Add(gamma2_4, gamma2_4);
  U256 y3 = fe::Sub(fe::MontMul(alpha, fe::Sub(beta4, x3)), gamma2_8);
  return P256::Jacobian{x3, y3, z3};
}

// add-2007-bl: p + q for finite p != +-q.  Sets h = u2 - u1 and
// r = s2 - s1 for the exceptional cases: h == 0 means equal x, and then
// r == 0 means p == q (the formula is wrong; double instead) and r != 0
// means p == -q (the formula yields z3 = 0, the identity).
[[gnu::always_inline]] inline P256::Jacobian AddFormula(const P256::Jacobian& p,
                                                        const P256::Jacobian& q, U256& h,
                                                        U256& r) {
  U256 z1z1 = fe::MontSqr(p.z);
  U256 z2z2 = fe::MontSqr(q.z);
  U256 u1 = fe::MontMul(p.x, z2z2);
  U256 u2 = fe::MontMul(q.x, z1z1);
  U256 s1 = fe::MontMul(p.y, fe::MontMul(q.z, z2z2));
  U256 s2 = fe::MontMul(q.y, fe::MontMul(p.z, z1z1));
  h = fe::Sub(u2, u1);
  r = fe::Sub(s2, s1);
  U256 h2 = fe::Add(h, h);
  U256 i = fe::MontSqr(h2);
  U256 j = fe::MontMul(h, i);
  U256 r2 = fe::Add(r, r);
  U256 v = fe::MontMul(u1, i);
  U256 x3 = fe::Sub(fe::Sub(fe::MontSqr(r2), j), fe::Add(v, v));
  U256 s1j2 = fe::MontMul(s1, j);
  s1j2 = fe::Add(s1j2, s1j2);
  U256 y3 = fe::Sub(fe::MontMul(r2, fe::Sub(v, x3)), s1j2);
  // z3 = 2*z1*z2*h directly (the same tradeoff as z3 in DoubleFormula;
  // z1z1/z2z2 stay because u1/s1 need them anyway).
  U256 z3 = fe::MontMul(fe::MontMul(fe::Add(p.z, p.z), q.z), h);
  return P256::Jacobian{x3, y3, z3};
}

// madd-2007-bl: p + (qx, qy, 1), the q.z == 1 specialization of
// add-2007-bl, saving four multiplications.  h and r as in AddFormula.
[[gnu::always_inline]] inline P256::Jacobian MixedAddFormula(const P256::Jacobian& p,
                                                             const U256& qx, const U256& qy,
                                                             U256& h, U256& r) {
  U256 z1z1 = fe::MontSqr(p.z);
  U256 u2 = fe::MontMul(qx, z1z1);
  U256 s2 = fe::MontMul(qy, fe::MontMul(p.z, z1z1));
  h = fe::Sub(u2, p.x);
  r = fe::Sub(s2, p.y);
  U256 hh = fe::MontSqr(h);
  U256 hh2 = fe::Add(hh, hh);
  U256 i = fe::Add(hh2, hh2);
  U256 j = fe::MontMul(h, i);
  U256 r2 = fe::Add(r, r);
  U256 v = fe::MontMul(p.x, i);
  U256 x3 = fe::Sub(fe::Sub(fe::MontSqr(r2), j), fe::Add(v, v));
  U256 y1j2 = fe::MontMul(p.y, j);
  y1j2 = fe::Add(y1j2, y1j2);
  U256 y3 = fe::Sub(fe::MontMul(r2, fe::Sub(v, x3)), y1j2);
  U256 z3 = fe::MontMul(fe::Add(p.z, p.z), h);  // 2*z1*h, same tradeoff as above
  return P256::Jacobian{x3, y3, z3};
}
}  // namespace

const P256& P256::Get() {
  static const P256* instance = new P256();
  return *instance;
}

P256::P256()
    : fp_(U256::FromHex(kPrimeHex)),
      fn_(U256::FromHex(kOrderHex)),
      generator_{U256::FromHex(kGxHex), U256::FromHex(kGyHex), false} {
  gen_table_ = BuildFixedBaseTable(generator_);
}

bool P256::IsOnCurve(const EcPoint& point) const {
  if (point.infinity) {
    return true;
  }
  if (point.x >= fp_.modulus() || point.y >= fp_.modulus()) {
    return false;
  }
  // y^2 == x^3 - 3x + b
  U256 lhs = fp_.Mul(point.y, point.y);
  U256 x2 = fp_.Mul(point.x, point.x);
  U256 x3 = fp_.Mul(x2, point.x);
  U256 three_x = fp_.Mul(U256::FromU64(3), point.x);
  U256 rhs = fp_.Add(fp_.Sub(x3, three_x), U256::FromHex(kBHex));
  return lhs == rhs;
}

P256::Jacobian P256::ToJacobian(const EcPoint& p) const {
  if (p.infinity) {
    return kIdentity;
  }
  return Jacobian{fp_.ToMont(p.x), fp_.ToMont(p.y), fe::kOneMont};
}

EcPoint P256::FromJacobian(const Jacobian& p) const {
  if (p.z.IsZero()) {
    return EcPoint::Infinity();
  }
  U256 z_normal = fp_.FromMont(p.z);
  U256 zinv = fp_.ToMont(fp_.Inv(z_normal));
  U256 zinv2 = fp_.MontSqr(zinv);
  U256 zinv3 = fp_.MontMul(zinv2, zinv);
  U256 x = fp_.FromMont(fp_.MontMul(p.x, zinv2));
  U256 y = fp_.FromMont(fp_.MontMul(p.y, zinv3));
  return EcPoint{x, y, false};
}

void P256::NormalizeToAffineMont(std::vector<Jacobian>& points) const {
  // One shared inversion across the batch (Montgomery's trick): invert every
  // z at once, then rescale each point's coordinates.
  std::vector<U256> zs(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    zs[i] = points[i].z;  // infinity (z == 0) is skipped by BatchInvMont
  }
  fp_.BatchInvMont(zs.data(), zs.size());
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].z.IsZero()) {
      continue;
    }
    U256 zinv2 = fe::MontSqr(zs[i]);
    U256 zinv3 = fe::MontMul(zinv2, zs[i]);
    points[i].x = fe::MontMul(points[i].x, zinv2);
    points[i].y = fe::MontMul(points[i].y, zinv3);
    points[i].z = fe::kOneMont;
  }
}

std::vector<EcPoint> P256::BatchNormalize(const std::vector<Jacobian>& points) const {
  std::vector<Jacobian> scratch = points;
  NormalizeToAffineMont(scratch);
  std::vector<EcPoint> out(points.size());
  for (size_t i = 0; i < scratch.size(); ++i) {
    if (scratch[i].z.IsZero()) {
      out[i] = EcPoint::Infinity();
    } else {
      out[i] = EcPoint{fp_.FromMont(scratch[i].x), fp_.FromMont(scratch[i].y), false};
    }
  }
  return out;
}

std::vector<EcPoint> P256::BatchBaseMult(const std::vector<U256>& scalars) const {
  std::vector<Jacobian> jacs(scalars.size());
  for (size_t i = 0; i < scalars.size(); ++i) {
    jacs[i] = JacBaseMult(scalars[i]);
  }
  return BatchNormalize(jacs);
}

P256::Jacobian P256::JacDouble(const Jacobian& p) const {
  if (p.z.IsZero() || p.y.IsZero()) {
    return kIdentity;
  }
  return DoubleFormula(p);
}

P256::Jacobian P256::JacAdd(const Jacobian& p, const Jacobian& q) const {
  if (p.z.IsZero()) {
    return q;
  }
  if (q.z.IsZero()) {
    return p;
  }
  U256 h, r;
  const Jacobian sum = AddFormula(p, q, h, r);
  if (h.IsZero()) {
    return r.IsZero() ? JacDouble(p) : kIdentity;
  }
  return sum;
}

P256::Jacobian P256::JacAddAffine(const Jacobian& p, const AffineMont& q) const {
  if (p.z.IsZero()) {
    return Jacobian{q.x, q.y, fe::kOneMont};
  }
  U256 h, r;
  const Jacobian sum = MixedAddFormula(p, q.x, q.y, h, r);
  if (h.IsZero()) {
    return r.IsZero() ? JacDouble(p) : kIdentity;
  }
  return sum;
}

P256::Jacobian P256::JacScalarMult(const Jacobian& p, const U256& scalar) const {
  U256 k = scalar;
  if (k >= fn_.modulus()) {
    k = fn_.Reduce(k);
  }
  if (k.IsZero() || p.z.IsZero()) {
    return kIdentity;
  }

  // Odd multiples 1P, 3P, ..., 15P.  Negative digits reuse the same table:
  // negating a Jacobian point is a free y-flip.
  Jacobian odd[kWnafOddMultiples];
  odd[0] = p;
  Jacobian twice = JacDouble(p);
  for (size_t i = 1; i < kWnafOddMultiples; ++i) {
    odd[i] = JacAdd(odd[i - 1], twice);
  }

  int8_t digits[kWnafMaxDigits];
  int len = WnafRecode(k, digits);
  Jacobian acc = kIdentity;
  for (int i = len - 1; i >= 0; --i) {
    acc = JacDouble(acc);
    int8_t d = digits[i];
    if (d > 0) {
      acc = JacAdd(acc, odd[(d - 1) / 2]);
    } else if (d < 0) {
      Jacobian neg = odd[(-d - 1) / 2];
      neg.y = fe::Neg(neg.y);
      acc = JacAdd(acc, neg);
    }
  }
  return acc;
}

P256::Jacobian P256::JacScalarMultReference(const Jacobian& p, const U256& scalar) const {
  U256 k = scalar;
  if (k >= fn_.modulus()) {
    k = fn_.Reduce(k);
  }
  Jacobian acc = kIdentity;
  if (k.IsZero() || p.z.IsZero()) {
    return acc;
  }
  for (int i = k.BitLength() - 1; i >= 0; --i) {
    acc = JacDouble(acc);
    if (k.Bit(i)) {
      acc = JacAdd(acc, p);
    }
  }
  return acc;
}

// ---------------------------------------------------- constant-time lane

namespace {
// mask ? a : b per coordinate (mask all-ones or all-zeros).
inline P256::Jacobian SelectJac(uint64_t mask, const P256::Jacobian& a, const P256::Jacobian& b) {
  return P256::Jacobian{ct::CtSelect(mask, a.x, b.x), ct::CtSelect(mask, a.y, b.y),
                        ct::CtSelect(mask, a.z, b.z)};
}

// Signed fixed-window recode, w = 4: k = sum_i digits[i] * 16^i with every
// digit in [-7, 8].  65 digits cover 256 bits plus the final carry.  Unlike
// wNAF (whose digit positions ARE the secret), the digit count, positions,
// and recode control flow here are fixed; only the digit VALUES are secret,
// and they flow exclusively into masked selects.
constexpr int kCtDigits = 65;
constexpr size_t kCtTableSize = 8;  // multiples 1..8 of the base point

inline void CtRecode(const U256& k, int64_t digits[kCtDigits]) {
  uint64_t carry = 0;
  for (int i = 0; i < 64; ++i) {
    uint64_t t = ((k.limbs[i / 16] >> (4 * (i % 16))) & 0xf) + carry;  // 0..16
    // t >= 9 exactly when (t + 7) overflows into bit 4.
    uint64_t ge9 = ct::NonZeroMask((t + 7) >> 4);
    carry = ge9 & 1;
    digits[i] = static_cast<int64_t>(t) - static_cast<int64_t>(ge9 & 16);
  }
  digits[64] = static_cast<int64_t>(carry);
}
}  // namespace

P256::Jacobian P256::JacDoubleCt(const Jacobian& p) const {
  // DoubleFormula without JacDouble's early returns: for z == 0 it yields
  // the identity again, and y == 0 cannot occur for a finite point (P-256's
  // order is odd, so the curve has no 2-torsion).
  return DoubleFormula(p);
}

P256::Jacobian P256::JacAddCt(const Jacobian& p, const Jacobian& q) const {
  // add-2007-bl computed unconditionally, with every exceptional case of
  // JacAdd masked in afterwards instead of branched on:
  //   * p or q at infinity       -> select the other operand;
  //   * p == q (h == 0, r == 0)  -> select the unconditional doubling;
  //   * p == -q (h == 0, r != 0) -> the formula already yields z3 = 0,
  //     i.e. the identity, so no patch is needed.
  U256 h, r;
  const Jacobian sum = AddFormula(p, q, h, r);
  const Jacobian dbl = DoubleFormula(p);
  uint64_t p_inf = ct::IsZeroMask(p.z);
  uint64_t q_inf = ct::IsZeroMask(q.z);
  uint64_t is_double = ct::IsZeroMask(h) & ct::IsZeroMask(r) & ~p_inf & ~q_inf;
  Jacobian out = SelectJac(is_double, dbl, sum);
  out = SelectJac(q_inf, p, out);
  out = SelectJac(p_inf, q, out);
  return out;
}

P256::Jacobian P256::JacAddAffineCt(const Jacobian& p, const AffineMont& q, uint64_t q_inf,
                                    bool patch_double) const {
  // madd-2007-bl computed unconditionally, with the exceptional cases of
  // JacAddAffine masked in afterwards instead of branched on:
  //   * p at infinity            -> select (q.x, q.y, 1);
  //   * q at infinity (q_inf)    -> select p;
  //   * p == q (h == 0, r == 0)  -> select the unconditional doubling, but
  //     only when the caller asks for it (patch_double is public: it is the
  //     ladder's window index, never the scalar);
  //   * p == -q (h == 0, r != 0) -> the formula already yields z3 = 0.
  U256 h, r;
  Jacobian out = MixedAddFormula(p, q.x, q.y, h, r);
  const uint64_t p_inf = ct::IsZeroMask(p.z);
  if (patch_double) {
    uint64_t is_double = ct::IsZeroMask(h) & ct::IsZeroMask(r) & ~p_inf & ~q_inf;
    out = SelectJac(is_double, DoubleFormula(p), out);
  }
  out = SelectJac(p_inf, Jacobian{q.x, q.y, fe::kOneMont}, out);
  // Last, so that identity + identity stays the (z == 0) identity.
  out = SelectJac(q_inf, p, out);
  return out;
}

std::vector<P256::Jacobian> P256::BatchScalarMultSecretJac(
    const std::vector<EcPoint>& points, const Secret<U256>& secret_scalar) const {
  const size_t n = points.size();
  std::vector<Jacobian> out(n, kIdentity);

  // Multiples 1..8 of every finite point.  The POINTS are public in every
  // use (ephemeral keys, El Gamal components); only the scalar is secret, so
  // the tables are built with the ordinary variable-time ops (3P..8P as
  // mixed additions of the affine point), and all of them are normalized to
  // affine with one shared inversion — every ladder addition below is then
  // a mixed addition.  Identity placeholders are skipped: that branch reads
  // the public point, never the scalar.
  std::vector<Jacobian> multiples;
  multiples.reserve(kCtTableSize * n);
  for (const EcPoint& point : points) {
    if (point.infinity) {
      continue;
    }
    const Jacobian p = ToJacobian(point);
    const AffineMont affine{p.x, p.y};
    multiples.push_back(p);
    multiples.push_back(JacDouble(p));
    for (size_t d = 3; d <= kCtTableSize; ++d) {
      multiples.push_back(JacAddAffine(multiples.back(), affine));
    }
  }
  NormalizeToAffineMont(multiples);
  // Split into x and y tables for ct::CtTableLookup.
  std::vector<U256> xs(multiples.size());
  std::vector<U256> ys(multiples.size());
  for (size_t e = 0; e < multiples.size(); ++e) {
    xs[e] = multiples[e].x;
    ys[e] = multiples[e].y;
  }

  // One masked subtract reduces any 256-bit scalar mod n (n > 2^255, so
  // every U256 is below 2n) — no variable-time compare-and-Reduce.
  const U256 k = fn_.ReduceOnceCt(secret_scalar.Expose());
  int64_t digits[kCtDigits];
  CtRecode(k, digits);

  // Uniform ladder: the top window's digit is the recode carry, 0 or 1, so
  // the accumulator starts as a masked select of P or the identity.  Then 64
  // windows of exactly 4 doublings, one full-scan lookup of the |digit|
  // multiple (|digit| = 0 reads nothing and masks the addition away), one
  // masked negation and one masked mixed addition — the same sequence for
  // every scalar.  The addition's doubling case depends only on the scalar:
  // the accumulator before window w's addition is 16*K*P with K the
  // scalar's digits above w, and for w >= 1 that cannot equal the window's
  // +-|d|*P for a reduced scalar.  In window 0 it can, exactly when
  // k = n + 2*d0, i.e. k = n - 2 (d0 = -1), so only window 0 carries the
  // masked doubling patch.
  size_t base = 0;
  for (size_t i = 0; i < n; ++i) {
    if (points[i].infinity) {
      continue;
    }
    Jacobian acc = SelectJac(ct::NonZeroMask(static_cast<uint64_t>(digits[kCtDigits - 1])),
                             Jacobian{xs[base], ys[base], fe::kOneMont}, kIdentity);
    for (int w = kCtDigits - 2; w >= 0; --w) {
      for (int d = 0; d < 4; ++d) {
        acc = JacDoubleCt(acc);
      }
      const uint64_t dv = static_cast<uint64_t>(digits[w]);
      const uint64_t neg = ct::NonZeroMask(dv >> 63);
      const uint64_t mag = (dv ^ neg) - neg;  // two's-complement |digit|, branchless
      // Entry mag - 1; mag == 0 wraps out of range and reads zero.
      AffineMont e{ct::CtTableLookup(xs.data() + base, kCtTableSize, mag - 1),
                   ct::CtTableLookup(ys.data() + base, kCtTableSize, mag - 1)};
      e.y = ct::CtSelect(neg, fe::Neg(e.y), e.y);
      acc = JacAddAffineCt(acc, e, ct::IsZeroMask(mag), /*patch_double=*/w == 0);
    }
    out[i] = acc;
    base += kCtTableSize;
  }
  return out;
}

std::vector<EcPoint> P256::BatchScalarMultSecret(const std::vector<EcPoint>& points,
                                                 const Secret<U256>& secret_scalar) const {
  return BatchNormalizeCt(BatchScalarMultSecretJac(points, secret_scalar));
}

std::vector<EcPoint> P256::BatchNormalizeCt(const std::vector<Jacobian>& points) const {
  // Montgomery's trick on the ct lane: prefix products of the finite z's
  // with the field core's branch-free MontMul, one Fermat MontInvCt, and a
  // backward pass.  The
  // per-slot point-at-infinity bit is public protocol state (an identity
  // ECDH result is rejected out loud; an identity decrypt is a visible
  // outcome), so it is the one bit declassified; the coordinates keep their
  // taint.
  const size_t n = points.size();
  std::vector<EcPoint> out(n, EcPoint::Infinity());
  std::vector<uint8_t> finite(n);
  std::vector<U256> prefix(n);
  U256 running = fe::kOneMont;
  for (size_t i = 0; i < n; ++i) {
    finite[i] = !ct::DeclassifyBit(ct::IsZeroMask(points[i].z));  // ct:declassify(point-at-infinity flag is public protocol state)
    prefix[i] = running;
    if (finite[i]) {
      running = fe::MontMul(running, points[i].z);
    }
  }
  U256 inv = fp_.MontInvCt(running);  // 1 / prod(finite z)
  for (size_t i = n; i-- > 0;) {
    if (!finite[i]) {
      continue;
    }
    const U256 zinv = fe::MontMul(inv, prefix[i]);
    inv = fe::MontMul(inv, points[i].z);
    const U256 zinv2 = fe::MontSqr(zinv);
    const U256 zinv3 = fe::MontMul(zinv2, zinv);
    out[i] = EcPoint{fp_.FromMontCt(fe::MontMul(points[i].x, zinv2)),
                     fp_.FromMontCt(fe::MontMul(points[i].y, zinv3)), false};
  }
  return out;
}

P256::Jacobian P256::JacBaseMultSecret(const Secret<U256>& secret_scalar) const {
  U256 k = fn_.ReduceOnceCt(secret_scalar.Expose());
  Jacobian acc = kIdentity;
  // The fixed-base table already stores d * 2^(4w) * G per window, so the
  // ladder needs no doublings — but unlike JacFixedMult, every window scans
  // all 15 entries and adds unconditionally (a zero nibble contributes the
  // identity: zero coordinates with a masked-to-zero z).
  for (size_t w = 0; w < 64; ++w) {
    uint64_t d = ScalarNibble(k, w);
    U256 ex = U256::Zero();
    U256 ey = U256::Zero();
    for (size_t j = 0; j < 15; ++j) {
      uint64_t mask = ct::EqMask(static_cast<uint64_t>(j + 1), d);
      for (int l = 0; l < 4; ++l) {
        ex.limbs[l] |= mask & gen_table_.win[w][j].x.limbs[l];
        ey.limbs[l] |= mask & gen_table_.win[w][j].y.limbs[l];
      }
    }
    Jacobian e{ex, ey, ct::CtSelect(ct::IsZeroMask(d), U256::Zero(), fe::kOneMont)};
    acc = JacAddCt(acc, e);
  }
  return acc;
}

EcPoint P256::FromJacobianCt(const Jacobian& p) const { return BatchNormalizeCt({p})[0]; }

EcPoint P256::ScalarMultSecret(const EcPoint& point, const Secret<U256>& secret_scalar) const {
  return BatchScalarMultSecret({point}, secret_scalar)[0];
}

EcPoint P256::BaseMultSecret(const Secret<U256>& secret_scalar) const {
  EcPoint out = FromJacobianCt(JacBaseMultSecret(secret_scalar));
  // A public key derived from a long-term secret is published by protocol.
  ct::UnpoisonObject(out.x);  // ct:declassify(public key is published by protocol)
  ct::UnpoisonObject(out.y);  // ct:declassify(public key is published by protocol)
  return out;
}

std::vector<P256::Jacobian> P256::BatchScalarMultJac(const std::vector<EcPoint>& points,
                                                     const std::vector<U256>& scalars) const {
  assert(points.size() == scalars.size());
  const size_t n = points.size();
  std::vector<Jacobian> out(n, kIdentity);

  // Build every item's odd-multiple table into one flat vector, then convert
  // them ALL to affine with a single shared inversion.  That is the batch
  // win: the per-digit additions below become mixed additions (madd), which
  // save four field multiplications each over full Jacobian additions.
  std::vector<U256> ks(n);
  std::vector<size_t> table_base(n, SIZE_MAX);  // SIZE_MAX = identity result
  std::vector<Jacobian> tables;
  tables.reserve(kWnafOddMultiples * n);
  for (size_t i = 0; i < n; ++i) {
    U256 k = scalars[i];
    if (k >= fn_.modulus()) {
      k = fn_.Reduce(k);
    }
    if (k.IsZero() || points[i].infinity) {
      continue;
    }
    ks[i] = k;
    table_base[i] = tables.size();
    Jacobian p = ToJacobian(points[i]);
    Jacobian twice = JacDouble(p);
    tables.push_back(p);
    for (size_t j = 1; j < kWnafOddMultiples; ++j) {
      tables.push_back(JacAdd(tables[table_base[i] + j - 1], twice));
    }
  }
  NormalizeToAffineMont(tables);

  // Recode lazily and reuse the digits when consecutive scalars repeat: the
  // El Gamal open multiplies every c1 of a chunk by the same private key.
  int8_t digits[kWnafMaxDigits];
  int len = 0;
  const U256* prev_k = nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (table_base[i] == SIZE_MAX) {
      continue;
    }
    const Jacobian* tbl = tables.data() + table_base[i];
    if (prev_k == nullptr || !(*prev_k == ks[i])) {
      len = WnafRecode(ks[i], digits);
      prev_k = &ks[i];
    }
    Jacobian acc = kIdentity;
    for (int b = len - 1; b >= 0; --b) {
      acc = JacDouble(acc);
      int8_t d = digits[b];
      if (d > 0) {
        const Jacobian& e = tbl[(d - 1) / 2];
        acc = JacAddAffine(acc, AffineMont{e.x, e.y});
      } else if (d < 0) {
        const Jacobian& e = tbl[(-d - 1) / 2];
        acc = JacAddAffine(acc, AffineMont{e.x, fe::Neg(e.y)});
      }
    }
    out[i] = acc;
  }
  return out;
}

std::vector<EcPoint> P256::BatchScalarMult(const std::vector<EcPoint>& points,
                                           const std::vector<U256>& scalars) const {
  return BatchNormalize(BatchScalarMultJac(points, scalars));
}

P256::FixedBaseTable P256::BuildFixedBaseTable(const EcPoint& base) const {
  // For every 4-bit window w, precompute d * 2^(4w) * base, d in 1..15.
  // Built in Jacobian form, then normalized to affine with one shared
  // inversion so lookups feed the cheap mixed addition.
  std::vector<Jacobian> entries;
  entries.reserve(64 * 15);
  Jacobian window_base = ToJacobian(base);
  for (size_t w = 0; w < 64; ++w) {
    Jacobian multiple = window_base;
    for (size_t d = 1; d <= 15; ++d) {
      entries.push_back(multiple);
      if (d < 15) {
        multiple = JacAdd(multiple, window_base);
      }
    }
    window_base = JacDouble(JacDouble(JacDouble(JacDouble(window_base))));
  }
  NormalizeToAffineMont(entries);

  FixedBaseTable table;
  for (size_t w = 0; w < 64; ++w) {
    for (size_t d = 0; d < 15; ++d) {
      const Jacobian& e = entries[w * 15 + d];
      table.win[w][d] = AffineMont{e.x, e.y};
    }
  }
  return table;
}

P256::Jacobian P256::JacFixedMult(const FixedBaseTable& table, const U256& scalar) const {
  U256 k = scalar;
  if (k >= fn_.modulus()) {
    k = fn_.Reduce(k);
  }
  Jacobian acc = kIdentity;
  for (size_t w = 0; w < 64; ++w) {
    uint64_t d = ScalarNibble(k, w);
    if (d != 0) {
      acc = JacAddAffine(acc, table.win[w][d - 1]);
    }
  }
  return acc;
}

P256::Jacobian P256::JacBaseMult(const U256& scalar) const {
  return JacFixedMult(gen_table_, scalar);
}

P256::Jacobian P256::JacScalarMultCached(const EcPoint& base, const U256& scalar) const {
  if (!base.infinity) {
    if (base == generator_) {
      return JacFixedMult(gen_table_, scalar);
    }
    if (const FixedBaseTable* table = FindTable(base)) {
      return JacFixedMult(*table, scalar);
    }
  }
  return JacScalarMult(ToJacobian(base), scalar);
}

uint64_t P256::TableKey(const EcPoint& base) {
  // Fibonacci-style mix; quality only affects bucket spread, correctness is
  // guaranteed by the full-point comparison in FindTable.
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (uint64_t limb : base.x.limbs) {
    h = (h ^ limb) * 0xff51afd7ed558ccdull;
  }
  for (uint64_t limb : base.y.limbs) {
    h = (h ^ limb) * 0xff51afd7ed558ccdull;
  }
  return h;
}

const P256::FixedBaseTable* P256::FindTable(const EcPoint& base) const {
  ReaderMutexLock lock(tables_mu_);
  auto it = tables_.find(TableKey(base));
  if (it == tables_.end()) {
    return nullptr;
  }
  for (const auto& [point, table] : it->second) {
    if (point == base) {
      return table.get();
    }
  }
  return nullptr;
}

void P256::RegisterFixedBase(const EcPoint& base) const {
  if (base.infinity || base == generator_) {
    return;
  }
  if (FindTable(base) != nullptr) {
    return;
  }
  // Build outside the lock: table construction is a few hundred point ops.
  auto table = std::make_unique<FixedBaseTable>(BuildFixedBaseTable(base));
  WriterMutexLock lock(tables_mu_);
  auto& bucket = tables_[TableKey(base)];
  for (const auto& [point, existing] : bucket) {
    if (point == base) {
      return;  // lost a registration race; the first table wins
    }
  }
  bucket.emplace_back(base, std::move(table));
}

bool P256::HasFixedBase(const EcPoint& base) const {
  if (base.infinity) {
    return false;
  }
  return base == generator_ || FindTable(base) != nullptr;
}

EcPoint P256::Add(const EcPoint& a, const EcPoint& b) const {
  return FromJacobian(JacAdd(ToJacobian(a), ToJacobian(b)));
}

EcPoint P256::Double(const EcPoint& a) const { return FromJacobian(JacDouble(ToJacobian(a))); }

EcPoint P256::Negate(const EcPoint& a) const {
  if (a.infinity) {
    return a;
  }
  return EcPoint{a.x, fp_.Neg(a.y), false};
}

EcPoint P256::ScalarMult(const EcPoint& point, const U256& scalar) const {
  return FromJacobian(JacScalarMultCached(point, scalar));
}

EcPoint P256::BaseMult(const U256& scalar) const {
  return FromJacobian(JacFixedMult(gen_table_, scalar));
}

Bytes P256::Encode(const EcPoint& point) const {
  if (point.infinity) {
    return Bytes{0x00};
  }
  Bytes out;
  out.reserve(kEcPointEncodedSize);
  out.push_back(0x04);
  auto x_bytes = point.x.ToBytes();
  auto y_bytes = point.y.ToBytes();
  out.insert(out.end(), x_bytes.begin(), x_bytes.end());
  out.insert(out.end(), y_bytes.begin(), y_bytes.end());
  return out;
}

std::optional<EcPoint> P256::Decode(ByteSpan encoded) const {
  if (encoded.size() == 1 && encoded[0] == 0x00) {
    return EcPoint::Infinity();
  }
  if (encoded.size() != kEcPointEncodedSize || encoded[0] != 0x04) {
    return std::nullopt;
  }
  EcPoint point;
  point.x = U256::FromBytes(encoded.subspan(1, 32));
  point.y = U256::FromBytes(encoded.subspan(33, 32));
  point.infinity = false;
  if (!IsOnCurve(point)) {
    return std::nullopt;
  }
  return point;
}

std::optional<EcPoint> P256::LiftX(const U256& x, bool y_odd) const {
  if (x >= fp_.modulus()) {
    return std::nullopt;
  }
  U256 x2 = fp_.Mul(x, x);
  U256 x3 = fp_.Mul(x2, x);
  U256 three_x = fp_.Mul(U256::FromU64(3), x);
  U256 rhs = fp_.Add(fp_.Sub(x3, three_x), U256::FromHex(kBHex));
  U256 y;
  if (!fp_.Sqrt(rhs, &y)) {
    return std::nullopt;
  }
  if (y.IsOdd() != y_odd) {
    y = fp_.Neg(y);
  }
  return EcPoint{x, y, false};
}

}  // namespace prochlo
