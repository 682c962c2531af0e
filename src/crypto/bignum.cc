#include "src/crypto/bignum.h"

#include <cassert>
#include <vector>

#include "src/crypto/ct.h"
#include "src/crypto/p256_field.h"

namespace prochlo {

U256 U256::FromBytes(ByteSpan be32) {
  assert(be32.size() <= 32);
  U256 out;
  // Right-align shorter inputs, matching big-endian integer semantics.
  size_t pad = 32 - be32.size();
  for (size_t i = 0; i < be32.size(); ++i) {
    size_t byte_index = 31 - (pad + i);  // position from the little end
    out.limbs[byte_index / 8] |= static_cast<uint64_t>(be32[i]) << (8 * (byte_index % 8));
  }
  return out;
}

std::array<uint8_t, 32> U256::ToBytes() const {
  std::array<uint8_t, 32> out;
  for (int i = 0; i < 32; ++i) {
    int byte_index = 31 - i;
    out[i] = static_cast<uint8_t>(limbs[byte_index / 8] >> (8 * (byte_index % 8)));
  }
  return out;
}

U256 U256::FromHex(const std::string& hex) {
  assert(hex.size() <= 64);
  std::string padded = std::string(64 - hex.size(), '0') + hex;
  Bytes raw = HexDecode(padded);
  assert(raw.size() == 32);
  return FromBytes(raw);
}

std::string U256::ToHex() const {
  auto bytes = ToBytes();
  return HexEncode(ByteSpan(bytes.data(), bytes.size()));
}

int U256::BitLength() const {
  for (int limb = 3; limb >= 0; --limb) {
    if (limbs[limb] != 0) {
      return 64 * limb + (64 - __builtin_clzll(limbs[limb]));
    }
  }
  return 0;
}

std::strong_ordering U256::operator<=>(const U256& other) const {
  for (int i = 3; i >= 0; --i) {
    if (limbs[i] != other.limbs[i]) {
      return limbs[i] < other.limbs[i] ? std::strong_ordering::less : std::strong_ordering::greater;
    }
  }
  return std::strong_ordering::equal;
}

std::array<uint64_t, 8> MulWide(const U256& a, const U256& b) {
  std::array<uint64_t, 8> out = {0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      __uint128_t acc =
          static_cast<__uint128_t>(a.limbs[i]) * b.limbs[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
    out[i + 4] = carry;
  }
  return out;
}

namespace {
// -m^{-1} mod 2^64 by Newton iteration on the low limb.
uint64_t NegInverse64(uint64_t m) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {  // 2^(2^6) = 2^64 bits of precision
    inv *= 2 - m * inv;
  }
  return ~inv + 1;  // -inv mod 2^64
}

// Limb-wise a + b + carry and a - b - borrow: the P-256 field core's carry
// helpers, shared by the generic Add/Sub/Neg below.
using p256_field::AddCarry;
using p256_field::Carry;
using p256_field::SubBorrow;
}  // namespace

ModField::ModField(const U256& modulus) : modulus_(modulus) {
  assert(modulus.IsOdd());
  n0_inv_ = NegInverse64(modulus.limbs[0]);
  p256_fast_ = modulus == p256_field::kPrime;

  // R^2 mod m by starting from 1 and doubling 512 times.
  U256 acc = U256::One();
  // Normalize 1 into [0, m) — trivially true for m > 1.
  for (int i = 0; i < 512; ++i) {
    U256 doubled;
    uint64_t carry = AddWithCarry(acc, acc, &doubled);
    U256 reduced;
    uint64_t borrow = SubWithBorrow(doubled, modulus_, &reduced);
    // Keep the reduced value if doubling overflowed or doubled >= m.
    acc = (carry != 0 || borrow == 0) ? reduced : doubled;
  }
  r2_ = acc;
}

namespace {
// Generic CIOS Montgomery multiplication core with 4 limbs, for moduli other
// than the P-256 prime.  Branch-free with fixed trip counts; leaves the
// (possibly >= modulus) accumulator in t[0..4].
inline void MontMulCios(const U256& a, const U256& b, const U256& modulus, uint64_t n0_inv,
                        uint64_t t[6]) {
  for (int j = 0; j < 6; ++j) {
    t[j] = 0;
  }
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      __uint128_t acc = static_cast<__uint128_t>(a.limbs[i]) * b.limbs[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
    __uint128_t acc = static_cast<__uint128_t>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(acc);
    t[5] = static_cast<uint64_t>(acc >> 64);

    // m = t[0] * n0_inv mod 2^64; t += m * modulus; t >>= 64
    uint64_t m = t[0] * n0_inv;
    carry = 0;
    for (int j = 0; j < 4; ++j) {
      __uint128_t acc2 = static_cast<__uint128_t>(m) * modulus.limbs[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(acc2);
      carry = static_cast<uint64_t>(acc2 >> 64);
    }
    __uint128_t acc3 = static_cast<__uint128_t>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(acc3);
    t[5] += static_cast<uint64_t>(acc3 >> 64);

    // Shift down one limb.
    for (int j = 0; j < 5; ++j) {
      t[j] = t[j + 1];
    }
    t[5] = 0;
  }
}
}  // namespace

// The field operations below are branch-free for every modulus: each ends
// in one masked conditional correction.  The `p256_fast_` branch is fine:
// it depends on the (public) modulus, never on the operands.

U256 ModField::Add(const U256& a, const U256& b) const {
  const uint64_t* m = modulus_.limbs.data();
  Carry carry = 0;
  const uint64_t s0 = AddCarry(a.limbs[0], b.limbs[0], carry);
  const uint64_t s1 = AddCarry(a.limbs[1], b.limbs[1], carry);
  const uint64_t s2 = AddCarry(a.limbs[2], b.limbs[2], carry);
  const uint64_t s3 = AddCarry(a.limbs[3], b.limbs[3], carry);
  Carry borrow = 0;
  const uint64_t r0 = SubBorrow(s0, m[0], borrow);
  const uint64_t r1 = SubBorrow(s1, m[1], borrow);
  const uint64_t r2 = SubBorrow(s2, m[2], borrow);
  const uint64_t r3 = SubBorrow(s3, m[3], borrow);
  // Keep the unreduced sum iff it neither overflowed 2^256 nor reached m.
  const uint64_t keep = ct::NonZeroMask((carry ^ 1) & borrow);
  return U256{{ct::CtSelect(keep, s0, r0), ct::CtSelect(keep, s1, r1), ct::CtSelect(keep, s2, r2),
               ct::CtSelect(keep, s3, r3)}};
}

U256 ModField::Sub(const U256& a, const U256& b) const {
  const uint64_t* m = modulus_.limbs.data();
  Carry borrow = 0;
  const uint64_t d0 = SubBorrow(a.limbs[0], b.limbs[0], borrow);
  const uint64_t d1 = SubBorrow(a.limbs[1], b.limbs[1], borrow);
  const uint64_t d2 = SubBorrow(a.limbs[2], b.limbs[2], borrow);
  const uint64_t d3 = SubBorrow(a.limbs[3], b.limbs[3], borrow);
  // Add m back when the subtraction wrapped.
  const uint64_t wrap = ct::NonZeroMask(borrow);
  Carry carry = 0;
  const uint64_t r0 = AddCarry(d0, m[0] & wrap, carry);
  const uint64_t r1 = AddCarry(d1, m[1] & wrap, carry);
  const uint64_t r2 = AddCarry(d2, m[2] & wrap, carry);
  const uint64_t r3 = AddCarry(d3, m[3] & wrap, carry);
  return U256{{r0, r1, r2, r3}};
}

U256 ModField::Neg(const U256& a) const {
  // m - a, except that 0 stays 0.
  const uint64_t nonzero = ct::NonZeroMask(a.limbs[0] | a.limbs[1] | a.limbs[2] | a.limbs[3]);
  const uint64_t* m = modulus_.limbs.data();
  Carry borrow = 0;
  const uint64_t r0 = SubBorrow(m[0] & nonzero, a.limbs[0], borrow);
  const uint64_t r1 = SubBorrow(m[1] & nonzero, a.limbs[1], borrow);
  const uint64_t r2 = SubBorrow(m[2] & nonzero, a.limbs[2], borrow);
  const uint64_t r3 = SubBorrow(m[3] & nonzero, a.limbs[3], borrow);
  return U256{{r0, r1, r2, r3}};
}

U256 ModField::MontMul(const U256& a, const U256& b) const {
  if (p256_fast_) {
    return p256_field::MontMul(a, b);
  }
  uint64_t t[6];
  MontMulCios(a, b, modulus_, n0_inv_, t);
  U256 result{{t[0], t[1], t[2], t[3]}};
  U256 reduced;
  uint64_t borrow = SubWithBorrow(result, modulus_, &reduced);
  return ct::CtSelect(ct::NonZeroMask(t[4] | (borrow ^ 1)), reduced, result);
}

U256 ModField::MontSqr(const U256& a) const {
  if (p256_fast_) {
    return p256_field::MontSqr(a);
  }
  return MontMul(a, a);
}

U256 ModField::Mul(const U256& a, const U256& b) const {
  return FromMont(MontMul(ToMont(a), ToMont(b)));
}

U256 ModField::Exp(const U256& base, const U256& exponent) const {
  U256 result = ToMont(U256::One());
  U256 acc = ToMont(Reduce(base));
  int bits = exponent.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = MontMul(result, result);
    if (exponent.Bit(i)) {
      result = MontMul(result, acc);
    }
  }
  return FromMont(result);
}

U256 ModField::Inv(const U256& a) const {
  // Binary extended GCD (odd modulus), ~5x faster than the Fermat ladder:
  // ~1.5 shift-subtract iterations per bit instead of ~1.5 field
  // multiplications per bit.  Invariants: x1*a == u and x2*a == v (mod m),
  // with x1, x2 always in [0, m).
  U256 u = Reduce(a);
  if (u.IsZero()) {
    return u;  // matches Fermat: 0^(m-2) = 0, the "no inverse" convention
  }
  U256 v = modulus_;
  U256 x1 = U256::One();
  U256 x2 = U256::Zero();
  auto halve_mod = [this](U256& x) {
    // x/2 (mod m): for odd x, (x + m) is even and its true 257-bit value
    // halves into 256 bits.
    if (x.IsOdd()) {
      uint64_t carry = AddWithCarry(x, modulus_, &x);
      x = ShiftRight1(x);
      x.limbs[3] |= carry << 63;
    } else {
      x = ShiftRight1(x);
    }
  };
  while (!(u == U256::One()) && !(v == U256::One())) {
    while (!u.IsOdd()) {
      u = ShiftRight1(u);
      halve_mod(x1);
    }
    while (!v.IsOdd()) {
      v = ShiftRight1(v);
      halve_mod(x2);
    }
    // Both odd: subtract the smaller from the larger (difference is even,
    // so the next pass keeps shrinking it).
    if (u >= v) {
      SubWithBorrow(u, v, &u);
      x1 = Sub(x1, x2);
    } else {
      SubWithBorrow(v, u, &v);
      x2 = Sub(x2, x1);
    }
  }
  return u == U256::One() ? x1 : x2;
}

void ModField::BatchInv(U256* values, size_t n) const {
  // Forward pass: prefix[i] = product of the nonzero values before index i.
  std::vector<U256> prefix(n);
  U256 running = U256::One();
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = running;
    if (!values[i].IsZero()) {
      running = Mul(running, values[i]);
    }
  }
  U256 inv = Inv(running);
  // Backward pass: inv holds 1/prod(values[0..i]) entering iteration i.
  for (size_t i = n; i-- > 0;) {
    if (values[i].IsZero()) {
      continue;
    }
    U256 original = values[i];
    values[i] = Mul(inv, prefix[i]);
    inv = Mul(inv, original);
  }
}

void ModField::BatchInvMont(U256* values, size_t n) const {
  std::vector<U256> prefix(n);
  U256 running = ToMont(U256::One());
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = running;
    if (!values[i].IsZero()) {
      running = MontMul(running, values[i]);
    }
  }
  // (aR)^{-1}·R^2·R^{-1} = a^{-1}R: one normal-domain inversion re-lifted.
  U256 inv = ToMont(Inv(FromMont(running)));
  for (size_t i = n; i-- > 0;) {
    if (values[i].IsZero()) {
      continue;
    }
    U256 original = values[i];
    values[i] = MontMul(inv, prefix[i]);
    inv = MontMul(inv, original);
  }
}

bool ModField::Sqrt(const U256& a, U256* root) const {
  // Only the p ≡ 3 (mod 4) case is implemented (true for the P-256 prime);
  // other moduli would need Tonelli-Shanks.
  if ((modulus_.limbs[0] & 3) != 3) {
    return false;
  }
  U256 exp;
  AddWithCarry(modulus_, U256::One(), &exp);
  exp = ShiftRight1(ShiftRight1(exp));
  U256 candidate = Exp(a, exp);
  if (Mul(candidate, candidate) != Reduce(a)) {
    return false;
  }
  *root = candidate;
  return true;
}

U256 ModField::Reduce(const U256& a) const {
  if (a < modulus_) {
    return a;
  }
  U256 reduced;
  SubWithBorrow(a, modulus_, &reduced);
  // One subtraction suffices only if a < 2m; fall back to Montgomery for the
  // general case.
  if (reduced < modulus_) {
    return reduced;
  }
  std::array<uint64_t, 8> wide = {a.limbs[0], a.limbs[1], a.limbs[2], a.limbs[3], 0, 0, 0, 0};
  return ReduceWide(wide);
}

// ------------------------------------------------------- constant-time lane

U256 ModField::MontInvCt(const U256& a_mont) const {
  // Fermat: a^(m-2).  The exponent is the (public) modulus minus two, so
  // branching on its bits leaks nothing; the base is the secret, and every
  // multiplication it flows through is constant-time.  Fixed 256-round
  // ladder — no BitLength short-cut, even though it too would be public.
  // 0 maps to 0, matching Inv's convention.
  U256 e;
  SubWithBorrow(modulus_, U256::FromU64(2), &e);
  U256 result = ToMont(U256::One());
  for (int i = 255; i >= 0; --i) {
    result = MontSqrCt(result);
    if (e.Bit(i)) {
      result = MontMulCt(result, a_mont);
    }
  }
  return result;
}

U256 ModField::ReduceOnceCt(const U256& a) const {
  U256 reduced;
  uint64_t borrow = SubWithBorrow(a, modulus_, &reduced);
  // borrow means a < modulus: already reduced.
  return ct::CtSelect(ct::NonZeroMask(borrow), a, reduced);
}

U256 ModField::ReduceWide(const std::array<uint64_t, 8>& wide) const {
  // Split into hi * 2^256 + lo and use Montgomery identities:
  //   value mod m = MontMul(lo, R2)·R^{-1}... simpler: iterate binary.
  // We use: result = FromMont(ToMont(hi) * ToMont(R mod m)) + lo reduction.
  // For clarity (init-time / non-hot path), do simple shift-add reduction.
  U256 result = U256::Zero();
  for (int bit = 511; bit >= 0; --bit) {
    // result = result * 2 mod m
    U256 doubled;
    uint64_t carry = AddWithCarry(result, result, &doubled);
    U256 reduced;
    uint64_t borrow = SubWithBorrow(doubled, modulus_, &reduced);
    result = (carry != 0 || borrow == 0) ? reduced : doubled;
    // add current bit
    if ((wide[bit / 64] >> (bit % 64)) & 1) {
      U256 plus_one;
      carry = AddWithCarry(result, U256::One(), &plus_one);
      U256 reduced2;
      borrow = SubWithBorrow(plus_one, modulus_, &reduced2);
      result = (carry != 0 || borrow == 0) ? reduced2 : plus_one;
    }
  }
  return result;
}

}  // namespace prochlo
