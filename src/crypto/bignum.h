// Fixed-width 256-bit integers and modular arithmetic.
//
// This is the arithmetic substrate for the NIST P-256 curve (src/crypto/p256)
// and for the prime-field Shamir secret sharing of §4.2.  `ModField`
// implements Montgomery multiplication for any odd 256-bit modulus.
//
// NOTE on timing: the field operations (Add/Sub/Neg/MontMul/MontSqr and
// everything built from them) are branch-free for every modulus — each ends
// in one masked conditional correction — so public and `Secret<U256>` data
// share one implementation.  The `*Ct` names are aliases that mark the call
// sites relying on that.  Inv (binary xGCD), Exp, Sqrt and BatchInv[Mont]
// branch on their operands and are for public values only; MontInvCt is the
// constant-time inverse.  See src/crypto/ct.h and docs/constant-time.md for
// the policy.
#ifndef PROCHLO_SRC_CRYPTO_BIGNUM_H_
#define PROCHLO_SRC_CRYPTO_BIGNUM_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace prochlo {

// Unsigned 256-bit integer, little-endian 64-bit limbs.
struct U256 {
  std::array<uint64_t, 4> limbs = {0, 0, 0, 0};

  static U256 Zero() { return U256{}; }
  static U256 One() { return U256{{1, 0, 0, 0}}; }
  static U256 FromU64(uint64_t v) { return U256{{v, 0, 0, 0}}; }

  // Big-endian 32-byte conversion (the standard wire form for P-256).
  static U256 FromBytes(ByteSpan be32);
  std::array<uint8_t, 32> ToBytes() const;

  // Big-endian hex (no 0x prefix); accepts up to 64 hex digits.
  static U256 FromHex(const std::string& hex);
  std::string ToHex() const;

  bool IsZero() const { return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0; }
  bool IsOdd() const { return (limbs[0] & 1) != 0; }
  bool Bit(int i) const { return ((limbs[i / 64] >> (i % 64)) & 1) != 0; }
  // Index of highest set bit, or -1 for zero.
  int BitLength() const;

  bool operator==(const U256&) const = default;
  std::strong_ordering operator<=>(const U256& other) const;
};

// a + b, returning the carry-out.  Inline: these limb primitives sit under
// every field addition inside the curve formulas, where an out-of-line call
// costs as much as the arithmetic.
inline uint64_t AddWithCarry(const U256& a, const U256& b, U256* out) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t sum = static_cast<__uint128_t>(a.limbs[i]) + b.limbs[i] + carry;
    out->limbs[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  return carry;
}
// a - b, returning the borrow-out.
inline uint64_t SubWithBorrow(const U256& a, const U256& b, U256* out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t diff = static_cast<__uint128_t>(a.limbs[i]) - b.limbs[i] - borrow;
    out->limbs[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>((diff >> 64) & 1);
  }
  return borrow;
}
// Full 256x256 -> 512-bit product (little-endian 8 limbs).
std::array<uint64_t, 8> MulWide(const U256& a, const U256& b);
// Logical right shift by one bit.
inline U256 ShiftRight1(const U256& a) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs[i] = a.limbs[i] >> 1;
    if (i < 3) {
      out.limbs[i] |= a.limbs[i + 1] << 63;
    }
  }
  return out;
}

// Modular arithmetic for an odd 256-bit modulus, Montgomery-based.
// All public entry points take and return values in the *normal* domain.
class ModField {
 public:
  explicit ModField(const U256& modulus);

  const U256& modulus() const { return modulus_; }

  U256 Add(const U256& a, const U256& b) const;
  U256 Sub(const U256& a, const U256& b) const;
  U256 Neg(const U256& a) const;
  U256 Mul(const U256& a, const U256& b) const;
  U256 Sqr(const U256& a) const { return Mul(a, a); }
  U256 Exp(const U256& base, const U256& exponent) const;
  // Inverse via binary extended GCD (modulus must be prime; returns 0 for
  // 0, matching the Fermat convention it replaced).
  U256 Inv(const U256& a) const;
  // Square root for primes p ≡ 3 (mod 4); returns false if `a` is a
  // non-residue.
  bool Sqrt(const U256& a, U256* root) const;

  // Simultaneous inversion (Montgomery's trick): replaces every nonzero
  // entry with its modular inverse at the cost of ONE field inversion plus
  // 3(n-1) multiplications, instead of n inversions.  Zero entries are left
  // untouched.  This is what makes batch affine conversion of elliptic-curve
  // points cheap (see P256::BatchNormalize).
  void BatchInv(U256* values, size_t n) const;
  // Montgomery-domain variant: entries and results are in the Montgomery
  // domain, and only MontMul is used for the products.
  void BatchInvMont(U256* values, size_t n) const;

  // Reduces an arbitrary 256-bit value into [0, modulus).
  U256 Reduce(const U256& a) const;
  // Reduces a 512-bit value (little-endian limbs) modulo the modulus.
  U256 ReduceWide(const std::array<uint64_t, 8>& wide) const;

  // Montgomery-domain primitives, exposed for hot loops (the P-256 point
  // arithmetic keeps coordinates in the Montgomery domain throughout a scalar
  // multiplication and converts only at the edges).  When the modulus is the
  // P-256 prime, MontMul and MontSqr call the inline P-256 field core
  // (src/crypto/p256_field.h): a CIOS specialised to the prime's sparse limbs
  // and a dedicated squaring, both inline asm on x86-64.  Other moduli take
  // the generic CIOS, and MontSqr(a) is MontMul(a, a).
  U256 MontMul(const U256& a, const U256& b) const;
  U256 MontSqr(const U256& a) const;
  U256 ToMont(const U256& a) const { return MontMul(a, r2_); }
  U256 FromMont(const U256& a) const { return MontMul(a, U256::One()); }

  // ------------------------------------------------- constant-time lane
  //
  // The operations above are already constant-time; these names say so at
  // the call sites that depend on it (everything touching Secret<> data).
  U256 AddCt(const U256& a, const U256& b) const { return Add(a, b); }
  U256 SubCt(const U256& a, const U256& b) const { return Sub(a, b); }
  U256 NegCt(const U256& a) const { return Neg(a); }
  U256 MontMulCt(const U256& a, const U256& b) const { return MontMul(a, b); }
  U256 MontSqrCt(const U256& a) const { return MontSqr(a); }
  U256 ToMontCt(const U256& a) const { return MontMul(a, r2_); }
  U256 FromMontCt(const U256& a) const { return MontMul(a, U256::One()); }
  // Montgomery-domain inverse via the Fermat ladder (modulus must be prime):
  // the exponent m-2 is public, so its bits may drive control flow; every
  // multiplication on the secret base uses the Ct primitives.  0 maps to 0.
  U256 MontInvCt(const U256& a_mont) const;
  // Reduces a < 2m into [0, m) with one masked subtract.
  U256 ReduceOnceCt(const U256& a) const;

 private:
  U256 modulus_;
  uint64_t n0_inv_;   // -modulus^{-1} mod 2^64
  U256 r2_;           // R^2 mod modulus, R = 2^256
  bool p256_fast_;    // modulus is the P-256 prime: the P-256 field core applies
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_BIGNUM_H_
