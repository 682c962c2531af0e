// The P-256 prime field, inline: Montgomery multiplication and squaring,
// addition, subtraction and negation modulo
// p = 2^256 - 2^224 + 2^192 + 2^96 - 1.
//
// This is the one implementation of P-256 field arithmetic.  `ModField`'s
// P-256 branch (src/crypto/bignum.cc) calls it, and the point formulas in
// src/crypto/p256.cc call it directly, so the compiler sees every field op
// of a formula and can place independent ones side by side: the
// constant-time ladder runs two points in lockstep for exactly that.
//
// Carries go through two helpers, `AddCarry` and `SubBorrow`.  On x86-64
// they are the add-with-carry and subtract-with-borrow intrinsics (baseline
// ADC/SBB, not ADX), which GCC keeps in registers; elsewhere they are an
// `unsigned __int128` sum.  The same rounds written as `__int128`
// accumulations make GCC 12 spill the carry chains to the stack.
//
// Every routine is branch-free and ends in at most one masked correction,
// so one implementation serves public and secret operands alike.  Results
// are canonical (below p) for canonical inputs, and every routine computes
// the same function as the generic `ModField` code for any 256-bit input.
#ifndef PROCHLO_SRC_CRYPTO_P256_FIELD_H_
#define PROCHLO_SRC_CRYPTO_P256_FIELD_H_

#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/crypto/bignum.h"
#include "src/crypto/ct.h"

namespace prochlo {
namespace p256_field {

using Carry = unsigned char;

#if defined(__x86_64__)
// a + b + carry; carry becomes the carry-out.
[[gnu::always_inline]] inline uint64_t AddCarry(uint64_t a, uint64_t b, Carry& carry) {
  unsigned long long sum;
  carry = _addcarry_u64(carry, a, b, &sum);
  return sum;
}
// a - b - borrow; borrow becomes the borrow-out.
[[gnu::always_inline]] inline uint64_t SubBorrow(uint64_t a, uint64_t b, Carry& borrow) {
  unsigned long long diff;
  borrow = _subborrow_u64(borrow, a, b, &diff);
  return diff;
}
#else
[[gnu::always_inline]] inline uint64_t AddCarry(uint64_t a, uint64_t b, Carry& carry) {
  const unsigned __int128 sum = static_cast<unsigned __int128>(a) + b + carry;
  carry = static_cast<Carry>(sum >> 64);
  return static_cast<uint64_t>(sum);
}
[[gnu::always_inline]] inline uint64_t SubBorrow(uint64_t a, uint64_t b, Carry& borrow) {
  const unsigned __int128 diff = static_cast<unsigned __int128>(a) - b - borrow;
  borrow = static_cast<Carry>((diff >> 64) & 1);
  return static_cast<uint64_t>(diff);
}
#endif

// a * b: returns the low word and stores the high word in `hi`.
[[gnu::always_inline]] inline uint64_t MulWord(uint64_t a, uint64_t b, uint64_t& hi) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  hi = static_cast<uint64_t>(product >> 64);
  return static_cast<uint64_t>(product);
}

// The prime's limbs (limb 2 is zero) and R mod p = 2^256 - p, the
// Montgomery form of 1.
constexpr uint64_t kP0 = 0xFFFFFFFFFFFFFFFFull;
constexpr uint64_t kP1 = 0x00000000FFFFFFFFull;
constexpr uint64_t kP3 = 0xFFFFFFFF00000001ull;
constexpr U256 kPrime{{kP0, kP1, 0, kP3}};
constexpr U256 kOneMont{{1, 0xFFFFFFFF00000000ull, 0xFFFFFFFFFFFFFFFFull, 0x00000000FFFFFFFEull}};

// t = t4:t3:t2:t1:t0 (t4 is 0 or 1) minus p, unless t is already below p.
[[gnu::always_inline]] inline U256 SubPrimeOnce(uint64_t t0, uint64_t t1, uint64_t t2,
                                                uint64_t t3, uint64_t t4) {
  Carry borrow = 0;
  const uint64_t r0 = SubBorrow(t0, kP0, borrow);
  const uint64_t r1 = SubBorrow(t1, kP1, borrow);
  const uint64_t r2 = SubBorrow(t2, 0, borrow);
  const uint64_t r3 = SubBorrow(t3, kP3, borrow);
  // Keep t when nothing is in t4 and the subtract borrowed.
  const uint64_t keep = ct::NonZeroMask((t4 ^ 1) & borrow);
  return U256{{ct::CtSelect(keep, t0, r0), ct::CtSelect(keep, t1, r1), ct::CtSelect(keep, t2, r2),
               ct::CtSelect(keep, t3, r3)}};
}

// a * b / 2^256 mod p by CIOS: each round adds one limb of a times b and
// reduces one limb away.  -p^{-1} = 1 mod 2^64, so the round's quotient
// digit m is the low limb, and the sparse limbs turn t + m*p (whose low limb
// is zero by construction) shifted down one limb into
//   (t >> 64) + (m << 32) + (m * p[3]) << 128,
// one short carry chain.  Every round keeps t below 2^257, so one masked
// subtract finishes it.
[[gnu::always_inline]] inline U256 MontMul(const U256& a, const U256& b) {
  const uint64_t b0 = b.limbs[0], b1 = b.limbs[1], b2 = b.limbs[2], b3 = b.limbs[3];
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  for (int i = 0; i < 4; ++i) {
    const uint64_t ai = a.limbs[i];
    uint64_t h0, h1, h2, h3;
    const uint64_t l0 = MulWord(ai, b0, h0);
    const uint64_t l1 = MulWord(ai, b1, h1);
    const uint64_t l2 = MulWord(ai, b2, h2);
    const uint64_t l3 = MulWord(ai, b3, h3);
    // s = t + ai*b: the low words in one carry chain, the high words (one
    // limb up) in a second.
    Carry c = 0;
    const uint64_t m = AddCarry(t0, l0, c);
    uint64_t s1 = AddCarry(t1, l1, c);
    uint64_t s2 = AddCarry(t2, l2, c);
    uint64_t s3 = AddCarry(t3, l3, c);
    uint64_t s4 = AddCarry(t4, 0, c);
    uint64_t s5 = c;
    c = 0;
    s1 = AddCarry(s1, h0, c);
    s2 = AddCarry(s2, h1, c);
    s3 = AddCarry(s3, h2, c);
    s4 = AddCarry(s4, h3, c);
    s5 += c;
    // t = (s + m*p) >> 64.
    uint64_t mp3_hi;
    const uint64_t mp3_lo = MulWord(m, kP3, mp3_hi);
    c = 0;
    t0 = AddCarry(s1, m << 32, c);
    t1 = AddCarry(s2, m >> 32, c);
    t2 = AddCarry(s3, mp3_lo, c);
    t3 = AddCarry(s4, mp3_hi, c);
    t4 = s5 + c;
  }
  return SubPrimeOnce(t0, t1, t2, t3, t4);
}

// a * a / 2^256 mod p, equal to MontMul(a, a): the 512-bit square from 10
// word products (the 6 cross products once, doubled, plus the 4 diagonal
// squares), then 4 reduction rounds and one masked subtract.  A reduction
// round takes the window's low limb m and replaces the window w by
// (w + m*p) >> 64 = (w >> 64) + (m << 32) + (m * p[3]) << 128, which stays
// below 2^256, so the window is four limbs throughout.
[[gnu::always_inline]] inline U256 MontSqr(const U256& a) {
  const uint64_t a0 = a.limbs[0], a1 = a.limbs[1], a2 = a.limbs[2], a3 = a.limbs[3];
  uint64_t h01, h02, h03, h12, h13, h23;
  const uint64_t l01 = MulWord(a0, a1, h01);
  const uint64_t l02 = MulWord(a0, a2, h02);
  const uint64_t l03 = MulWord(a0, a3, h03);
  const uint64_t l12 = MulWord(a1, a2, h12);
  const uint64_t l13 = MulWord(a1, a3, h13);
  const uint64_t l23 = MulWord(a2, a3, h23);
  // The cross products into w1..w6: a0 * (a1, a2, a3) from limb 1, then
  // a1 * (a2, a3) + a2 * a3 * 2^128 (below 2^256, so x3..x6) from limb 3.
  Carry c = 0;
  uint64_t w1 = l01;
  uint64_t w2 = AddCarry(h01, l02, c);
  uint64_t w3 = AddCarry(h02, l03, c);
  uint64_t w4 = AddCarry(h03, 0, c);
  c = 0;
  const uint64_t x4 = AddCarry(h12, l13, c);
  const uint64_t x5 = AddCarry(h13, l23, c);
  const uint64_t x6 = AddCarry(h23, 0, c);
  c = 0;
  w3 = AddCarry(w3, l12, c);
  w4 = AddCarry(w4, x4, c);
  uint64_t w5 = AddCarry(x5, 0, c);
  uint64_t w6 = AddCarry(x6, 0, c);
  // Doubled, into w1..w7.
  uint64_t w7 = w6 >> 63;
  w6 = (w6 << 1) | (w5 >> 63);
  w5 = (w5 << 1) | (w4 >> 63);
  w4 = (w4 << 1) | (w3 >> 63);
  w3 = (w3 << 1) | (w2 >> 63);
  w2 = (w2 << 1) | (w1 >> 63);
  w1 <<= 1;
  // Plus the squares a_i^2 at limbs 2i and 2i + 1.
  uint64_t d0, d1, d2, d3;
  uint64_t w0 = MulWord(a0, a0, d0);
  const uint64_t e1 = MulWord(a1, a1, d1);
  const uint64_t e2 = MulWord(a2, a2, d2);
  const uint64_t e3 = MulWord(a3, a3, d3);
  c = 0;
  w1 = AddCarry(w1, d0, c);
  w2 = AddCarry(w2, e1, c);
  w3 = AddCarry(w3, d1, c);
  w4 = AddCarry(w4, e2, c);
  w5 = AddCarry(w5, d2, c);
  w6 = AddCarry(w6, e3, c);
  w7 = AddCarry(w7, d3, c);
  // Reduce the low half: four rounds on a sliding four-limb window.
  for (int i = 0; i < 4; ++i) {
    const uint64_t m = w0;
    uint64_t mp3_hi;
    const uint64_t mp3_lo = MulWord(m, kP3, mp3_hi);
    c = 0;
    w0 = AddCarry(w1, m << 32, c);
    w1 = AddCarry(w2, m >> 32, c);
    w2 = AddCarry(w3, mp3_lo, c);
    w3 = AddCarry(mp3_hi, 0, c);
  }
  // Plus the high half.
  c = 0;
  const uint64_t t0 = AddCarry(w0, w4, c);
  const uint64_t t1 = AddCarry(w1, w5, c);
  const uint64_t t2 = AddCarry(w2, w6, c);
  const uint64_t t3 = AddCarry(w3, w7, c);
  return SubPrimeOnce(t0, t1, t2, t3, c);
}

// a + b mod p.
[[gnu::always_inline]] inline U256 Add(const U256& a, const U256& b) {
  Carry carry = 0;
  const uint64_t s0 = AddCarry(a.limbs[0], b.limbs[0], carry);
  const uint64_t s1 = AddCarry(a.limbs[1], b.limbs[1], carry);
  const uint64_t s2 = AddCarry(a.limbs[2], b.limbs[2], carry);
  const uint64_t s3 = AddCarry(a.limbs[3], b.limbs[3], carry);
  return SubPrimeOnce(s0, s1, s2, s3, carry);
}

// a - b mod p.
[[gnu::always_inline]] inline U256 Sub(const U256& a, const U256& b) {
  Carry borrow = 0;
  const uint64_t d0 = SubBorrow(a.limbs[0], b.limbs[0], borrow);
  const uint64_t d1 = SubBorrow(a.limbs[1], b.limbs[1], borrow);
  const uint64_t d2 = SubBorrow(a.limbs[2], b.limbs[2], borrow);
  const uint64_t d3 = SubBorrow(a.limbs[3], b.limbs[3], borrow);
  // Add p back when the subtraction wrapped.
  const uint64_t wrap = ct::NonZeroMask(borrow);
  Carry carry = 0;
  const uint64_t r0 = AddCarry(d0, kP0 & wrap, carry);
  const uint64_t r1 = AddCarry(d1, kP1 & wrap, carry);
  const uint64_t r2 = AddCarry(d2, 0, carry);
  const uint64_t r3 = AddCarry(d3, kP3 & wrap, carry);
  return U256{{r0, r1, r2, r3}};
}

// -a mod p: p - a, except that 0 stays 0.
[[gnu::always_inline]] inline U256 Neg(const U256& a) {
  const uint64_t nonzero = ct::NonZeroMask(a.limbs[0] | a.limbs[1] | a.limbs[2] | a.limbs[3]);
  Carry borrow = 0;
  const uint64_t r0 = SubBorrow(kP0 & nonzero, a.limbs[0], borrow);
  const uint64_t r1 = SubBorrow(kP1 & nonzero, a.limbs[1], borrow);
  const uint64_t r2 = SubBorrow(0, a.limbs[2], borrow);
  const uint64_t r3 = SubBorrow(kP3 & nonzero, a.limbs[3], borrow);
  return U256{{r0, r1, r2, r3}};
}

}  // namespace p256_field
}  // namespace prochlo

#endif  // PROCHLO_SRC_CRYPTO_P256_FIELD_H_
