// The P-256 prime field, inline: Montgomery multiplication and squaring,
// addition, subtraction and negation modulo
// p = 2^256 - 2^224 + 2^192 + 2^96 - 1.
//
// This is the one implementation of P-256 field arithmetic.  `ModField`'s
// P-256 branch (src/crypto/bignum.cc) calls it, and the point formulas in
// src/crypto/p256.cc call it directly, so every field op of a formula is
// inlined into it.
//
// On x86-64, `MontMul`, `MontSqr`, `Add` and `Sub` are GCC extended inline
// asm on baseline instructions only (`mulq`, `add`/`adc`, `sub`/`sbb`,
// `shl`/`shr`, `cmov`; no ADX, no BMI2, no `-march`, no runtime dispatch),
// in the hand-scheduled `mulq`/`adc` form of Gueron and Krasnov's P-256
// (J. Cryptogr. Eng. 5(2), 2015).  Each carry chain runs unbroken in the
// flags, which compiled C cannot express: GCC saves and re-creates carries
// between chains (`setb`, `add $0xff`) and spills the limbs to the stack.
// Every limb is an `"rm"` operand, so a value the compiler holds in a
// register (often the result of the previous op) goes in without a store
// and reload; results come back in registers.  No address depends on an
// operand's value.
//
// The C bodies are `p256_field::portable::`, compiled on every target: they
// are the implementation off x86-64 and the reference the asm is tested
// against (tests/crypto_bignum_test.cc, `P256FieldTest`).  Their carries go
// through `AddCarry` and `SubBorrow`: the add-with-carry intrinsics on
// x86-64 and an `unsigned __int128` sum elsewhere.
//
// Every routine is branch-free and ends in at most one masked correction,
// so one implementation serves public and secret operands alike.  Results
// are canonical (below p) for canonical inputs, and for any 256-bit inputs
// the asm returns exactly what the portable body returns, which is what the
// generic `ModField` code computes.
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

// The C bodies.
namespace portable {

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

}  // namespace portable

#if defined(__x86_64__)

// Asm template pieces.  Every register and input limb is a named operand
// (`a0` is a.limbs[0]); a macro argument names one (`acc0`), and the piece
// spells it `%[acc0]`.

// t - p unless t4:t3:t2:t1:t0 < p, with t4 0 or 1: `sub`/`sbb` against p,
// the borrow run on through t4, and four `cmov`s back to the copies
// c0..c3 of t when it borrowed.
#define PROCHLO_FE_SUB_PRIME_ONCE(t0, t1, t2, t3, t4, c0, c1, c2, c3) \
  "movq %[" #t0 "], %[" #c0 "]\n\t"                                   \
  "movq %[" #t1 "], %[" #c1 "]\n\t"                                   \
  "movq %[" #t2 "], %[" #c2 "]\n\t"                                   \
  "movq %[" #t3 "], %[" #c3 "]\n\t"                                   \
  "subq $-1, %[" #t0 "]\n\t"                                          \
  "sbbq %[p1], %[" #t1 "]\n\t"                                        \
  "sbbq $0, %[" #t2 "]\n\t"                                           \
  "sbbq %[p3], %[" #t3 "]\n\t"                                        \
  "sbbq $0, %[" #t4 "]\n\t"                                           \
  "cmovcq %[" #c0 "], %[" #t0 "]\n\t"                                 \
  "cmovcq %[" #c1 "], %[" #t1 "]\n\t"                                 \
  "cmovcq %[" #c2 "], %[" #t2 "]\n\t"                                 \
  "cmovcq %[" #c3 "], %[" #t3 "]\n\t"

// One CIOS reduction on the window w5:w4:w3:w2:w1:w0: with m = w0 it
// becomes (w + m*p) >> 64, which is (w >> 64) + (m << 32) + (m * p[3]) << 128,
// one `mulq` and one carry chain, in w5:w4:w3:w2:w1 (below 2^257, so w5 is 0
// or 1).  w0 is left free.
#define PROCHLO_FE_MUL_REDUCE(w0, w1, w2, w3, w4, w5) \
  "movq %[" #w0 "], %[ax]\n\t"                        \
  "mulq %[p3]\n\t"                                    \
  "movq %[" #w0 "], %[t0]\n\t"                        \
  "shlq $32, %[" #w0 "]\n\t"                          \
  "shrq $32, %[t0]\n\t"                               \
  "addq %[" #w0 "], %[" #w1 "]\n\t"                   \
  "adcq %[t0], %[" #w2 "]\n\t"                        \
  "adcq %[ax], %[" #w3 "]\n\t"                        \
  "adcq %[dx], %[" #w4 "]\n\t"                        \
  "adcq $0, %[" #w5 "]\n\t"

// w5:w4:w3:w2:w1:w0 = w4:w3:w2:w1:w0 + ai * b: each word product's high
// half takes the carry of its low half and passes on through t0.
#define PROCHLO_FE_MUL_ROW(ai, w0, w1, w2, w3, w4, w5) \
  "xorl %k[" #w5 "], %k[" #w5 "]\n\t"                  \
  "movq %[" #ai "], %[ax]\n\t"                         \
  "mulq %[b0]\n\t"                                     \
  "addq %[ax], %[" #w0 "]\n\t"                         \
  "adcq $0, %[dx]\n\t"                                 \
  "movq %[dx], %[t0]\n\t"                              \
  "movq %[" #ai "], %[ax]\n\t"                         \
  "mulq %[b1]\n\t"                                     \
  "addq %[t0], %[" #w1 "]\n\t"                         \
  "adcq $0, %[dx]\n\t"                                 \
  "addq %[ax], %[" #w1 "]\n\t"                         \
  "adcq $0, %[dx]\n\t"                                 \
  "movq %[dx], %[t0]\n\t"                              \
  "movq %[" #ai "], %[ax]\n\t"                         \
  "mulq %[b2]\n\t"                                     \
  "addq %[t0], %[" #w2 "]\n\t"                         \
  "adcq $0, %[dx]\n\t"                                 \
  "addq %[ax], %[" #w2 "]\n\t"                         \
  "adcq $0, %[dx]\n\t"                                 \
  "movq %[dx], %[t0]\n\t"                              \
  "movq %[" #ai "], %[ax]\n\t"                         \
  "mulq %[b3]\n\t"                                     \
  "addq %[t0], %[" #w3 "]\n\t"                         \
  "adcq $0, %[dx]\n\t"                                 \
  "addq %[ax], %[" #w3 "]\n\t"                         \
  "adcq %[dx], %[" #w4 "]\n\t"                         \
  "adcq $0, %[" #w5 "]\n\t"

// One reduction round of the squaring on the four-limb window
// w3:w2:w1:w0: with m = w0 it becomes (w + m*p) >> 64, below 2^256, in
// w0:w3:w2:w1.
#define PROCHLO_FE_SQR_REDUCE(w0, w1, w2, w3) \
  "movq %[" #w0 "], %[ax]\n\t"                \
  "mulq %[p3]\n\t"                            \
  "movq %[" #w0 "], %[t0]\n\t"                \
  "shlq $32, %[" #w0 "]\n\t"                  \
  "shrq $32, %[t0]\n\t"                       \
  "addq %[" #w0 "], %[" #w1 "]\n\t"           \
  "adcq %[t0], %[" #w2 "]\n\t"                \
  "adcq %[ax], %[" #w3 "]\n\t"                \
  "adcq $0, %[dx]\n\t"                        \
  "movq %[dx], %[" #w0 "]\n\t"

// a * b / 2^256 mod p: the portable CIOS rounds, a row of a[i] * b and one
// reduction each, on a six-register window that rotates one limb a round.
[[gnu::always_inline]] inline U256 MontMul(const U256& a, const U256& b) {
  uint64_t acc0, acc1, acc2, acc3, acc4, acc5, t0, ax, dx;
  __asm__(
      // Round 0: acc4:acc3:acc2:acc1:acc0 = a[0] * b.
      "movq %[a0], %[ax]\n\t"
      "mulq %[b0]\n\t"
      "movq %[ax], %[acc0]\n\t"
      "movq %[dx], %[acc1]\n\t"
      "movq %[a0], %[ax]\n\t"
      "mulq %[b1]\n\t"
      "addq %[ax], %[acc1]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc2]\n\t"
      "movq %[a0], %[ax]\n\t"
      "mulq %[b2]\n\t"
      "addq %[ax], %[acc2]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc3]\n\t"
      "movq %[a0], %[ax]\n\t"
      "mulq %[b3]\n\t"
      "addq %[ax], %[acc3]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc4]\n\t"
      "xorl %k[acc5], %k[acc5]\n\t"
      PROCHLO_FE_MUL_REDUCE(acc0, acc1, acc2, acc3, acc4, acc5)
      // Rounds 1-3.
      PROCHLO_FE_MUL_ROW(a1, acc1, acc2, acc3, acc4, acc5, acc0)
      PROCHLO_FE_MUL_REDUCE(acc1, acc2, acc3, acc4, acc5, acc0)
      PROCHLO_FE_MUL_ROW(a2, acc2, acc3, acc4, acc5, acc0, acc1)
      PROCHLO_FE_MUL_REDUCE(acc2, acc3, acc4, acc5, acc0, acc1)
      PROCHLO_FE_MUL_ROW(a3, acc3, acc4, acc5, acc0, acc1, acc2)
      PROCHLO_FE_MUL_REDUCE(acc3, acc4, acc5, acc0, acc1, acc2)
      // t = acc2:acc1:acc0:acc5:acc4, below 2^257.
      PROCHLO_FE_SUB_PRIME_ONCE(acc4, acc5, acc0, acc1, acc2, acc3, t0, ax, dx)
      : [acc0] "=&r"(acc0), [acc1] "=&r"(acc1), [acc2] "=&r"(acc2), [acc3] "=&r"(acc3),
        [acc4] "=&r"(acc4), [acc5] "=&r"(acc5), [t0] "=&r"(t0), [ax] "=&a"(ax), [dx] "=&d"(dx)
      : [a0] "rm"(a.limbs[0]), [a1] "rm"(a.limbs[1]), [a2] "rm"(a.limbs[2]), [a3] "rm"(a.limbs[3]),
        [b0] "rm"(b.limbs[0]), [b1] "rm"(b.limbs[1]), [b2] "rm"(b.limbs[2]), [b3] "rm"(b.limbs[3]),
        [p1] "m"(kP1), [p3] "m"(kP3)
      : "cc");
  return U256{{acc4, acc5, acc0, acc1}};
}

// a * a / 2^256 mod p, equal to MontMul(a, a): the portable squaring's 6
// cross products (doubled) and 4 diagonal squares into acc7..acc0, 4
// reduction rounds on the low half, plus the high half, one correction.
[[gnu::always_inline]] inline U256 MontSqr(const U256& a) {
  uint64_t acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7, t0, ax, dx;
  __asm__(
      // a[0] * (a[1], a[2], a[3]) into acc4..acc1.
      "movq %[a0], %[ax]\n\t"
      "mulq %[a1]\n\t"
      "movq %[ax], %[acc1]\n\t"
      "movq %[dx], %[acc2]\n\t"
      "movq %[a0], %[ax]\n\t"
      "mulq %[a2]\n\t"
      "addq %[ax], %[acc2]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc3]\n\t"
      "movq %[a0], %[ax]\n\t"
      "mulq %[a3]\n\t"
      "addq %[ax], %[acc3]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc4]\n\t"
      // Plus a[1] * (a[2], a[3]) from limb 3 into acc5..acc3.
      "movq %[a1], %[ax]\n\t"
      "mulq %[a2]\n\t"
      "addq %[ax], %[acc3]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[t0]\n\t"
      "movq %[a1], %[ax]\n\t"
      "mulq %[a3]\n\t"
      "addq %[t0], %[acc4]\n\t"
      "adcq $0, %[dx]\n\t"
      "addq %[ax], %[acc4]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc5]\n\t"
      // Plus a[2] * a[3] from limb 5 into acc6..acc5.
      "movq %[a2], %[ax]\n\t"
      "mulq %[a3]\n\t"
      "addq %[ax], %[acc5]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[acc6]\n\t"
      // Doubled into acc7..acc1.
      "xorl %k[acc7], %k[acc7]\n\t"
      "addq %[acc1], %[acc1]\n\t"
      "adcq %[acc2], %[acc2]\n\t"
      "adcq %[acc3], %[acc3]\n\t"
      "adcq %[acc4], %[acc4]\n\t"
      "adcq %[acc5], %[acc5]\n\t"
      "adcq %[acc6], %[acc6]\n\t"
      "adcq $0, %[acc7]\n\t"
      // Plus the squares a[i]^2 at limbs 2i and 2i + 1.
      "movq %[a0], %[ax]\n\t"
      "mulq %[ax]\n\t"
      "movq %[ax], %[acc0]\n\t"
      "movq %[dx], %[t0]\n\t"
      "movq %[a1], %[ax]\n\t"
      "mulq %[ax]\n\t"
      "addq %[t0], %[acc1]\n\t"
      "adcq %[ax], %[acc2]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[t0]\n\t"
      "movq %[a2], %[ax]\n\t"
      "mulq %[ax]\n\t"
      "addq %[t0], %[acc3]\n\t"
      "adcq %[ax], %[acc4]\n\t"
      "adcq $0, %[dx]\n\t"
      "movq %[dx], %[t0]\n\t"
      "movq %[a3], %[ax]\n\t"
      "mulq %[ax]\n\t"
      "addq %[t0], %[acc5]\n\t"
      "adcq %[ax], %[acc6]\n\t"
      "adcq %[dx], %[acc7]\n\t"
      // Reduce the low half acc3..acc0: four rounds, and the window rotates
      // back to acc3:acc2:acc1:acc0.
      PROCHLO_FE_SQR_REDUCE(acc0, acc1, acc2, acc3)
      PROCHLO_FE_SQR_REDUCE(acc1, acc2, acc3, acc0)
      PROCHLO_FE_SQR_REDUCE(acc2, acc3, acc0, acc1)
      PROCHLO_FE_SQR_REDUCE(acc3, acc0, acc1, acc2)
      // Plus the high half, its carry in t0.
      "xorl %k[t0], %k[t0]\n\t"
      "addq %[acc4], %[acc0]\n\t"
      "adcq %[acc5], %[acc1]\n\t"
      "adcq %[acc6], %[acc2]\n\t"
      "adcq %[acc7], %[acc3]\n\t"
      "adcq $0, %[t0]\n\t"
      PROCHLO_FE_SUB_PRIME_ONCE(acc0, acc1, acc2, acc3, t0, acc4, acc5, acc6, acc7)
      : [acc0] "=&r"(acc0), [acc1] "=&r"(acc1), [acc2] "=&r"(acc2), [acc3] "=&r"(acc3),
        [acc4] "=&r"(acc4), [acc5] "=&r"(acc5), [acc6] "=&r"(acc6), [acc7] "=&r"(acc7),
        [t0] "=&r"(t0), [ax] "=&a"(ax), [dx] "=&d"(dx)
      : [a0] "rm"(a.limbs[0]), [a1] "rm"(a.limbs[1]), [a2] "rm"(a.limbs[2]), [a3] "rm"(a.limbs[3]),
        [p1] "m"(kP1), [p3] "m"(kP3)
      : "cc");
  return U256{{acc0, acc1, acc2, acc3}};
}

// a + b mod p: the 257-bit sum, then one correction.
[[gnu::always_inline]] inline U256 Add(const U256& a, const U256& b) {
  uint64_t r0, r1, r2, r3, carry, c0, c1, c2, c3;
  __asm__(
      "movq %[a0], %[r0]\n\t"
      "movq %[a1], %[r1]\n\t"
      "movq %[a2], %[r2]\n\t"
      "movq %[a3], %[r3]\n\t"
      "xorl %k[carry], %k[carry]\n\t"
      "addq %[b0], %[r0]\n\t"
      "adcq %[b1], %[r1]\n\t"
      "adcq %[b2], %[r2]\n\t"
      "adcq %[b3], %[r3]\n\t"
      "adcq $0, %[carry]\n\t"
      PROCHLO_FE_SUB_PRIME_ONCE(r0, r1, r2, r3, carry, c0, c1, c2, c3)
      : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3), [carry] "=&r"(carry),
        [c0] "=&r"(c0), [c1] "=&r"(c1), [c2] "=&r"(c2), [c3] "=&r"(c3)
      : [a0] "rm"(a.limbs[0]), [a1] "rm"(a.limbs[1]), [a2] "rm"(a.limbs[2]), [a3] "rm"(a.limbs[3]),
        [b0] "rm"(b.limbs[0]), [b1] "rm"(b.limbs[1]), [b2] "rm"(b.limbs[2]), [b3] "rm"(b.limbs[3]),
        [p1] "m"(kP1), [p3] "m"(kP3)
      : "cc");
  return U256{{r0, r1, r2, r3}};
}

// a - b mod p: the 256-bit difference, and p added back under the mask of
// its borrow.
[[gnu::always_inline]] inline U256 Sub(const U256& a, const U256& b) {
  uint64_t r0, r1, r2, r3, wrap, t1, t3;
  __asm__(
      "movq %[a0], %[r0]\n\t"
      "movq %[a1], %[r1]\n\t"
      "movq %[a2], %[r2]\n\t"
      "movq %[a3], %[r3]\n\t"
      "xorl %k[wrap], %k[wrap]\n\t"
      "subq %[b0], %[r0]\n\t"
      "sbbq %[b1], %[r1]\n\t"
      "sbbq %[b2], %[r2]\n\t"
      "sbbq %[b3], %[r3]\n\t"
      // wrap = all ones if it borrowed, else zero; then p & wrap is wrap,
      // wrap's low half, 0 and p[3] & wrap.
      "sbbq $0, %[wrap]\n\t"
      "movl %k[wrap], %k[t1]\n\t"
      "movq %[wrap], %[t3]\n\t"
      "andq %[p3], %[t3]\n\t"
      "addq %[wrap], %[r0]\n\t"
      "adcq %[t1], %[r1]\n\t"
      "adcq $0, %[r2]\n\t"
      "adcq %[t3], %[r3]\n\t"
      : [r0] "=&r"(r0), [r1] "=&r"(r1), [r2] "=&r"(r2), [r3] "=&r"(r3), [wrap] "=&r"(wrap),
        [t1] "=&r"(t1), [t3] "=&r"(t3)
      : [a0] "rm"(a.limbs[0]), [a1] "rm"(a.limbs[1]), [a2] "rm"(a.limbs[2]), [a3] "rm"(a.limbs[3]),
        [b0] "rm"(b.limbs[0]), [b1] "rm"(b.limbs[1]), [b2] "rm"(b.limbs[2]), [b3] "rm"(b.limbs[3]),
        [p3] "m"(kP3)
      : "cc");
  return U256{{r0, r1, r2, r3}};
}

#undef PROCHLO_FE_SUB_PRIME_ONCE
#undef PROCHLO_FE_MUL_REDUCE
#undef PROCHLO_FE_MUL_ROW
#undef PROCHLO_FE_SQR_REDUCE

#else

using portable::Add;
using portable::MontMul;
using portable::MontSqr;
using portable::Sub;

#endif  // defined(__x86_64__)

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
