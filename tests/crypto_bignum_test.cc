// Unit and property tests for the 256-bit integer and Montgomery field
// arithmetic underlying P-256 and the secret-sharing field.
#include <gtest/gtest.h>

#include "src/crypto/bignum.h"
#include "src/crypto/p256_field.h"
#include "src/util/rng.h"

namespace prochlo {
namespace {

const char kP256PrimeHex[] = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
const char kP256OrderHex[] = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";

U256 RandomU256(Rng& rng) {
  U256 out;
  for (auto& limb : out.limbs) {
    limb = rng.Next();
  }
  return out;
}

TEST(U256Test, HexRoundTrip) {
  U256 v = U256::FromHex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  EXPECT_EQ(v.ToHex(), "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256Test, ShortHexIsZeroPadded) {
  EXPECT_EQ(U256::FromHex("ff"), U256::FromU64(255));
}

TEST(U256Test, BytesRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    U256 v = RandomU256(rng);
    auto bytes = v.ToBytes();
    EXPECT_EQ(U256::FromBytes(ByteSpan(bytes.data(), bytes.size())), v);
  }
}

TEST(U256Test, Comparison) {
  EXPECT_TRUE(U256::FromU64(1) < U256::FromU64(2));
  EXPECT_TRUE(U256::FromHex("10000000000000000") > U256::FromU64(~0ull));
  EXPECT_TRUE(U256::Zero() == U256::Zero());
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256::Zero().BitLength(), 0);
  EXPECT_EQ(U256::One().BitLength(), 1);
  EXPECT_EQ(U256::FromU64(255).BitLength(), 8);
  EXPECT_EQ(U256::FromHex(kP256PrimeHex).BitLength(), 256);
}

TEST(U256Test, AddSubInverse) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomU256(rng);
    U256 b = RandomU256(rng);
    U256 sum;
    uint64_t carry = AddWithCarry(a, b, &sum);
    U256 back;
    uint64_t borrow = SubWithBorrow(sum, b, &back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // overflow on the way up == underflow back
  }
}

TEST(U256Test, MulWideMatchesSmallCases) {
  auto wide = MulWide(U256::FromU64(0xffffffffffffffffull), U256::FromU64(2));
  EXPECT_EQ(wide[0], 0xfffffffffffffffeull);
  EXPECT_EQ(wide[1], 1ull);
  for (int i = 2; i < 8; ++i) {
    EXPECT_EQ(wide[i], 0ull);
  }
}

TEST(U256Test, ShiftRight1) {
  U256 v = U256::FromHex("8000000000000000000000000000000000000000000000000000000000000001");
  U256 shifted = ShiftRight1(v);
  EXPECT_EQ(shifted, U256::FromHex("4000000000000000000000000000000000000000000000000000000000000000"));
}

class ModFieldTest : public ::testing::TestWithParam<const char*> {
 protected:
  ModFieldTest() : field_(U256::FromHex(GetParam())) {}
  ModField field_;
};

TEST_P(ModFieldTest, AddCommutes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    U256 b = field_.Reduce(RandomU256(rng));
    EXPECT_EQ(field_.Add(a, b), field_.Add(b, a));
  }
}

TEST_P(ModFieldTest, SubIsAddInverse) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    U256 b = field_.Reduce(RandomU256(rng));
    EXPECT_EQ(field_.Sub(field_.Add(a, b), b), a);
  }
}

TEST_P(ModFieldTest, NegAddsToZero) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    EXPECT_TRUE(field_.Add(a, field_.Neg(a)).IsZero());
  }
}

TEST_P(ModFieldTest, MulDistributesOverAdd) {
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    U256 b = field_.Reduce(RandomU256(rng));
    U256 c = field_.Reduce(RandomU256(rng));
    EXPECT_EQ(field_.Mul(a, field_.Add(b, c)),
              field_.Add(field_.Mul(a, b), field_.Mul(a, c)));
  }
}

TEST_P(ModFieldTest, MulIdentity) {
  Rng rng(29);
  for (int i = 0; i < 20; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    EXPECT_EQ(field_.Mul(a, U256::One()), a);
    EXPECT_TRUE(field_.Mul(a, U256::Zero()).IsZero());
  }
}

TEST_P(ModFieldTest, InverseMultipliesToOne) {
  Rng rng(31);
  for (int i = 0; i < 25; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    if (a.IsZero()) {
      continue;
    }
    EXPECT_EQ(field_.Mul(a, field_.Inv(a)), U256::One());
  }
}

TEST_P(ModFieldTest, FermatLittleTheorem) {
  // a^(p-1) == 1 for prime modulus.
  Rng rng(37);
  U256 exponent;
  SubWithBorrow(field_.modulus(), U256::One(), &exponent);
  for (int i = 0; i < 10; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    if (a.IsZero()) {
      continue;
    }
    EXPECT_EQ(field_.Exp(a, exponent), U256::One());
  }
}

TEST_P(ModFieldTest, ExpMatchesRepeatedMul) {
  Rng rng(41);
  U256 a = field_.Reduce(RandomU256(rng));
  U256 acc = U256::One();
  for (uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(field_.Exp(a, U256::FromU64(e)), acc) << "exponent " << e;
    acc = field_.Mul(acc, a);
  }
}

TEST_P(ModFieldTest, SqrtOfSquares) {
  if ((field_.modulus().limbs[0] & 3) != 3) {
    // Sqrt is only implemented for p ≡ 3 (mod 4); it must report failure
    // rather than return garbage for other moduli.
    U256 root;
    EXPECT_FALSE(field_.Sqrt(U256::FromU64(4), &root));
    GTEST_SKIP() << "modulus not ≡ 3 (mod 4)";
  }
  Rng rng(43);
  for (int i = 0; i < 20; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    U256 square = field_.Mul(a, a);
    U256 root;
    ASSERT_TRUE(field_.Sqrt(square, &root));
    EXPECT_TRUE(root == a || root == field_.Neg(a));
  }
}

TEST_P(ModFieldTest, ReduceWideMatchesMul) {
  // ReduceWide(a*b) == Mul(a, b) for already-reduced a, b.  Enough pairs
  // that a carry dropped in one limb of the Montgomery multiply shows.
  Rng rng(47);
  for (int i = 0; i < 10000; ++i) {
    U256 a = field_.Reduce(RandomU256(rng));
    U256 b = field_.Reduce(RandomU256(rng));
    ASSERT_EQ(field_.ReduceWide(MulWide(a, b)), field_.Mul(a, b))
        << a.ToHex() << " * " << b.ToHex();
  }
}

// Residues where carries and borrows run the full length of the limbs:
// 0, 1, 2, m - 1, m - 2, R mod m, R^2 mod m, 2^256 - 1 reduced, and values
// whose top limb equals m's (m - 1 - r for 64-bit r).
std::vector<U256> EdgeResidues(const ModField& f) {
  const U256& m = f.modulus();
  auto minus = [&](const U256& v) {
    U256 out;
    SubWithBorrow(m, v, &out);
    return out;
  };
  const U256 r_mod_m = f.ReduceWide({0, 0, 0, 0, 1, 0, 0, 0});
  std::vector<U256> out = {U256::Zero(),
                           U256::One(),
                           U256::FromU64(2),
                           minus(U256::One()),
                           minus(U256::FromU64(2)),
                           r_mod_m,
                           f.ReduceWide(MulWide(r_mod_m, r_mod_m)),
                           f.Reduce(U256{{~0ull, ~0ull, ~0ull, ~0ull}})};
  Rng rng(53);
  for (int i = 0; i < 4; ++i) {
    U256 top_limb_equal = minus(U256::FromU64(rng.Next()));
    SubWithBorrow(top_limb_equal, U256::One(), &top_limb_equal);
    out.push_back(top_limb_equal);
  }
  return out;
}

TEST_P(ModFieldTest, EdgeResiduesMatchWideReference) {
  const U256 r_mod_m = field_.ReduceWide({0, 0, 0, 0, 1, 0, 0, 0});
  const std::vector<U256> edges = EdgeResidues(field_);
  for (const U256& a : edges) {
    ASSERT_LT(a, field_.modulus()) << a.ToHex();
  }
  EXPECT_EQ(edges.back().limbs[3], field_.modulus().limbs[3]);
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      const U256 want = field_.ReduceWide(MulWide(a, b));
      EXPECT_EQ(field_.Mul(a, b), want) << a.ToHex() << " * " << b.ToHex();
      // MontMul(a, b) = a*b/R, so MontMul(a, b) * R == a*b (mod m).
      EXPECT_EQ(field_.ReduceWide(MulWide(field_.MontMul(a, b), r_mod_m)), want)
          << a.ToHex() << " * " << b.ToHex();
      U256 sum;
      const uint64_t carry = AddWithCarry(a, b, &sum);
      EXPECT_EQ(field_.Add(a, b),
                field_.ReduceWide({sum.limbs[0], sum.limbs[1], sum.limbs[2], sum.limbs[3], carry,
                                   0, 0, 0}))
          << a.ToHex() << " + " << b.ToHex();
      EXPECT_EQ(field_.Add(field_.Sub(a, b), b), a) << a.ToHex() << " - " << b.ToHex();
      // MontSqr on a*b/R as well: dividing by R makes its limbs dense, so
      // they carry where the sparse edges' own limbs do not.
      const U256 mont = field_.MontMul(a, b);
      EXPECT_EQ(field_.ReduceWide(MulWide(field_.MontSqr(mont), r_mod_m)),
                field_.ReduceWide(MulWide(mont, mont)))
          << a.ToHex() << " * " << b.ToHex() << " / R, squared";
    }
    EXPECT_EQ(field_.ReduceWide(MulWide(field_.MontSqr(a), r_mod_m)),
              field_.ReduceWide(MulWide(a, a)))
        << a.ToHex();
    EXPECT_TRUE(field_.Add(a, field_.Neg(a)).IsZero()) << a.ToHex();
  }
}

// On the P-256 prime MontSqr is its own routine (a dedicated squaring in
// src/crypto/p256_field.h), not MontMul(a, a); both must agree everywhere,
// including on unreduced inputs below 2^256.
TEST_P(ModFieldTest, MontSqrMatchesMontMul) {
  for (const U256& a : EdgeResidues(field_)) {
    EXPECT_EQ(field_.MontSqr(a), field_.MontMul(a, a)) << a.ToHex();
  }
  Rng rng(59);
  for (int i = 0; i < 10000; ++i) {
    const U256 a = RandomU256(rng);
    ASSERT_EQ(field_.MontSqr(a), field_.MontMul(a, a)) << a.ToHex();
    const U256 reduced = field_.Reduce(a);
    ASSERT_EQ(field_.MontSqr(reduced), field_.MontMul(reduced, reduced)) << reduced.ToHex();
  }
  const U256 all_ones{{~0ull, ~0ull, ~0ull, ~0ull}};
  EXPECT_EQ(field_.MontSqr(all_ones), field_.MontMul(all_ones, all_ones));
}

// The P-256 field core's MontMul, MontSqr, Add and Sub (x86-64 asm) against
// its portable C bodies, which must agree on every 256-bit input: the edge
// residues, then random inputs, half reduced and half arbitrary.  Off
// x86-64 the two are the same code.
TEST(P256FieldTest, AsmMatchesPortable) {
  namespace fe = p256_field;
  const ModField field(U256::FromHex(kP256PrimeHex));
  auto check = [](const U256& a, const U256& b) {
    ASSERT_EQ(fe::MontMul(a, b), fe::portable::MontMul(a, b)) << a.ToHex() << " * " << b.ToHex();
    ASSERT_EQ(fe::MontSqr(a), fe::portable::MontSqr(a)) << a.ToHex();
    ASSERT_EQ(fe::Add(a, b), fe::portable::Add(a, b)) << a.ToHex() << " + " << b.ToHex();
    ASSERT_EQ(fe::Sub(a, b), fe::portable::Sub(a, b)) << a.ToHex() << " - " << b.ToHex();
  };
  const std::vector<U256> edges = EdgeResidues(field);
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      check(a, b);
    }
  }
  if (HasFatalFailure()) {
    return;
  }
  const U256 all_ones{{~0ull, ~0ull, ~0ull, ~0ull}};
  check(all_ones, all_ones);
  check(all_ones, U256::Zero());
  check(U256::Zero(), all_ones);
  Rng rng(61);
  for (int i = 0; i < 500000; ++i) {
    check(field.Reduce(RandomU256(rng)), field.Reduce(RandomU256(rng)));
    check(RandomU256(rng), RandomU256(rng));
    if (HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(P256Fields, ModFieldTest,
                         ::testing::Values(kP256PrimeHex, kP256OrderHex));

}  // namespace
}  // namespace prochlo
