#include "crypto/fe25519.h"

#include <gtest/gtest.h>

#include "curve25519_ref.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

Fe random_fe(Rng& rng)
{
    return fe_from_bytes(rng.bytes(32));
}

TEST(Fe25519, EncodeDecodeRoundTrip)
{
    TestRng rng(21);
    for (int i = 0; i < 20; ++i) {
        Bytes b = rng.bytes(32);
        b[31] &= 0x7f;  // canonical encodings only
        Fe f = fe_from_bytes(b);
        // Values >= p re-encode reduced; values < p round-trip exactly.
        Fe g = fe_from_bytes(fe_to_bytes(f));
        EXPECT_TRUE(fe_equal(f, g));
    }
}

TEST(Fe25519, ZeroAndOne)
{
    EXPECT_TRUE(fe_is_zero(fe_zero()));
    EXPECT_FALSE(fe_is_zero(fe_one()));
    EXPECT_TRUE(fe_equal(fe_add(fe_zero(), fe_one()), fe_one()));
    EXPECT_TRUE(fe_equal(fe_mul(fe_one(), fe_one()), fe_one()));
}

TEST(Fe25519, PReducesToZero)
{
    // p = 2^255 - 19 encodes as ed ff ... ff 7f.
    Bytes p(32, 0xff);
    p[0] = 0xed;
    p[31] = 0x7f;
    EXPECT_TRUE(fe_is_zero(fe_from_bytes(p)));
}

TEST(Fe25519, AddSubInverse)
{
    TestRng rng(22);
    for (int i = 0; i < 20; ++i) {
        Fe a = random_fe(rng), b = random_fe(rng);
        EXPECT_TRUE(fe_equal(fe_sub(fe_add(a, b), b), a));
    }
}

TEST(Fe25519, MulCommutativeAssociative)
{
    TestRng rng(23);
    Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
}

TEST(Fe25519, Distributive)
{
    TestRng rng(24);
    Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)), fe_add(fe_mul(a, b), fe_mul(a, c))));
}

TEST(Fe25519, SquareMatchesMul)
{
    TestRng rng(25);
    Fe a = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_sq(a), fe_mul(a, a)));
}

TEST(Fe25519, InvertIsInverse)
{
    TestRng rng(26);
    for (int i = 0; i < 10; ++i) {
        Fe a = random_fe(rng);
        if (fe_is_zero(a)) continue;
        EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
    }
}

TEST(Fe25519, InvertZeroIsZero)
{
    EXPECT_TRUE(fe_is_zero(fe_invert(fe_zero())));
}

TEST(Fe25519, NegAddsToZero)
{
    TestRng rng(27);
    Fe a = random_fe(rng);
    EXPECT_TRUE(fe_is_zero(fe_add(a, fe_neg(a))));
}

TEST(Fe25519, MulSmallMatchesMul)
{
    TestRng rng(28);
    Fe a = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul_small(a, 121665), fe_mul(a, fe_from_u64(121665))));
}

TEST(Fe25519, SqrtM1SquaresToMinusOne)
{
    Fe m1 = fe_neg(fe_one());
    EXPECT_TRUE(fe_equal(fe_sq(kFeSqrtM1), m1));
}

TEST(Fe25519, SqrtOfSquares)
{
    TestRng rng(29);
    for (int i = 0; i < 10; ++i) {
        Fe a = random_fe(rng);
        Fe a2 = fe_sq(a);
        Fe root;
        ASSERT_TRUE(fe_sqrt_ratio(a2, fe_one(), root));
        EXPECT_TRUE(fe_equal(fe_sq(root), a2));
    }
}

TEST(Fe25519, NonResidueHasNoRoot)
{
    // 2 is a non-residue mod p (p ≡ 5 mod 8). sqrt(2) must fail; sqrt(4) works.
    Fe root;
    EXPECT_FALSE(fe_sqrt_ratio(fe_from_u64(2), fe_one(), root));
    ASSERT_TRUE(fe_sqrt_ratio(fe_from_u64(4), fe_one(), root));
    EXPECT_TRUE(fe_equal(fe_sq(root), fe_from_u64(4)));
}

TEST(Fe25519, CswapSwapsConditionally)
{
    TestRng rng(30);
    Fe a = random_fe(rng), b = random_fe(rng);
    Fe a0 = a, b0 = b;
    fe_cswap(a, b, 0);
    EXPECT_TRUE(fe_equal(a, a0));
    EXPECT_TRUE(fe_equal(b, b0));
    fe_cswap(a, b, 1);
    EXPECT_TRUE(fe_equal(a, b0));
    EXPECT_TRUE(fe_equal(b, a0));
}

TEST(Fe25519, ParityOfSmallConstants)
{
    EXPECT_FALSE(fe_is_negative(fe_zero()));
    EXPECT_TRUE(fe_is_negative(fe_one()));
    EXPECT_FALSE(fe_is_negative(fe_from_u64(2)));
}

// The test-side reference exponentiation that the inversion and square-root
// chains are checked against (curve25519_diff_test.cpp).
TEST(Fe25519, PowMatchesRepeatedMul)
{
    Fe a = fe_from_u64(7);
    Bytes exp{5};  // a^5
    Fe expect = fe_mul(fe_mul(fe_mul(fe_mul(a, a), a), a), a);
    EXPECT_TRUE(fe_equal(ref::field_pow(a, exp), expect));
}

}  // namespace
}  // namespace mct::crypto
