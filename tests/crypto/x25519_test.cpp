#include "crypto/x25519.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mct::crypto {
namespace {

Bytes base_u()
{
    Bytes u(32, 0);
    u[0] = 9;
    return u;
}

// RFC 7748 §5.2 iterated test, 1 iteration: k = u = 9.
TEST(X25519, Rfc7748Iteration1)
{
    Bytes k = base_u();
    EXPECT_EQ(to_hex(x25519(k, base_u())),
              "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

// RFC 7748 §5.2 iterated test, 1,000 iterations: k = x25519(k, u), u = old k.
TEST(X25519, Rfc7748Iteration1000)
{
    Bytes k = base_u(), u = base_u();
    for (int i = 0; i < 1000; ++i) {
        Bytes next = x25519(k, u);
        u = k;
        k = next;
    }
    EXPECT_EQ(to_hex(k), "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, DiffieHellmanAgreement)
{
    TestRng rng(31);
    for (int i = 0; i < 5; ++i) {
        auto alice = x25519_keypair(rng);
        auto bob = x25519_keypair(rng);
        auto s1 = x25519_shared(alice.private_key, bob.public_key);
        auto s2 = x25519_shared(bob.private_key, alice.public_key);
        ASSERT_TRUE(s1.ok());
        ASSERT_TRUE(s2.ok());
        EXPECT_EQ(s1.value(), s2.value());
    }
}

TEST(X25519, DistinctPeersDistinctSecrets)
{
    TestRng rng(32);
    auto alice = x25519_keypair(rng);
    auto bob = x25519_keypair(rng);
    auto carol = x25519_keypair(rng);
    auto s_ab = x25519_shared(alice.private_key, bob.public_key).take();
    auto s_ac = x25519_shared(alice.private_key, carol.public_key).take();
    EXPECT_NE(s_ab, s_ac);
}

TEST(X25519, ScalarClampingMakesBitsIrrelevant)
{
    // Flipping the bits cleared by clamping must not change the result.
    TestRng rng(33);
    Bytes k = rng.bytes(32);
    Bytes k2 = k;
    k2[0] ^= 0x07;   // low 3 bits
    k2[31] ^= 0x80;  // top bit
    EXPECT_EQ(x25519(k, base_u()), x25519(k2, base_u()));
}

TEST(X25519, ZeroPointRejected)
{
    TestRng rng(34);
    auto kp = x25519_keypair(rng);
    Bytes zero(32, 0);
    EXPECT_FALSE(x25519_shared(kp.private_key, zero).ok());
}

TEST(X25519, KeypairPublicMatchesScalarMult)
{
    TestRng rng(35);
    auto kp = x25519_keypair(rng);
    EXPECT_EQ(kp.public_key, x25519(kp.private_key, base_u()));
}

TEST(X25519, RejectsBadSizes)
{
    EXPECT_THROW(x25519(Bytes(31, 0), base_u()), std::invalid_argument);
    EXPECT_THROW(x25519(base_u(), Bytes(33, 0)), std::invalid_argument);
}

TEST(X25519, SharedSecretRejectsBadLengthsAsErrors)
{
    // The peer public key arrives off the wire, so x25519_shared must report
    // bad lengths as Results, never throw (sessions only handle errors).
    TestRng rng(36);
    auto kp = x25519_keypair(rng);
    EXPECT_FALSE(x25519_shared(kp.private_key, Bytes(31, 9)).ok());
    EXPECT_FALSE(x25519_shared(kp.private_key, Bytes(33, 9)).ok());
    EXPECT_FALSE(x25519_shared(kp.private_key, {}).ok());
    EXPECT_FALSE(x25519_shared(Bytes(31, 1), base_u()).ok());
}

}  // namespace
}  // namespace mct::crypto
