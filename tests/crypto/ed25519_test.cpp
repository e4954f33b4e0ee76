#include "crypto/ed25519.h"

#include <gtest/gtest.h>

#include "crypto/sha2.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

// RFC 8032 §7.1 TEST 1 (empty message).
TEST(Ed25519, Rfc8032Test1)
{
    Bytes seed = from_hex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
    Bytes expected_pub =
        from_hex("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
    EXPECT_EQ(ed25519_public_from_seed(seed), expected_pub);

    Bytes sig = ed25519_sign(seed, {});
    EXPECT_EQ(to_hex(sig),
              "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
              "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
    EXPECT_TRUE(ed25519_verify(expected_pub, {}, sig));
}

// RFC 8032 §7.1 TEST 2 (one-byte message 0x72).
TEST(Ed25519, Rfc8032Test2)
{
    Bytes seed = from_hex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
    Bytes pub = ed25519_public_from_seed(seed);
    EXPECT_EQ(to_hex(pub), "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
    Bytes msg{0x72};
    Bytes sig = ed25519_sign(seed, msg);
    EXPECT_EQ(to_hex(sig),
              "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
              "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
    EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

// RFC 8032 §7.1 TEST 3 (two-byte message 0xaf82).
TEST(Ed25519, Rfc8032Test3)
{
    Bytes seed = from_hex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
    Bytes pub = ed25519_public_from_seed(seed);
    EXPECT_EQ(to_hex(pub), "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025");
    Bytes msg = from_hex("af82");
    Bytes sig = ed25519_sign(seed, msg);
    EXPECT_EQ(to_hex(sig),
              "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
              "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
    EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

// Pins the scalar arithmetic (reduction mod L, k*a + r) by value over 256
// seeded keys and messages of every length 0..255: the digest of all the
// signatures must not move when that code is rewritten.
TEST(Ed25519, SeededSignaturesAreStable)
{
    TestRng rng(8032);
    Bytes all;
    for (size_t i = 0; i < 256; ++i) {
        Bytes seed = rng.bytes(32);
        Bytes msg = rng.bytes(i);
        Bytes sig = ed25519_sign(seed, msg);
        ASSERT_TRUE(ed25519_verify(ed25519_public_from_seed(seed), msg, sig)) << i;
        append(all, sig);
    }
    EXPECT_EQ(to_hex(Sha256::digest(all)),
              "3f42677e1b9da542030dd4d5827f4a4fce684a4243301b57cdddce255ff37862");
}

TEST(Ed25519, SignVerifyRoundTrip)
{
    TestRng rng(41);
    for (int i = 0; i < 5; ++i) {
        auto kp = ed25519_keypair(rng);
        Bytes msg = rng.bytes(100 + i * 37);
        Bytes sig = ed25519_sign(kp.private_key, msg);
        EXPECT_TRUE(ed25519_verify(kp.public_key, msg, sig));
    }
}

TEST(Ed25519, WrongMessageRejected)
{
    TestRng rng(42);
    auto kp = ed25519_keypair(rng);
    Bytes sig = ed25519_sign(kp.private_key, str_to_bytes("hello"));
    EXPECT_FALSE(ed25519_verify(kp.public_key, str_to_bytes("hellp"), sig));
}

TEST(Ed25519, WrongKeyRejected)
{
    TestRng rng(43);
    auto kp1 = ed25519_keypair(rng);
    auto kp2 = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("message");
    Bytes sig = ed25519_sign(kp1.private_key, msg);
    EXPECT_FALSE(ed25519_verify(kp2.public_key, msg, sig));
}

TEST(Ed25519, TamperedSignatureRejected)
{
    TestRng rng(44);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("message");
    Bytes sig = ed25519_sign(kp.private_key, msg);
    for (size_t pos : {0u, 31u, 32u, 63u}) {
        Bytes bad = sig;
        bad[pos] ^= 0x01;
        EXPECT_FALSE(ed25519_verify(kp.public_key, msg, bad));
    }
}

TEST(Ed25519, SignatureIsDeterministic)
{
    TestRng rng(45);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("deterministic");
    EXPECT_EQ(ed25519_sign(kp.private_key, msg), ed25519_sign(kp.private_key, msg));
}

TEST(Ed25519, RejectsMalformedInputs)
{
    TestRng rng(46);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("m");
    Bytes sig = ed25519_sign(kp.private_key, msg);
    EXPECT_FALSE(ed25519_verify(Bytes(31, 0), msg, sig));          // short key
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes(63, 0)));  // short sig
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, Bytes(64, 0xff)));
}

TEST(Ed25519, HighSRejected)
{
    // Add L to s: still a valid equation mod L but must be rejected
    // (malleability check s < L).
    TestRng rng(47);
    auto kp = ed25519_keypair(rng);
    Bytes msg = str_to_bytes("malleable?");
    Bytes sig = ed25519_sign(kp.private_key, msg);
    Bytes bad = sig;
    // s + L computed bytewise little-endian: L = 2^252 + delta.
    Bytes delta = from_hex("edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000");
    // delta above is little-endian of 27742317777372353535851937790883648493.
    unsigned carry = 0;
    for (size_t i = 0; i < 31; ++i) {
        unsigned sum = bad[32 + i] + delta[i] + carry;
        bad[32 + i] = static_cast<uint8_t>(sum);
        carry = sum >> 8;
    }
    unsigned sum = bad[63] + 0x10 + carry;  // + 2^252 in the top byte
    bad[63] = static_cast<uint8_t>(sum);
    EXPECT_FALSE(ed25519_verify(kp.public_key, msg, bad));
}

TEST(Ed25519, RejectsNonCanonicalPointEncoding)
{
    // y = p + 1 encodes the identity non-canonically (RFC 8032 §5.1.3
    // requires y < p). With R = B and s = 1, s*B == R + k*A holds for any
    // message if the key decodes, so it must not.
    Bytes pk(32, 0xff);
    pk[0] = 0xee;
    pk[31] = 0x7f;
    Bytes sig = from_hex("5866666666666666666666666666666666666666666666666666666666666666");
    Bytes s(32, 0);
    s[0] = 1;
    append(sig, s);
    EXPECT_FALSE(ed25519_verify(pk, str_to_bytes("any message"), sig));
    EXPECT_FALSE(ed25519_verify(pk, {}, sig));

    // The canonical identity encoding (y = 1) is still accepted.
    Bytes identity(32, 0);
    identity[0] = 1;
    EXPECT_TRUE(ed25519_verify(identity, str_to_bytes("any message"), sig));
}

}  // namespace
}  // namespace mct::crypto
