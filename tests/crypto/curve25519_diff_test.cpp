// Differential tests: the table-driven Curve25519 (fixed-base comb, Straus
// verify, addition-chain inversion) against the straightforward reference in
// curve25519_ref.h, byte for byte and decision for decision.
#include <gtest/gtest.h>

#include <vector>

#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/x25519.h"
#include "curve25519_ref.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

constexpr int kSamples = 1000;

// A field element with loose limbs (up to ~2^52, as arithmetic leaves
// them) or, every fourth sample, one of the values just around p.
Fe sample_fe(TestRng& rng, int i)
{
    if (i % 4 == 0) {
        Bytes b(32, 0xff);  // p + delta for delta in [-8, 18]: ed ff .. ff 7f
        b[0] = static_cast<uint8_t>(0xed - 8 + rng.next() % 27);
        b[31] = 0x7f;
        return fe_from_bytes(b);
    }
    Fe f;
    for (auto& limb : f.v) limb = rng.next() >> (i % 2 == 0 ? 12 : 13);
    return f;
}

TEST(Curve25519Diff, FieldMatchesReference)
{
    TestRng rng(25519);
    for (int i = 0; i < kSamples; ++i) {
        Fe a = sample_fe(rng, i);
        ASSERT_EQ(fe_to_bytes(a), ref::field_bytes(a)) << i;
        ASSERT_EQ(fe_is_negative(a), ref::field_is_negative(a)) << i;
        ASSERT_EQ(fe_is_zero(a), ref::field_is_zero(a)) << i;
        ASSERT_EQ(fe_to_bytes(fe_invert(a)), ref::field_bytes(ref::field_invert(a))) << i;
        Fe root, ref_root;
        bool ok = fe_sqrt_ratio(a, fe_one(), root);
        ASSERT_EQ(ok, ref::field_sqrt(a, ref_root)) << i;
        if (ok) {
            ASSERT_EQ(fe_to_bytes(root), ref::field_bytes(ref_root)) << i;
        }
    }
    EXPECT_EQ(fe_to_bytes(kFeSqrtM1), ref::field_bytes(ref::field_sqrt_m1()));
}

TEST(Curve25519Diff, Ed25519SignAndPublicKeyMatchReference)
{
    TestRng rng(8032);
    for (int i = 0; i < kSamples; ++i) {
        Bytes seed = rng.bytes(32);
        Bytes msg = rng.bytes(i % 157);
        ASSERT_EQ(ed25519_public_from_seed(seed), ref::ed25519_public_from_seed(seed)) << i;
        ASSERT_EQ(ed25519_sign(seed, msg), ref::ed25519_sign(seed, msg)) << i;
    }
}

TEST(Curve25519Diff, X25519KeypairAndSharedMatchReference)
{
    TestRng rng(7748);
    for (int i = 0; i < kSamples; ++i) {
        auto alice = x25519_keypair(rng);
        ASSERT_EQ(alice.public_key, ref::x25519_public(alice.private_key)) << i;
        Bytes peer = rng.bytes(32);  // any u, on the curve or its twist
        auto shared = x25519_shared(alice.private_key, peer);
        Bytes expect = ref::x25519(alice.private_key, peer);
        ASSERT_EQ(shared.ok(), expect != Bytes(32, 0)) << i;
        if (shared.ok()) {
            ASSERT_EQ(shared.value(), expect) << i;
        }
    }
}

// The eight points of order dividing 8, by their canonical encodings.
std::vector<Bytes> torsion_points()
{
    return {
        from_hex("0100000000000000000000000000000000000000000000000000000000000000"),
        from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
        from_hex("0000000000000000000000000000000000000000000000000000000000000000"),
        from_hex("0000000000000000000000000000000000000000000000000000000000000080"),
        from_hex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
        from_hex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"),
        from_hex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"),
        from_hex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa"),
    };
}

TEST(Curve25519Diff, TorsionCorpusIsTheEightTorsionPoints)
{
    Bytes eight(32, 0);
    eight[0] = 8;
    Bytes identity = torsion_points()[0];
    std::vector<Bytes> seen;
    for (const Bytes& enc : torsion_points()) {
        ref::Point p;
        ASSERT_TRUE(ref::point_decode(enc, p)) << to_hex(enc);
        EXPECT_EQ(ref::point_encode(p), enc);
        EXPECT_EQ(ref::point_encode(ref::point_mul(eight, p)), identity) << to_hex(enc);
        for (const Bytes& other : seen) EXPECT_NE(enc, other);
        seen.push_back(enc);
    }
}

// Encodings that are not a canonical point: y = p + delta for every
// delta in [0, 18] with either sign bit, and the two "-0" encodings
// (y = 1 and y = -1, where x = 0, with the sign bit set).
std::vector<Bytes> invalid_encodings()
{
    std::vector<Bytes> out;
    for (int delta = 0; delta <= 18; ++delta) {
        for (uint8_t sign : {0x00, 0x80}) {
            Bytes b(32, 0xff);
            b[0] = static_cast<uint8_t>(0xed + delta);
            b[31] = static_cast<uint8_t>(0x7f | sign);
            out.push_back(b);
        }
    }
    out.push_back(from_hex("0100000000000000000000000000000000000000000000000000000000000080"));
    out.push_back(from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"));
    return out;
}

// s + L as 32 little-endian bytes (s < L, so the sum fits).
Bytes plus_l(ConstBytes s)
{
    Bytes out(32);
    unsigned carry = 0;
    for (size_t i = 0; i < 32; ++i) {
        unsigned sum = s[i] + ref::kL[i] + carry;
        out[i] = static_cast<uint8_t>(sum);
        carry = sum >> 8;
    }
    return out;
}

struct VerifyCase {
    Bytes public_key, message, signature;
};

std::vector<VerifyCase> verify_corpus()
{
    TestRng rng(2017);
    std::vector<VerifyCase> cases;
    auto flip = [](Bytes b, size_t bit) {
        b[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
        return b;
    };

    // Valid signatures, each with every single-bit flip of R, s and A for the
    // first two, and 64 seeded message-bit flips each.
    for (int i = 0; i < 16; ++i) {
        Bytes seed = rng.bytes(32);
        Bytes pk = ref::ed25519_public_from_seed(seed);
        Bytes msg = rng.bytes(1 + i * 11);
        Bytes sig = ref::ed25519_sign(seed, msg);
        cases.push_back({pk, msg, sig});
        if (i < 2) {
            for (size_t bit = 0; bit < 512; ++bit) cases.push_back({pk, msg, flip(sig, bit)});
            for (size_t bit = 0; bit < 256; ++bit) cases.push_back({flip(pk, bit), msg, sig});
        }
        for (int j = 0; j < 64; ++j) cases.push_back({pk, flip(msg, rng.next() % (msg.size() * 8)), sig});

        // s >= L: s + L, L itself, and all ones.
        Bytes r(sig.begin(), sig.begin() + 32);
        ConstBytes s = ConstBytes(sig).subspan(32);
        cases.push_back({pk, msg, concat(r, plus_l(s))});
        cases.push_back({pk, msg, concat(r, plus_l(Bytes(32, 0)))});
        cases.push_back({pk, msg, concat(r, Bytes(32, 0xff))});

        // Non-canonical and "-0" R with a valid key.
        for (const Bytes& bad : invalid_encodings()) cases.push_back({pk, msg, concat(bad, s)});
    }

    // Small-order, non-canonical and "-0" A against small-order and
    // non-canonical R, with s = 0 and s = 1 (s = 0, R = -k*A verifies for a
    // small-order A, which both implementations must agree on).
    std::vector<Bytes> points = torsion_points();
    for (const Bytes& bad : invalid_encodings()) points.push_back(bad);
    points.push_back(ref::ed25519_public_from_seed(Bytes(32, 7)));
    Bytes msg = str_to_bytes("small order");
    for (const Bytes& a : points) {
        for (const Bytes& r : points) {
            for (uint8_t s0 : {0, 1}) {
                Bytes s(32, 0);
                s[0] = s0;
                cases.push_back({a, msg, concat(r, s)});
            }
        }
    }
    return cases;
}

TEST(Curve25519Diff, VerifyDecisionsMatchReference)
{
    size_t accepted = 0, rejected = 0, i = 0;
    for (const auto& c : verify_corpus()) {
        bool expect = ref::ed25519_verify(c.public_key, c.message, c.signature);
        ASSERT_EQ(ed25519_verify(c.public_key, c.message, c.signature), expect)
            << "case " << i << ": A=" << to_hex(c.public_key) << " sig=" << to_hex(c.signature);
        (expect ? accepted : rejected)++;
        ++i;
    }
    // The corpus must exercise both outcomes, including small-order accepts.
    EXPECT_GT(accepted, 16u);
    EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace mct::crypto
