#include "crypto/ed25519.h"

#include <array>
#include <stdexcept>

#include "crypto/ge25519.h"
#include "crypto/sha2.h"

namespace mct::crypto {

namespace {

// A scalar mod the group order L, 32 little-endian bytes.
using Scalar = std::array<uint8_t, 32>;

// L = 2^252 + 27742317777372353535851937790883648493, little-endian bytes.
constexpr std::array<int64_t, 32> kL = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0,    0,    0,    0,    0,    0,    0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

// x mod L for x = sum x[i] * 2^(8i), where the 64 limbs are signed and may
// exceed 8 bits (TweetNaCl's modL). Each limb from 2^256 up is folded down
// with 2^256 = -16 * (L - 2^252) mod L; then (x[31] >> 4) * L clears the
// bits from 2^252 up, and the last carry folds back in as a multiple of L.
// Fixed trip counts and arithmetic carries only: no branch on, or index by,
// the value.
Scalar mod_l(std::array<int64_t, 64>& x)
{
    for (int i = 63; i >= 32; --i) {
        int64_t carry = 0;
        int j = i - 32;
        for (; j < i - 12; ++j) {
            x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
            carry = (x[j] + 128) >> 8;
            x[j] -= carry * 256;
        }
        x[j] += carry;
        x[i] = 0;
    }
    int64_t carry = 0;
    for (int j = 0; j < 32; ++j) {
        x[j] += carry - (x[31] >> 4) * kL[j];
        carry = x[j] >> 8;
        x[j] &= 255;
    }
    for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
    Scalar out;
    for (int i = 0; i < 32; ++i) {
        x[i + 1] += x[i] >> 8;
        out[i] = static_cast<uint8_t>(x[i] & 255);
    }
    return out;
}

// 64-byte little-endian value (a SHA-512 digest) mod L.
Scalar sc_reduce(ConstBytes wide_le)
{
    std::array<int64_t, 64> x{};
    for (int i = 0; i < 64; ++i) x[i] = wide_le[i];
    return mod_l(x);
}

// (k * a + r) mod L for 32-byte little-endian k, a, r.
Scalar sc_muladd(ConstBytes k, ConstBytes a, ConstBytes r)
{
    std::array<int64_t, 64> x{};
    for (int i = 0; i < 32; ++i) x[i] = r[i];
    for (int i = 0; i < 32; ++i)
        for (int j = 0; j < 32; ++j) x[i + j] += int64_t{k[i]} * a[j];
    return mod_l(x);
}

// s < L, by the borrow out of s - L.
bool sc_is_canonical(ConstBytes s)
{
    int64_t borrow = 0;
    for (int i = 0; i < 32; ++i) borrow = (s[i] - kL[i] - borrow) >> 8 & 1;
    return borrow == 1;
}

struct ExpandedSeed {
    Bytes scalar;  // clamped a, little-endian
    Bytes prefix;  // second half of SHA-512(seed)
};

ExpandedSeed expand_seed(ConstBytes seed)
{
    if (seed.size() != 32) throw std::invalid_argument("ed25519: seed must be 32 bytes");
    Bytes h = Sha512::digest(seed);
    ExpandedSeed out;
    out.scalar = Bytes(h.begin(), h.begin() + 32);
    out.scalar[0] &= 248;
    out.scalar[31] &= 63;
    out.scalar[31] |= 64;
    out.prefix = Bytes(h.begin() + 32, h.end());
    return out;
}

}  // namespace

Bytes ed25519_public_from_seed(ConstBytes seed)
{
    auto exp = expand_seed(seed);
    return ge_encode(ge_base_mul(exp.scalar));
}

Ed25519KeyPair ed25519_keypair(Rng& rng)
{
    Ed25519KeyPair kp;
    kp.private_key = rng.bytes(32);
    kp.public_key = ed25519_public_from_seed(kp.private_key);
    return kp;
}

Bytes ed25519_sign(ConstBytes seed, ConstBytes message)
{
    // The public key is rederived from the seed on purpose: a caller-supplied
    // key that did not match the seed would turn sign into a private-key
    // oracle (two signatures of one message under two keys share r).
    auto exp = expand_seed(seed);
    Scalar r = sc_reduce(Sha512::digest(concat(exp.prefix, message)));
    auto [a_pub, r_enc] = ge_encode_pair(ge_base_mul(exp.scalar), ge_base_mul(r));

    Scalar k = sc_reduce(Sha512::digest(concat(r_enc, a_pub, message)));
    Scalar s = sc_muladd(k, exp.scalar, r);

    return concat(r_enc, s);
}

bool ed25519_verify(ConstBytes public_key, ConstBytes message, ConstBytes signature)
{
    if (public_key.size() != 32 || signature.size() != 64) return false;
    GePoint a;
    if (!ge_decode(public_key, a)) return false;
    ConstBytes r_enc = signature.subspan(0, 32);
    ConstBytes s_le = signature.subspan(32, 32);
    if (!sc_is_canonical(s_le)) return false;  // reject malleable signatures

    Scalar k = sc_reduce(Sha512::digest(concat(r_enc, public_key, message)));

    // s*B == R + k*A, checked as encode(s*B - k*A) == R's bytes. R is never
    // decoded: a y >= p, off-curve or "-0" R cannot equal an encoding, so
    // this accepts exactly the signatures that decoding R would.
    return equal(ge_encode(ge_double_scalar_mul_vartime(s_le, k, a)), r_enc);
}

}  // namespace mct::crypto
