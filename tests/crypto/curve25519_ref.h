// Test-only reference Curve25519: the straightforward algorithms the library
// used before its table-driven rewrite, kept as an oracle for differential
// tests (curve25519_diff_test.cpp). Everything here is slow and may branch on
// secrets; none of it is linked into the library.
//
// Shared with the library: only the limb-level fe_add/fe_sub/fe_mul/fe_sq/
// fe_mul_small/fe_from_bytes/fe_cswap (pinned separately by fe25519_test).
// Independent: the encoding (a branching final reduction), exponentiation by
// square-and-multiply (inverse, square root, sqrt(-1)), the curve constants,
// MSB-first double-and-add scalar multiplication, X25519 keygen by the ladder
// from u = 9, and scalar arithmetic mod L by bit-serial long division.
#pragma once

#include <array>

#include "crypto/fe25519.h"
#include "crypto/sha2.h"
#include "util/bytes.h"

namespace mct::crypto::ref {

// ---- Field ----

// Fully reduced encoding: two carry passes, then subtract p while >= p.
inline Bytes field_bytes(const Fe& f)
{
    constexpr uint64_t kMask = (uint64_t{1} << 51) - 1;
    Fe t = f;
    for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < 4; ++i) {
            t.v[i + 1] += t.v[i] >> 51;
            t.v[i] &= kMask;
        }
        uint64_t top = t.v[4] >> 51;
        t.v[4] &= kMask;
        t.v[0] += top * 19;
        t.v[1] += t.v[0] >> 51;
        t.v[0] &= kMask;
    }
    for (int pass = 0; pass < 2; ++pass) {
        bool ge_p = t.v[4] == kMask && t.v[3] == kMask && t.v[2] == kMask &&
                    t.v[1] == kMask && t.v[0] >= kMask - 18;
        if (ge_p) {
            t.v[0] -= kMask - 18;
            t.v[1] = t.v[2] = t.v[3] = t.v[4] = 0;
        }
    }
    Bytes out(32, 0);
    uint64_t acc = 0;
    int acc_bits = 0;
    size_t byte = 0;
    for (int limb = 0; limb < 5; ++limb) {
        acc |= t.v[limb] << acc_bits;
        acc_bits += 51;
        while (acc_bits >= 8 && byte < 32) {
            out[byte++] = static_cast<uint8_t>(acc);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if (byte < 32) out[byte] = static_cast<uint8_t>(acc);
    return out;
}

inline bool field_is_zero(const Fe& a)
{
    return field_bytes(a) == Bytes(32, 0);
}

inline bool field_equal(const Fe& a, const Fe& b)
{
    return field_bytes(a) == field_bytes(b);
}

inline bool field_is_negative(const Fe& a)
{
    return field_bytes(a)[0] & 1;
}

// a^e for a little-endian byte exponent, MSB-first square-and-multiply.
inline Fe field_pow(const Fe& a, ConstBytes exponent_le)
{
    Fe result = fe_one();
    for (size_t byte = exponent_le.size(); byte-- > 0;) {
        for (int bit = 7; bit >= 0; --bit) {
            result = fe_mul(result, result);
            if ((exponent_le[byte] >> bit) & 1) result = fe_mul(result, a);
        }
    }
    return result;
}

// 32 little-endian bytes of 0xff with the given first and last byte.
inline Bytes exponent(uint8_t low, uint8_t high)
{
    Bytes e(32, 0xff);
    e[0] = low;
    e[31] = high;
    return e;
}

inline Fe field_invert(const Fe& a)
{
    return field_pow(a, exponent(0xeb, 0x7f));  // p - 2
}

inline Fe field_sqrt_m1()
{
    return field_pow(fe_from_u64(2), exponent(0xfb, 0x1f));  // 2^((p-1)/4)
}

inline bool field_sqrt(const Fe& a, Fe& out)
{
    Fe r = field_pow(a, exponent(0xfe, 0x0f));  // a^((p+3)/8)
    if (field_equal(fe_mul(r, r), a)) {
        out = r;
        return true;
    }
    Fe r_i = fe_mul(r, field_sqrt_m1());
    if (field_equal(fe_mul(r_i, r_i), a)) {
        out = r_i;
        return true;
    }
    return false;
}

// ---- Edwards group ----

struct Point {
    Fe x, y, z, t;
};

inline Fe curve_d()
{
    return fe_mul(fe_neg(fe_from_u64(121665)), field_invert(fe_from_u64(121666)));
}

inline Point identity()
{
    return {fe_zero(), fe_one(), fe_one(), fe_zero()};
}

inline Point point_add(const Point& p, const Point& q)
{
    static const Fe d2 = fe_add(curve_d(), curve_d());
    Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
    Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
    Fe c = fe_mul(fe_mul(p.t, d2), q.t);
    Fe d = fe_mul(fe_add(p.z, p.z), q.z);
    Fe e = fe_sub(b, a), f = fe_sub(d, c), g = fe_add(d, c), h = fe_add(b, a);
    return {fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// scalar (little-endian bytes) * p, MSB-first double-and-add (doubling by
// the addition formula, which is complete on this curve).
inline Point point_mul(ConstBytes scalar_le, const Point& p)
{
    Point acc = identity();
    for (size_t byte = scalar_le.size(); byte-- > 0;) {
        for (int bit = 7; bit >= 0; --bit) {
            acc = point_add(acc, acc);
            if ((scalar_le[byte] >> bit) & 1) acc = point_add(acc, p);
        }
    }
    return acc;
}

inline Bytes point_encode(const Point& p)
{
    Fe zinv = field_invert(p.z);
    Bytes out = field_bytes(fe_mul(p.y, zinv));
    if (field_is_negative(fe_mul(p.x, zinv))) out[31] |= 0x80;
    return out;
}

inline bool point_decode(ConstBytes b32, Point& out)
{
    if (b32.size() != 32) return false;
    bool sign = b32[31] & 0x80;
    Fe y = fe_from_bytes(b32);
    Bytes canonical = field_bytes(y);
    if (sign) canonical[31] |= 0x80;
    if (!equal(canonical, b32)) return false;  // y >= p
    Fe yy = fe_mul(y, y);
    Fe x2 = fe_mul(fe_sub(yy, fe_one()), field_invert(fe_add(fe_mul(curve_d(), yy), fe_one())));
    Fe x;
    if (!field_sqrt(x2, x)) return false;
    if (field_is_zero(x) && sign) return false;
    if (field_is_negative(x) != sign) x = fe_neg(x);
    out = {x, y, fe_one(), fe_mul(x, y)};
    return true;
}

inline Point base_point()
{
    Point b;
    point_decode(field_bytes(fe_mul(fe_from_u64(4), field_invert(fe_from_u64(5)))), b);
    return b;
}

// ---- Scalars mod L ----

using Scalar = std::array<uint8_t, 32>;

inline constexpr Scalar kL = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
                              0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
                              0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

inline bool less_than_l(ConstBytes s)
{
    for (size_t i = 32; i-- > 0;) {
        if (s[i] != kL[i]) return s[i] < kL[i];
    }
    return false;
}

// x mod L for a little-endian byte string of any length: r = 2r + bit, then
// subtract L once if r >= L (r < 2L < 2^254, so 32 bytes always suffice).
inline Scalar mod_l(ConstBytes x)
{
    Scalar r{};
    for (size_t i = x.size() * 8; i-- > 0;) {
        unsigned carry = (x[i / 8] >> (i % 8)) & 1;
        for (auto& b : r) {
            unsigned v = unsigned{b} << 1 | carry;
            b = static_cast<uint8_t>(v);
            carry = v >> 8;
        }
        if (!less_than_l(r)) {
            int borrow = 0;
            for (size_t j = 0; j < 32; ++j) {
                int v = r[j] - kL[j] - borrow;
                borrow = v < 0;
                r[j] = static_cast<uint8_t>(v + (borrow << 8));
            }
        }
    }
    return r;
}

// (k * a + r) mod L by schoolbook multiplication.
inline Scalar muladd(ConstBytes k, ConstBytes a, ConstBytes r)
{
    std::array<uint32_t, 64> wide{};
    for (size_t i = 0; i < 32; ++i) wide[i] = r[i];
    for (size_t i = 0; i < 32; ++i)
        for (size_t j = 0; j < 32; ++j) wide[i + j] += uint32_t{k[i]} * a[j];
    Bytes bytes(65, 0);
    uint64_t carry = 0;
    for (size_t i = 0; i < 64; ++i) {
        carry += wide[i];
        bytes[i] = static_cast<uint8_t>(carry);
        carry >>= 8;
    }
    bytes[64] = static_cast<uint8_t>(carry);
    return mod_l(bytes);
}

// ---- Ed25519 (RFC 8032) ----

inline Bytes clamped_scalar(ConstBytes seed)
{
    Bytes h = Sha512::digest(seed);
    Bytes a(h.begin(), h.begin() + 32);
    a[0] &= 248;
    a[31] &= 63;
    a[31] |= 64;
    return a;
}

inline Bytes ed25519_public_from_seed(ConstBytes seed)
{
    return point_encode(point_mul(clamped_scalar(seed), base_point()));
}

inline Bytes ed25519_sign(ConstBytes seed, ConstBytes message)
{
    Bytes h = Sha512::digest(seed);
    Bytes a = clamped_scalar(seed);
    Bytes prefix(h.begin() + 32, h.end());
    Bytes a_pub = point_encode(point_mul(a, base_point()));
    Scalar r = mod_l(Sha512::digest(concat(prefix, message)));
    Bytes r_enc = point_encode(point_mul(r, base_point()));
    Scalar k = mod_l(Sha512::digest(concat(r_enc, a_pub, message)));
    return concat(r_enc, muladd(k, a, r));
}

// Decodes A and R, then compares encode(s*B) with encode(R + k*A).
inline bool ed25519_verify(ConstBytes public_key, ConstBytes message, ConstBytes signature)
{
    if (public_key.size() != 32 || signature.size() != 64) return false;
    Point a, r;
    if (!point_decode(public_key, a)) return false;
    ConstBytes r_enc = signature.subspan(0, 32);
    ConstBytes s = signature.subspan(32, 32);
    if (!less_than_l(s)) return false;
    if (!point_decode(r_enc, r)) return false;
    Scalar k = mod_l(Sha512::digest(concat(r_enc, public_key, message)));
    return point_encode(point_mul(s, base_point())) ==
           point_encode(point_add(r, point_mul(k, a)));
}

// ---- X25519 (RFC 7748) ----

inline Bytes x25519(ConstBytes scalar32, ConstBytes u32)
{
    Bytes k = to_bytes(scalar32);
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    Fe x1 = fe_from_bytes(u32);
    Fe x2 = fe_one(), z2 = fe_zero(), x3 = x1, z3 = fe_one();
    uint64_t swap = 0;
    for (int t = 254; t >= 0; --t) {
        uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        fe_cswap(x2, x3, swap);
        fe_cswap(z2, z3, swap);
        swap = k_t;
        Fe a = fe_add(x2, z2), aa = fe_mul(a, a);
        Fe b = fe_sub(x2, z2), bb = fe_mul(b, b);
        Fe e = fe_sub(aa, bb);
        Fe da = fe_mul(fe_sub(x3, z3), a), cb = fe_mul(fe_add(x3, z3), b);
        Fe sum = fe_add(da, cb), diff = fe_sub(da, cb);
        x3 = fe_mul(sum, sum);
        z3 = fe_mul(x1, fe_mul(diff, diff));
        x2 = fe_mul(aa, bb);
        z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
    }
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    return field_bytes(fe_mul(x2, field_invert(z2)));
}

// Public key by the ladder from the base u = 9.
inline Bytes x25519_public(ConstBytes private_key)
{
    Bytes nine(32, 0);
    nine[0] = 9;
    return x25519(private_key, nine);
}

}  // namespace mct::crypto::ref
