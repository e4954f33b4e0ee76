// Field arithmetic modulo p = 2^255 - 19.
//
// Representation: five 51-bit limbs (radix 2^51) with 128-bit intermediate
// products; the layout follows the well-known "donna-c64" construction.
// Backs both X25519 (Montgomery ladder) and Ed25519 (Edwards group ops).
//
// The arithmetic is constexpr, so the curve constants and the fixed-base
// table (ge25519.cpp) are computed by the compiler rather than at first use.
// Nothing here branches on, or indexes by, a field element's value: the
// inversion and square-root exponents are fixed addition chains and the
// final reduction is a carry chain. Only the bool results of fe_is_zero,
// fe_equal and fe_sqrt_ratio depend on the value, and callers that handle
// secrets never branch on them.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace mct::crypto {

struct Fe {
    std::array<uint64_t, 5> v{};
};

namespace fe_detail {

using uint128 = unsigned __int128;

constexpr uint64_t kMask = (uint64_t{1} << 51) - 1;

// Propagate carries so every limb is < 2^51: one full sequential pass,
// except that limb 1 may end one above 2^51 - 1 after the top limb's
// 19-fold (a second pass settles it). Only fe_canonical needs this.
constexpr void carry(Fe& f)
{
    for (int i = 0; i < 4; ++i) {
        f.v[i + 1] += f.v[i] >> 51;
        f.v[i] &= kMask;
    }
    uint64_t top = f.v[4] >> 51;
    f.v[4] &= kMask;
    f.v[0] += top * 19;
    f.v[1] += f.v[0] >> 51;
    f.v[0] &= kMask;
}

// Move each limb's bits above 51 into the next limb, all five at once (no
// chain of dependent carries). Every arithmetic result below keeps its limbs
// under 2^51 + 2^13 this way ("loose" limbs): inputs below 2^54 carry at
// most 7 * 19 per limb, and carry_wide's second round less than 2^13.
constexpr void carry_parallel(Fe& f)
{
    const uint64_t c0 = f.v[0] >> 51, c1 = f.v[1] >> 51, c2 = f.v[2] >> 51,
                   c3 = f.v[3] >> 51, c4 = f.v[4] >> 51;
    f.v[0] = (f.v[0] & kMask) + c4 * 19;
    f.v[1] = (f.v[1] & kMask) + c0;
    f.v[2] = (f.v[2] & kMask) + c1;
    f.v[3] = (f.v[3] & kMask) + c2;
    f.v[4] = (f.v[4] & kMask) + c3;
}

// Reduce the five 128-bit column sums of a product to loose limbs with two
// rounds of independent carries rather than one chain through all five
// columns. With loose inputs every column sum is below 77 * 2^102.01 <
// 2^109, so the first round's carries stay below 2^58 and the 19-fold of the
// top one cannot overflow 64 bits.
constexpr Fe carry_wide(uint128 r0, uint128 r1, uint128 r2, uint128 r3, uint128 r4)
{
    Fe out;
    out.v[0] = (static_cast<uint64_t>(r0) & kMask) + static_cast<uint64_t>(r4 >> 51) * 19;
    out.v[1] = (static_cast<uint64_t>(r1) & kMask) + static_cast<uint64_t>(r0 >> 51);
    out.v[2] = (static_cast<uint64_t>(r2) & kMask) + static_cast<uint64_t>(r1 >> 51);
    out.v[3] = (static_cast<uint64_t>(r3) & kMask) + static_cast<uint64_t>(r2 >> 51);
    out.v[4] = (static_cast<uint64_t>(r4) & kMask) + static_cast<uint64_t>(r3 >> 51);
    carry_parallel(out);
    return out;
}

}  // namespace fe_detail

constexpr Fe fe_zero()
{
    return {};
}

constexpr Fe fe_one()
{
    Fe f;
    f.v[0] = 1;
    return f;
}

constexpr Fe fe_from_u64(uint64_t x)
{
    Fe f;
    f.v[0] = x & fe_detail::kMask;
    f.v[1] = x >> 51;
    return f;
}

// Load 32 little-endian bytes, ignoring the top bit (RFC 7748 convention).
Fe fe_from_bytes(ConstBytes b32);
// Fully reduced 32-byte little-endian encoding.
Bytes fe_to_bytes(const Fe& f);

constexpr Fe fe_add(const Fe& a, const Fe& b)
{
    Fe out;
    for (int i = 0; i < 5; ++i) out.v[i] = a.v[i] + b.v[i];
    fe_detail::carry_parallel(out);
    return out;
}

constexpr Fe fe_sub(const Fe& a, const Fe& b)
{
    // a + 2p - b keeps limbs non-negative for loose b.
    Fe out;
    out.v[0] = a.v[0] + 0xfffffffffffdaull - b.v[0];
    for (int i = 1; i < 5; ++i) out.v[i] = a.v[i] + 0xffffffffffffeull - b.v[i];
    fe_detail::carry_parallel(out);
    return out;
}

constexpr Fe fe_neg(const Fe& a)
{
    return fe_sub(fe_zero(), a);
}

constexpr Fe fe_mul(const Fe& a, const Fe& b)
{
    using fe_detail::uint128;
    const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
    const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
    const uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

    uint128 r0 = (uint128)a0 * b0 + (uint128)a1 * b4_19 + (uint128)a2 * b3_19 +
                 (uint128)a3 * b2_19 + (uint128)a4 * b1_19;
    uint128 r1 = (uint128)a0 * b1 + (uint128)a1 * b0 + (uint128)a2 * b4_19 +
                 (uint128)a3 * b3_19 + (uint128)a4 * b2_19;
    uint128 r2 = (uint128)a0 * b2 + (uint128)a1 * b1 + (uint128)a2 * b0 +
                 (uint128)a3 * b4_19 + (uint128)a4 * b3_19;
    uint128 r3 = (uint128)a0 * b3 + (uint128)a1 * b2 + (uint128)a2 * b1 +
                 (uint128)a3 * b0 + (uint128)a4 * b4_19;
    uint128 r4 = (uint128)a0 * b4 + (uint128)a1 * b3 + (uint128)a2 * b2 +
                 (uint128)a3 * b1 + (uint128)a4 * b0;
    return fe_detail::carry_wide(r0, r1, r2, r3, r4);
}

// a^2 with the symmetric cross products merged: 15 limb products, not 25.
constexpr Fe fe_sq(const Fe& a)
{
    using fe_detail::uint128;
    const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
    const uint64_t d0 = a0 * 2, d1 = a1 * 2, d2 = a2 * 2;
    const uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;

    uint128 r0 = (uint128)a0 * a0 + (uint128)d1 * a4_19 + (uint128)d2 * a3_19;
    uint128 r1 = (uint128)d0 * a1 + (uint128)d2 * a4_19 + (uint128)a3 * a3_19;
    uint128 r2 = (uint128)d0 * a2 + (uint128)a1 * a1 + (uint128)(a3 * 2) * a4_19;
    uint128 r3 = (uint128)d0 * a3 + (uint128)d1 * a2 + (uint128)a4 * a4_19;
    uint128 r4 = (uint128)d0 * a4 + (uint128)d1 * a3 + (uint128)a2 * a2;
    return fe_detail::carry_wide(r0, r1, r2, r3, r4);
}

// a^(2^n): n successive squarings.
constexpr Fe fe_sq_n(Fe a, int n)
{
    for (int i = 0; i < n; ++i) a = fe_sq(a);
    return a;
}

constexpr Fe fe_mul_small(const Fe& a, uint64_t s)  // s must fit in ~13 bits
{
    using fe_detail::uint128;
    Fe out;
    uint128 c = 0;
    for (int i = 0; i < 5; ++i) {
        uint128 cur = (uint128)a.v[i] * s + c;
        out.v[i] = static_cast<uint64_t>(cur) & fe_detail::kMask;
        c = cur >> 51;
    }
    out.v[0] += static_cast<uint64_t>(c) * 19;
    fe_detail::carry_parallel(out);
    return out;
}

namespace fe_detail {

// a^(2^250 - 1), the shared head of the inversion and square-root chains
// (the ref10 addition chain). Also returns a^11, which the inversion's
// tail needs.
constexpr Fe pow_2_250_1(const Fe& a, Fe& a11)
{
    Fe a2 = fe_sq(a);
    Fe a9 = fe_mul(fe_sq_n(a2, 2), a);
    a11 = fe_mul(a9, a2);
    Fe e5 = fe_mul(fe_sq(a11), a9);           // 2^5 - 1
    Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);      // 2^10 - 1
    Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);   // 2^20 - 1
    Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);   // 2^40 - 1
    Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);   // 2^50 - 1
    Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);  // 2^100 - 1
    Fe e200 = fe_mul(fe_sq_n(e100, 100), e100);
    return fe_mul(fe_sq_n(e200, 50), e50);    // 2^250 - 1
}

}  // namespace fe_detail

// a^(p-2) = a^(2^255 - 21) mod p: the multiplicative inverse, by 254
// squarings and 11 multiplications (fe_invert(0) == 0).
constexpr Fe fe_invert(const Fe& a)
{
    Fe a11;
    Fe e250 = fe_detail::pow_2_250_1(a, a11);
    return fe_mul(fe_sq_n(e250, 5), a11);
}

// a^((p-5)/8) = a^(2^252 - 3), the exponent of the square-root formulas.
constexpr Fe fe_pow22523(const Fe& a)
{
    Fe a11;
    Fe e250 = fe_detail::pow_2_250_1(a, a11);
    return fe_mul(fe_sq_n(e250, 2), a);
}

// The fully reduced representative of a (every limb < 2^51, value < p).
// Constant time: the "subtract p or not" decision is the carry out of
// a + 19, applied by multiplication rather than by a branch.
constexpr Fe fe_canonical(const Fe& a)
{
    Fe t = a;
    fe_detail::carry(t);
    fe_detail::carry(t);  // now every limb < 2^51, value < 2^255
    uint64_t q = (t.v[0] + 19) >> 51;
    for (int i = 1; i < 5; ++i) q = (t.v[i] + q) >> 51;  // q = 1 iff t >= p
    t.v[0] += 19 * q;
    for (int i = 0; i < 4; ++i) {
        t.v[i + 1] += t.v[i] >> 51;
        t.v[i] &= fe_detail::kMask;
    }
    t.v[4] &= fe_detail::kMask;  // drops the 2^255 that q * 19 carried into
    return t;
}

constexpr bool fe_is_zero(const Fe& a)
{
    Fe c = fe_canonical(a);
    return (c.v[0] | c.v[1] | c.v[2] | c.v[3] | c.v[4]) == 0;
}

constexpr bool fe_equal(const Fe& a, const Fe& b)
{
    return fe_is_zero(fe_sub(a, b));
}

// Parity of the fully reduced value (used as the Ed25519 sign bit).
constexpr bool fe_is_negative(const Fe& a)
{
    return fe_canonical(a).v[0] & 1;
}

// Constant-time conditional swap (swap is 0 or 1).
constexpr void fe_cswap(Fe& a, Fe& b, uint64_t swap)
{
    uint64_t mask = 0 - swap;  // 0 or all-ones
    for (int i = 0; i < 5; ++i) {
        uint64_t x = mask & (a.v[i] ^ b.v[i]);
        a.v[i] ^= x;
        b.v[i] ^= x;
    }
}

// Constant-time conditional move: a = b when move is 1, unchanged when 0.
constexpr void fe_cmov(Fe& a, const Fe& b, uint64_t move)
{
    uint64_t mask = 0 - move;
    for (int i = 0; i < 5; ++i) a.v[i] ^= mask & (a.v[i] ^ b.v[i]);
}

// sqrt(-1) mod p == 2^((p-1)/4) = 2^(2^253 - 5).
inline constexpr Fe kFeSqrtM1 = [] {
    Fe a11;
    Fe e250 = fe_detail::pow_2_250_1(fe_from_u64(2), a11);
    return fe_mul(fe_sq_n(e250, 3), fe_from_u64(8));
}();

// Square root of a ratio (RFC 8032 §5.1.3): returns true and sets out with
// v * out^2 == u when u/v is a square, with one exponentiation and no
// inversion: out = u v^3 (u v^7)^((p-5)/8), times sqrt(-1) if that squares
// to -u/v instead.
constexpr bool fe_sqrt_ratio(const Fe& u, const Fe& v, Fe& out)
{
    Fe v3 = fe_mul(fe_sq(v), v);
    Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, fe_mul(fe_sq(v3), v))));
    Fe vxx = fe_mul(v, fe_sq(x));
    if (fe_equal(vxx, u)) {
        out = x;
        return true;
    }
    if (fe_equal(vxx, fe_neg(u))) {
        out = fe_mul(x, kFeSqrtM1);
        return true;
    }
    return false;
}

}  // namespace mct::crypto
