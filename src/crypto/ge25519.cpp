#include "crypto/ge25519.h"

#include <array>

namespace mct::crypto {

namespace {

// Twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2.
constexpr Fe kD = fe_mul(fe_neg(fe_from_u64(121665)), fe_invert(fe_from_u64(121666)));
constexpr Fe kD2 = fe_add(kD, kD);

// A point with Z = 1, stored as (y + x, y - x, 2dxy): the table format.
struct Affine {
    Fe ypx, ymx, xy2d;
};

// A point prepared as an addend: (Y + X, Y - X, 2Z, 2dT).
struct Cached {
    Fe ypx, ymx, z2, t2d;
};

constexpr GePoint identity()
{
    return {fe_zero(), fe_one(), fe_one(), fe_zero()};
}

constexpr Cached to_cached(const GePoint& p)
{
    return {fe_add(p.y, p.x), fe_sub(p.y, p.x), fe_add(p.z, p.z), fe_mul(p.t, kD2)};
}

// -(x, y) = (-x, y): swap y + x with y - x and negate the xy term.
constexpr Affine negate(const Affine& q)
{
    return {q.ymx, q.ypx, fe_neg(q.xy2d)};
}

constexpr Cached negate(const Cached& q)
{
    return {q.ymx, q.ypx, q.z2, fe_neg(q.t2d)};
}

// The tail of the unified addition (Hisil-Wong-Carter-Dawson 2008, a = -1),
// from A = (Y1-X1)(Y2-X2), B = (Y1+X1)(Y2+X2), C = 2d T1 T2, D = 2 Z1 Z2.
// Complete on this curve, so it also adds the identity and doubles.
constexpr GePoint finish_add(const Fe& a, const Fe& b, const Fe& c, const Fe& d)
{
    Fe e = fe_sub(b, a);
    Fe f = fe_sub(d, c);
    Fe g = fe_add(d, c);
    Fe h = fe_add(b, a);
    return {fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

constexpr GePoint add(const GePoint& p, const Cached& q)
{
    return finish_add(fe_mul(fe_sub(p.y, p.x), q.ymx), fe_mul(fe_add(p.y, p.x), q.ypx),
                      fe_mul(p.t, q.t2d), fe_mul(p.z, q.z2));
}

constexpr GePoint add(const GePoint& p, const Affine& q)
{
    return finish_add(fe_mul(fe_sub(p.y, p.x), q.ymx), fe_mul(fe_add(p.y, p.x), q.ypx),
                      fe_mul(p.t, q.xy2d), fe_add(p.z, p.z));
}

// 2p. The formula never reads p.t, so a doubling that only feeds another
// doubling can skip computing its own t (with_t is public: a loop position
// or a verify-time digit, never a secret).
constexpr GePoint point_double(const GePoint& p, bool with_t = true)
{
    Fe xx = fe_sq(p.x);
    Fe yy = fe_sq(p.y);
    Fe zz = fe_sq(p.z);
    Fe zz2 = fe_add(zz, zz);
    Fe xy2 = fe_sq(fe_add(p.x, p.y));
    Fe y_num = fe_add(yy, xx);  // -a*x^2 + y^2 with a = -1
    Fe z_num = fe_sub(yy, xx);
    Fe x_num = fe_sub(xy2, y_num);  // 2xy
    Fe t_num = fe_sub(zz2, z_num);
    return {fe_mul(x_num, t_num), fe_mul(y_num, z_num), fe_mul(z_num, t_num),
            with_t ? fe_mul(x_num, y_num) : Fe{}};
}

// x from y and its sign bit (RFC 8032 §5.1.3 steps 2-4):
// x^2 = (y^2 - 1) / (d y^2 + 1), one square root of a ratio, no inversion.
constexpr bool recover_x(const Fe& y, bool sign, Fe& x)
{
    Fe yy = fe_sq(y);
    if (!fe_sqrt_ratio(fe_sub(yy, fe_one()), fe_add(fe_mul(kD, yy), fe_one()), x)) return false;
    if (fe_is_zero(x) && sign) return false;  // -0 is invalid
    if (fe_is_negative(x) != sign) x = fe_neg(x);
    return true;
}

// B: y = 4/5, x even.
constexpr GePoint base_point()
{
    Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    Fe x;
    recover_x(y, false, x);
    return {x, y, fe_one(), fe_mul(x, y)};
}

constexpr int kCombRows = 32;
constexpr int kCombCols = 8;
constexpr int kOddMultiples = 8;

struct Tables {
    // comb[i][j] = (j + 1) * 256^i * B: the fixed-base comb.
    std::array<std::array<Affine, kCombCols>, kCombRows> comb;
    // odd[j] = (2j + 1) * B: verify's sliding window over s.
    std::array<Affine, kOddMultiples> odd;
};

// Every multiple in projective form first, then all of them to Z = 1 with
// one inversion (Montgomery's trick: invert the product of every Z, then
// peel each inverse off with two multiplications).
constexpr Tables make_tables()
{
    constexpr int kCount = kCombRows * kCombCols + kOddMultiples;
    std::array<GePoint, kCount> pts{};
    GePoint row = base_point();
    for (int i = 0; i < kCombRows; ++i) {
        Cached step = to_cached(row);
        pts[i * kCombCols] = row;
        for (int j = 1; j < kCombCols; ++j)
            pts[i * kCombCols + j] = add(pts[i * kCombCols + j - 1], step);
        for (int d = 0; d < 8; ++d) row = point_double(row);
    }
    GePoint b = base_point();
    Cached b2 = to_cached(point_double(b));
    pts[kCombRows * kCombCols] = b;
    for (int j = 1; j < kOddMultiples; ++j)
        pts[kCombRows * kCombCols + j] = add(pts[kCombRows * kCombCols + j - 1], b2);

    std::array<Fe, kCount> prefix{};  // prefix[k] = Z_0 * ... * Z_{k-1}
    Fe acc = fe_one();
    for (int k = 0; k < kCount; ++k) {
        prefix[k] = acc;
        acc = fe_mul(acc, pts[k].z);
    }
    Fe inv = fe_invert(acc);  // 1 / (Z_0 * ... * Z_k) as k counts down
    Tables t{};
    for (int k = kCount; k-- > 0;) {
        Fe zinv = fe_mul(inv, prefix[k]);
        inv = fe_mul(inv, pts[k].z);
        Fe x = fe_mul(pts[k].x, zinv);
        Fe y = fe_mul(pts[k].y, zinv);
        Affine a{fe_canonical(fe_add(y, x)), fe_canonical(fe_sub(y, x)),
                 fe_canonical(fe_mul(fe_mul(x, y), kD2))};
        if (k < kCombRows * kCombCols)
            t.comb[k / kCombCols][k % kCombCols] = a;
        else
            t.odd[k - kCombRows * kCombCols] = a;
    }
    return t;
}

constexpr Tables kTables = make_tables();

void cmov(Affine& a, const Affine& b, uint64_t move)
{
    fe_cmov(a.ypx, b.ypx, move);
    fe_cmov(a.ymx, b.ymx, move);
    fe_cmov(a.xy2d, b.xy2d, move);
}

// 1 when a == b, else 0, without a branch (a, b < 2^32).
uint64_t ct_equal(uint32_t a, uint32_t b)
{
    return (uint64_t{a ^ b} - 1) >> 63;
}

// digit * row[0] for digit in [-8, 8], in constant time: every entry of the
// row is read and masked in, then the result is negated by mask as well.
Affine select(const std::array<Affine, kCombCols>& row, int8_t digit)
{
    uint32_t negative = static_cast<uint32_t>(digit) >> 31;
    uint32_t magnitude = static_cast<uint32_t>((digit ^ -static_cast<int32_t>(negative)) +
                                               static_cast<int32_t>(negative));
    Affine t{fe_one(), fe_one(), fe_zero()};  // the identity
    for (uint32_t j = 0; j < kCombCols; ++j) cmov(t, row[j], ct_equal(magnitude, j + 1));
    cmov(t, negate(t), negative);
    return t;
}

// k = sum e[i] 16^i with every e[i] in [-8, 8] (e[63] in [0, 8] since
// k < 2^255). Arithmetic carries only: no branch on the scalar.
std::array<int8_t, 64> signed_radix16(ConstBytes k)
{
    std::array<int8_t, 64> e{};
    for (int i = 0; i < 32; ++i) {
        e[2 * i] = static_cast<int8_t>(k[i] & 15);
        e[2 * i + 1] = static_cast<int8_t>(k[i] >> 4);
    }
    int8_t carry = 0;
    for (int i = 0; i < 63; ++i) {
        e[i] = static_cast<int8_t>(e[i] + carry);
        carry = static_cast<int8_t>((e[i] + 8) >> 4);
        e[i] = static_cast<int8_t>(e[i] - carry * 16);
    }
    e[63] = static_cast<int8_t>(e[63] + carry);
    return e;
}

// Width-5 non-adjacent form: k = sum naf[i] 2^i with each naf[i] zero or odd
// in [-15, 15], and at most one nonzero digit in any 5 adjacent positions.
// Branches on k's bits: public scalars only.
std::array<int8_t, 256> naf5(ConstBytes k)
{
    auto bit = [&](int i) { return i < 256 ? (k[i / 8] >> (i % 8)) & 1 : 0; };
    std::array<int8_t, 256> naf{};
    int carry = 0;
    for (int pos = 0; pos < 256;) {
        if (bit(pos) == carry) {  // this position plus the carry is even
            ++pos;
            continue;
        }
        int window = carry;
        for (int j = 0; j < 5; ++j) window += bit(pos + j) << j;
        carry = window >> 4;  // a window >= 16 becomes window - 32, carrying 1
        naf[pos] = static_cast<int8_t>(window - (carry << 5));
        pos += 5;
    }
    return naf;
}

Bytes encode_with(const GePoint& p, const Fe& zinv)
{
    Bytes out = fe_to_bytes(fe_mul(p.y, zinv));
    out[31] |= static_cast<uint8_t>(fe_is_negative(fe_mul(p.x, zinv))) << 7;
    return out;
}

}  // namespace

GePoint ge_base_mul(ConstBytes k)
{
    std::array<int8_t, 64> e = signed_radix16(k);
    // sum over odd i of e[i] 16^(i-1) B, times 16, plus the sum over even i.
    GePoint h = identity();
    for (int i = 1; i < 64; i += 2) h = add(h, select(kTables.comb[i / 2], e[i]));
    for (int i = 0; i < 4; ++i) h = point_double(h, i == 3);
    for (int i = 0; i < 64; i += 2) h = add(h, select(kTables.comb[i / 2], e[i]));
    return h;
}

GePoint ge_double_scalar_mul_vartime(ConstBytes s, ConstBytes k, const GePoint& a)
{
    std::array<int8_t, 256> s_naf = naf5(s);
    std::array<int8_t, 256> k_naf = naf5(k);

    // (2j + 1) * (-A) for j = 0..7, so that s * B - k * A = s * B + k * (-A).
    GePoint minus_a{fe_neg(a.x), a.y, a.z, fe_neg(a.t)};
    std::array<Cached, kOddMultiples> odd_a;
    odd_a[0] = to_cached(minus_a);
    Cached minus_a2 = to_cached(point_double(minus_a));
    GePoint multiple = minus_a;
    for (int j = 1; j < kOddMultiples; ++j) {
        multiple = add(multiple, minus_a2);
        odd_a[j] = to_cached(multiple);
    }

    int top = 255;
    while (top >= 0 && s_naf[top] == 0 && k_naf[top] == 0) --top;
    GePoint r = identity();
    for (int i = top; i >= 0; --i) {
        r = point_double(r, s_naf[i] != 0 || k_naf[i] != 0);
        if (s_naf[i] > 0) r = add(r, kTables.odd[s_naf[i] / 2]);
        if (s_naf[i] < 0) r = add(r, negate(kTables.odd[-s_naf[i] / 2]));
        if (k_naf[i] > 0) r = add(r, odd_a[k_naf[i] / 2]);
        if (k_naf[i] < 0) r = add(r, negate(odd_a[-k_naf[i] / 2]));
    }
    return r;
}

Bytes ge_encode(const GePoint& p)
{
    return encode_with(p, fe_invert(p.z));
}

std::pair<Bytes, Bytes> ge_encode_pair(const GePoint& p, const GePoint& q)
{
    Fe inv = fe_invert(fe_mul(p.z, q.z));
    return {encode_with(p, fe_mul(inv, q.z)), encode_with(q, fe_mul(inv, p.z))};
}

bool ge_decode(ConstBytes b32, GePoint& out)
{
    if (b32.size() != 32) return false;
    Fe y = fe_from_bytes(b32);  // fe_from_bytes ignores the top bit
    // RFC 8032 §5.1.3: y >= p is not a valid encoding. The loaded limbs are
    // exact, so y is canonical iff reducing it changes nothing.
    if (fe_canonical(y).v != y.v) return false;
    Fe x;
    if (!recover_x(y, b32[31] & 0x80, x)) return false;
    out = {x, y, fe_one(), fe_mul(x, y)};
    return true;
}

}  // namespace mct::crypto
