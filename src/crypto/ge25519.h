// The edwards25519 group (RFC 8032 §5.1): point encoding and the two scalar
// multiplications the protocols need.
//
// Ed25519 signs and derives keys with ge_base_mul and verifies with
// ge_double_scalar_mul_vartime; X25519 key generation also uses
// ge_base_mul and maps the result to the Montgomery u-coordinate.
#pragma once

#include <utility>

#include "crypto/fe25519.h"
#include "util/bytes.h"

namespace mct::crypto {

// Extended homogeneous coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct GePoint {
    Fe x, y, z, t;
};

// k * B for the base point B and a 32-byte little-endian scalar k < 2^255
// (k[31] <= 127; every clamped Ed25519 or X25519 scalar, and every scalar
// reduced mod L, qualifies). Constant time: a radix-16 signed-digit comb over
// a compile-time table of 32 x 8 multiples of B, where each of the 64 table
// reads scans its whole row with masks.
GePoint ge_base_mul(ConstBytes k);

// s * B - k * A for 32-byte little-endian scalars s, k < 2^253 (Straus:
// one doubling chain shared by width-5 signed windows of both scalars).
// Variable time: it branches on the scalars' digits, so use it only on
// public inputs (signature verification).
GePoint ge_double_scalar_mul_vartime(ConstBytes s, ConstBytes k, const GePoint& a);

// 32-byte encoding: y, with the parity of x in the top bit.
Bytes ge_encode(const GePoint& p);
// Both encodings for the price of one inversion (Montgomery's trick).
std::pair<Bytes, Bytes> ge_encode_pair(const GePoint& p, const GePoint& q);

// Decodes a 32-byte encoding; false for y >= p, for a y with no point on
// the curve, and for the "-0" encoding (x == 0 with the sign bit set).
bool ge_decode(ConstBytes b32, GePoint& out);

}  // namespace mct::crypto
