#include "crypto/fe25519.h"

#include <stdexcept>

namespace mct::crypto {

Fe fe_from_bytes(ConstBytes b)
{
    if (b.size() != 32) throw std::invalid_argument("fe_from_bytes: need 32 bytes");
    auto load64 = [&](size_t off) {
        uint64_t v = 0;
        for (int i = 7; i >= 0; --i) v = v << 8 | b[off + i];
        return v;
    };
    constexpr uint64_t kMask = fe_detail::kMask;
    Fe f;
    f.v[0] = load64(0) & kMask;
    f.v[1] = (load64(6) >> 3) & kMask;
    f.v[2] = (load64(12) >> 6) & kMask;
    f.v[3] = (load64(19) >> 1) & kMask;
    f.v[4] = (load64(24) >> 12) & kMask;
    return f;
}

Bytes fe_to_bytes(const Fe& f)
{
    Fe t = fe_canonical(f);
    // Pack 5x51 bits into four little-endian 64-bit words.
    const uint64_t words[4] = {t.v[0] | t.v[1] << 51, t.v[1] >> 13 | t.v[2] << 38,
                               t.v[2] >> 26 | t.v[3] << 25, t.v[3] >> 39 | t.v[4] << 12};
    Bytes out(32);
    for (int i = 0; i < 32; ++i) out[i] = static_cast<uint8_t>(words[i / 8] >> (8 * (i % 8)));
    return out;
}

}  // namespace mct::crypto
