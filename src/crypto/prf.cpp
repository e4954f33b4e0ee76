#include "crypto/prf.h"

#include "crypto/hmac.h"

namespace mct::crypto {

Bytes prf(ConstBytes secret, std::string_view label, ConstBytes seed, size_t out_len)
{
    // The secret is keyed into HMAC once; every A(i) and output block starts
    // from a copy of that state instead of rehashing the key's pad blocks,
    // and label || seed goes in as two pieces instead of a concatenation.
    const HmacSha256 keyed(secret);
    auto hmac = [&keyed](auto... parts) {
        HmacSha256 h = keyed;
        (h.update(parts), ...);
        return h.finish_tag();
    };
    const ConstBytes label_bytes(reinterpret_cast<const uint8_t*>(label.data()), label.size());
    Bytes out;
    out.reserve(out_len + HmacSha256::kTagSize);
    auto a = hmac(label_bytes, seed);  // A(1)
    while (true) {
        append(out, hmac(ConstBytes(a), label_bytes, seed));
        if (out.size() >= out_len) break;
        a = hmac(ConstBytes(a));  // A(i+1)
    }
    out.resize(out_len);
    return out;
}

}  // namespace mct::crypto
