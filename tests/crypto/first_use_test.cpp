// First-use cost regression for the AES tables, the SHA-2 constants and the
// Curve25519 constants and fixed-base table (its own binary so "first use in
// the process" is well defined).
//
// The S-box used to be derived by a brute-force 256x256 GF(2^8) scan inside
// a function-local static, so the first Aes128 constructed in a process —
// typically mid-handshake — paid ~65k field multiplications before its
// first block. The tables are now constexpr, so the first encryption must
// cost the same as the ten-thousandth, within scheduling noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ed25519.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "util/rng.h"

namespace mct::crypto {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ns(Clock::time_point a, Clock::time_point b)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Times the first call of `op` in the process against the median of 200
// more (which must all return the same bytes). A lazy derivation cost
// milliseconds; constexpr state leaves only cold caches and clock
// granularity on the first call, so 100us (or 100x the steady median,
// whichever is larger) is orders of magnitude below the old cost and far
// above legitimate jitter.
template <typename Op>
void expect_first_call_at_steady_cost(Op op)
{
    auto t0 = Clock::now();
    Bytes first = op();
    auto t1 = Clock::now();
    uint64_t first_ns = ns(t0, t1);

    std::vector<uint64_t> samples;
    for (int i = 0; i < 200; ++i) {
        auto a = Clock::now();
        Bytes again = op();
        auto b = Clock::now();
        ASSERT_EQ(again, first);
        samples.push_back(ns(a, b));
    }
    std::sort(samples.begin(), samples.end());
    uint64_t median_ns = samples[samples.size() / 2];

    uint64_t budget = std::max<uint64_t>(100'000, 100 * median_ns);
    EXPECT_LT(first_ns, budget)
        << "first=" << first_ns << "ns median=" << median_ns << "ns";
}

TEST(FirstUse, AesTablesCostNothingToInitialize)
{
    // Nothing crypto-related has run yet in this process (this binary links
    // only this test file). Time the very first construct+encrypt.
    Bytes key(16, 0x42);
    expect_first_call_at_steady_cost([&] {
        uint8_t block[16] = {0}, out[16];
        Aes128 cipher(key);
        cipher.encrypt_block(block, out);
        return Bytes(out, out + 16);
    });
}

TEST(FirstUse, Sha256ConstantsCostNothingToInitialize)
{
    // Same property for the SHA-256 round constants (constexpr integer
    // roots, nothing derived at runtime).
    Bytes data(64, 0x5a);
    expect_first_call_at_steady_cost([&] { return Sha256::digest(data); });
}

TEST(FirstUse, Sha512ConstantsCostNothingToInitialize)
{
    // Every Ed25519 signature hashes with SHA-512, so a lazily derived
    // constant would land inside the first handshake of the process.
    Bytes data(128, 0x5a);
    expect_first_call_at_steady_cost([&] { return Sha512::digest(data); });
}

TEST(FirstUse, Ed25519SignCostsNothingToInitialize)
{
    // The curve constants and the 32 x 8 comb table are compile-time data; a
    // lazily built table would cost hundreds of point additions here.
    Bytes seed(32, 0x11);
    Bytes msg(64, 0x5a);
    expect_first_call_at_steady_cost([&] { return ed25519_sign(seed, msg); });
}

TEST(FirstUse, X25519KeypairCostsNothingToInitialize)
{
    // Key generation goes through the same comb table.
    expect_first_call_at_steady_cost([] {
        TestRng rng(7);
        return x25519_keypair(rng).public_key;
    });
}

}  // namespace
}  // namespace mct::crypto
