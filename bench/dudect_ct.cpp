// dudect-style constant-time check (Reparaz, Balasch, Verbauwhede, "Dude, is
// my code constant time?", DATE 2017) for the secret-key Curve25519 paths:
// ed25519_sign and x25519_keypair.
//
//   dudect_ct [measurements per operation, default 50000]
//
// Each measurement times one call on either the fixed secret (class 0) or a
// fresh random secret (class 1), the class drawn at random so drift and
// noise hit both alike. Welch's t-test then compares the two timing
// distributions: uncropped, and cropped at several upper percentiles to cut
// interrupt and scheduling outliers, as dudect does. |t| above 4.5 means the
// timings tell the classes apart, i.e. the time depends on the secret.
//
// Advisory: a loaded or frequency-scaling host can push |t| over the
// threshold on its own, so the tool prints a WARN line and still exits 0.
// It exits non-zero only on bad arguments.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "crypto/ed25519.h"
#include "crypto/x25519.h"
#include "util/rng.h"

using namespace mct;

namespace {

constexpr double kThreshold = 4.5;

// Hands out one caller-chosen 32-byte secret: x25519_keypair draws its
// private key from the Rng it is given.
class SecretRng final : public Rng {
public:
    explicit SecretRng(const Bytes& secret) : secret_(secret) {}
    void fill(MutableBytes out) override
    {
        for (size_t i = 0; i < out.size(); ++i) out[i] = secret_[i % secret_.size()];
    }

private:
    const Bytes& secret_;
};

// Welch's t statistic between two samples.
double welch_t(const std::vector<double>& a, const std::vector<double>& b)
{
    auto moments = [](const std::vector<double>& v, double& mean, double& var) {
        mean = 0;
        for (double x : v) mean += x;
        mean /= static_cast<double>(v.size());
        var = 0;
        for (double x : v) var += (x - mean) * (x - mean);
        var /= static_cast<double>(v.size() - 1);
    };
    if (a.size() < 2 || b.size() < 2) return 0;
    double ma, va, mb, vb;
    moments(a, ma, va);
    moments(b, mb, vb);
    double se = std::sqrt(va / static_cast<double>(a.size()) + vb / static_cast<double>(b.size()));
    return se > 0 ? (ma - mb) / se : 0;
}

struct Verdict {
    double max_abs_t = 0;
    double uncropped_t = 0;
};

// Times op(secret) n times, the secret fixed or random by a coin flip per
// measurement; all inputs are drawn before the clock starts.
Verdict measure(const std::function<void(const Bytes&)>& op, size_t n)
{
    using Clock = std::chrono::steady_clock;
    TestRng rng(0xd0dec7);
    const Bytes fixed = rng.bytes(32);
    std::vector<int> cls(n);
    std::vector<Bytes> inputs(n);
    for (size_t i = 0; i < n; ++i) {
        cls[i] = static_cast<int>(rng.next() & 1);
        inputs[i] = cls[i] == 0 ? fixed : rng.bytes(32);
    }
    for (size_t i = 0; i < std::min<size_t>(n, 100); ++i) op(inputs[i]);  // warm up

    std::vector<double> ns(n);
    for (size_t i = 0; i < n; ++i) {
        auto t0 = Clock::now();
        op(inputs[i]);
        auto t1 = Clock::now();
        ns[i] = std::chrono::duration<double, std::nano>(t1 - t0).count();
    }

    std::vector<double> sorted = ns;
    std::sort(sorted.begin(), sorted.end());
    Verdict v;
    for (double pct : {1.0, 0.99, 0.95, 0.90, 0.75, 0.50}) {
        double cut = sorted[std::min(n - 1, static_cast<size_t>(pct * static_cast<double>(n)))];
        std::vector<double> c0, c1;
        for (size_t i = 0; i < n; ++i) {
            if (pct < 1.0 && ns[i] > cut) continue;
            (cls[i] == 0 ? c0 : c1).push_back(ns[i]);
        }
        double t = welch_t(c0, c1);
        if (pct == 1.0) v.uncropped_t = t;
        v.max_abs_t = std::max(v.max_abs_t, std::fabs(t));
    }
    return v;
}

}  // namespace

int main(int argc, char** argv)
{
    size_t n = 50000;
    if (argc > 1) {
        char* end = nullptr;
        unsigned long v = std::strtoul(argv[1], &end, 10);
        if (end == argv[1] || *end != '\0' || v < 100) {
            std::fprintf(stderr, "usage: dudect_ct [measurements per operation >= 100]\n");
            return 2;
        }
        n = v;
    }

    const Bytes message(64, 0x5a);
    struct Target {
        const char* name;
        std::function<void(const Bytes&)> op;
    };
    volatile uint8_t sink = 0;
    const Target targets[] = {
        {"ed25519_sign", [&](const Bytes& seed) { sink = sink ^ crypto::ed25519_sign(seed, message)[0]; }},
        {"x25519_keypair", [&](const Bytes& secret) {
             SecretRng rng(secret);
             sink = sink ^ crypto::x25519_keypair(rng).public_key[0];
         }},
    };
    for (const Target& t : targets) {
        Verdict v = measure(t.op, n);
        std::printf("dudect: %-15s n=%zu  max|t|=%.2f  (uncropped t=%.2f)  %s\n", t.name, n,
                    v.max_abs_t, v.uncropped_t,
                    v.max_abs_t > kThreshold ? "WARN: timing depends on the secret" : "ok");
    }
    return 0;
}
