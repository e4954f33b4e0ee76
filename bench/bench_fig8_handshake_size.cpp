// Figure 8: total handshake size (bytes at the client) for mcTLS vs
// SplitTLS / E2E-TLS across context and middlebox counts.
//
// Paper: base configuration (1 context, 0 middleboxes) mcTLS ~2.1 kB vs
// ~1.6 kB for (Split)TLS; grows with contexts (key material) and
// middleboxes (certificates + bundles + key material).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.h"
#include "chain_bench.h"
#include "util/rng.h"

using namespace mct;
using namespace mct::bench;

namespace {

// A failed handshake has no size to publish: stop the bench instead.
uint64_t completed(std::optional<uint64_t> bytes, const std::string& what)
{
    if (!bytes) {
        std::fprintf(stderr, "fig8: %s handshake failed\n", what.c_str());
        std::exit(1);
    }
    return *bytes;
}

}  // namespace

int main()
{
    BenchPki pki;
    TestRng rng(99);
    BenchReport report("fig8_handshake_size");
    std::printf("=== Figure 8: handshake size at the client (bytes) ===\n\n");
    std::printf("%-22s %-10s %-12s\n", "configuration", "mcTLS", "(Split/E2E)TLS");

    uint64_t tls_bytes = completed(tls_handshake_bytes(pki, rng), "TLS");
    struct Config {
        size_t contexts;
        size_t mboxes;
    };
    std::vector<Config> configs = {{1, 0}, {4, 0}, {8, 0}, {4, 1}, {4, 2}};
    if (smoke_mode()) configs = {{1, 0}, {4, 1}};
    for (Config cfg : configs) {
        char label[64];
        std::snprintf(label, sizeof(label), "ctxts:%zu mbox:%zu", cfg.contexts, cfg.mboxes);
        uint64_t mctls_bytes =
            completed(mctls_handshake_bytes(pki, {cfg.mboxes, cfg.contexts}, rng), label);
        // The TLS client-side handshake size does not depend on contexts or
        // (for E2E) on middleboxes; SplitTLS adds per-hop handshakes beyond
        // the client's link, which the client does not see.
        std::printf("%-22s %-10lu %-12lu\n", label,
                    static_cast<unsigned long>(mctls_bytes),
                    static_cast<unsigned long>(tls_bytes));
        report.point("mcTLS", label, static_cast<double>(mctls_bytes));
        report.point("TLS", label, static_cast<double>(tls_bytes));
    }

    std::vector<size_t> context_sweep = {1, 4, 8, 12, 16};
    std::vector<size_t> mbox_sweep = {0, 1, 2, 4, 8};
    if (smoke_mode()) {
        context_sweep = {1};
        mbox_sweep = {1};
    }
    std::printf("\nScaling detail, mcTLS handshake bytes:\n");
    std::printf("  contexts (1 middlebox): ");
    for (size_t k : context_sweep) {
        uint64_t bytes =
            completed(mctls_handshake_bytes(pki, {1, k}, rng), "K=" + std::to_string(k));
        report.point("mcTLS-context-sweep", "K=" + std::to_string(k),
                     static_cast<double>(bytes));
        std::printf("K=%zu:%lu  ", k, static_cast<unsigned long>(bytes));
    }
    std::printf("\n  middleboxes (4 contexts): ");
    for (size_t n : mbox_sweep) {
        uint64_t bytes =
            completed(mctls_handshake_bytes(pki, {n, 4}, rng), "N=" + std::to_string(n));
        report.point("mcTLS-mbox-sweep", "N=" + std::to_string(n),
                     static_cast<double>(bytes));
        std::printf("N=%zu:%lu  ", n, static_cast<unsigned long>(bytes));
    }
    std::printf("\n");
    return 0;
}
