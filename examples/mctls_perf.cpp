// mctls_perf: the analogue of the paper's modified `openssl s_time` (§5.4
// "Deployment") — a small CLI that measures full mcTLS handshakes per
// second for a given middlebox/context configuration. Each handshake is the
// bench harness's Table 3 / Figure 5 chain (bench/chain_bench.h).
//
//   mctls_perf [middleboxes] [contexts] [seconds] [--ckd]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "chain_bench.h"

using namespace mct;

int main(int argc, char** argv)
{
    size_t n_mbox = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1;
    size_t n_ctx = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
    double seconds = argc > 3 ? std::strtod(argv[3], nullptr) : 2.0;
    bool ckd = false;
    for (int i = 1; i < argc; ++i) ckd |= std::strcmp(argv[i], "--ckd") == 0;

    if (n_mbox > 16 || n_ctx == 0 || n_ctx > 200) {
        std::fprintf(stderr, "usage: mctls_perf [mboxes<=16] [contexts 1..200] [seconds] [--ckd]\n");
        return 2;
    }

    bench::BenchPki pki(n_mbox);
    bench::ChainConfig cfg{n_mbox, n_ctx, ckd};
    std::printf("mctls_perf: %zu middlebox(es), %zu context(s)%s, %.1f s budget\n",
                n_mbox, n_ctx, ckd ? ", client key distribution" : "", seconds);

    auto start = std::chrono::steady_clock::now();
    size_t count = 0;
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
           seconds) {
        if (!bench::run_mctls_handshake(pki, cfg, pki.rng, nullptr, nullptr)) {
            std::fprintf(stderr, "handshake failed\n");
            return 1;
        }
        ++count;
    }
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::printf("%zu handshakes in %.2f s -> %.1f full-chain handshakes/sec\n", count,
                elapsed, count / elapsed);
    std::printf("(counts the whole chain: client + middleboxes + server in-process)\n");
    return 0;
}
