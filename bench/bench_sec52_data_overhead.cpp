// §5.2 data volume overhead: record-protection bytes (headers, IVs, MACs,
// padding) as a fraction of application payload for a web-browsing
// workload.
//
// Paper: SplitTLS adds ~0.6% (median) over NoEncrypt; mcTLS triples the MAC
// cost to ~2.4%. Handshake bytes are reported separately (Figure 8).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "http/testbed.h"
#include "workload/page_model.h"

using namespace mct;
using mct::net::operator""_ms;
using mct::net::operator""_s;
using namespace mct::http;

namespace {

struct OverheadSample {
    double percent = 0;
    uint64_t records = 0;
};

OverheadSample page_overhead(Mode mode, const workload::PageTrace& page)
{
    TestbedConfig cfg;
    cfg.mode = mode;
    cfg.n_middleboxes = 1;
    cfg.strategy = ContextStrategy::four_contexts;
    cfg.link = {5_ms, 0};
    Testbed bed(cfg);
    std::vector<Testbed::FetchPtr> fetches;
    for (const auto& conn : page.connections) fetches.push_back(bed.fetch_sequence(conn));
    bed.run();
    uint64_t payload = 0;
    for (const auto& fetch : fetches) {
        if (!fetch->completed || fetch->failed) return {};
        payload += fetch->app_bytes_received;
    }
    auto totals = bed.record_overhead_totals();
    OverheadSample sample;
    sample.records = totals.records;
    sample.percent = payload == 0 ? 0 : 100.0 * totals.overhead_bytes / payload;
    return sample;
}

}  // namespace

int main()
{
    workload::CorpusConfig corpus_cfg;
    corpus_cfg.pages = mct::bench::smoke_mode() ? 2 : 25;
    auto corpus = workload::generate_corpus(corpus_cfg);
    mct::bench::BenchReport report("sec52_data_overhead");
    std::string x = "pages:" + std::to_string(corpus_cfg.pages);

    std::printf("=== Section 5.2: record-protection data overhead "
                "(web browsing, 1 middlebox) ===\n\n");
    for (Mode mode : {Mode::e2e_tls, Mode::split_tls, Mode::mctls}) {
        std::vector<double> percents;
        uint64_t records = 0;
        for (const auto& page : corpus) {
            auto sample = page_overhead(mode, page);
            if (sample.records > 0) {
                percents.push_back(sample.percent);
                records += sample.records;
            }
        }
        std::sort(percents.begin(), percents.end());
        double median = percents.empty() ? 0 : percents[percents.size() / 2];
        std::printf("  %-10s median overhead %.2f%% of payload (%lu records across "
                    "%zu pages)\n",
                    to_string(mode), median, static_cast<unsigned long>(records),
                    percents.size());
        report.point(std::string("median-overhead-pct:") + to_string(mode), x, median);
        report.point(std::string("records:") + to_string(mode), x,
                     static_cast<double>(records));
    }
    std::printf("\nExpected: mcTLS ~3x the TLS record overhead (three MACs vs one),\n"
                "both in the low single-digit percent range; NoEncrypt is 0 by\n"
                "construction.\n");
    return 0;
}
