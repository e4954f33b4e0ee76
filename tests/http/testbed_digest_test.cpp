// Pins the testbed's observable output for every mode over one and two
// middleboxes: each wire byte the sim transmits (the MCCAP capture), each
// latency span (minus the wall-clock cpu_ns) and the fetch's finish time.
// A refactor of the testbed's channels or relays must keep all three.
#include <gtest/gtest.h>

#include <string>

#include "crypto/sha2.h"
#include "http/testbed.h"
#include "net/capture.h"
#include "obs/span.h"

namespace mct::http {
namespace {

std::string hex_sha(ConstBytes data)
{
    auto sha = crypto::Sha256::digest(data);
    return to_hex(sha);
}

// One text row per span: stage, actor, ctx, ids, sim interval and payload.
std::string span_rows(const obs::SpanCollector& spans)
{
    std::string rows;
    for (const obs::SpanRecord& r : spans.ordered()) {
        rows += std::string(obs::to_string(r.stage)) + ' ' + spans.actor_name(r.actor) + ' ' +
                std::to_string(r.ctx) + ' ' + std::to_string(r.trace_id) + ' ' +
                std::to_string(r.span_id) + ' ' + std::to_string(r.parent_id) + ' ' +
                std::to_string(r.start_ts) + ' ' + std::to_string(r.end_ts) + ' ' +
                std::to_string(r.a) + '\n';
    }
    return rows;
}

struct Pinned {
    Mode mode;
    size_t middleboxes;
    net::SimTime done;
    size_t frames;
    const char* capture_sha;
    size_t spans;
    const char* span_sha;
};

// Computed before the middlebox relays were folded into one lifecycle.
// NoEncrypt seals no records, so it emits no spans (the empty-input hash).
const Pinned kPinned[] = {
    {Mode::mctls, 1, 560000, 47,
     "b992ee658dd2e937c9d273ec9ec563c07e6e6c32367b4224942ae228c1f14308",
     84, "bb9fc3d2b6d716d996e76d88b2109d5db7487b5f8bca8ec5ba97f1725075be2a"},
    {Mode::mctls, 2, 840000, 72,
     "c03e2692917dc007724efdc54268e0f403ae813daf2d9d2480d9c9944c14321f",
     112, "e82b15b9bd884942f67a10baee7bd67147c8e0a2135e1c97478fa0f9e2723151"},
    {Mode::split_tls, 1, 480000, 46,
     "1ca31ce5e4fc644d020b9065aebef055ab61ee2990a782434abbcf46a5a48352",
     84, "0a0b53b861bd550b524ee351fedbcaa78f86adb6ca594e4dec53a9fbb932f212"},
    {Mode::split_tls, 2, 680000, 69,
     "76713bb5dd8eb447aa818835d1b692d9119ad2c3b424289e43c7c31845a1ffc5",
     126, "739743dcd2a8051fcf06bcc489c90faff5fbd4b09bef273da85a79544523684f"},
    {Mode::e2e_tls, 1, 480000, 46,
     "94e5b11b09940856bb8bcc041bd582402261a440b03e19e4f1c6c2b59bba80b9",
     56, "1f45dfd893ce96fd9871ccfdc898691d33d28b141667873a7cd46698735a97fa"},
    {Mode::e2e_tls, 2, 680000, 69,
     "2dfba037500fc36cd648db3e50c0b84d919415443b34a9921b568164dc0592f2",
     70, "22a0a621b58901c4a56c67a74f4e1d59764baf5b7e44106bc5853c53c28d9550"},
    {Mode::no_encrypt, 1, 320000, 36,
     "175bd3075c1d5d34abafff5379159c2f94a2e84d0f318dbd0f7170e61774e6e3",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {Mode::no_encrypt, 2, 440000, 54,
     "7928a7bcf44b845694244992e8ad5852d23482137f56435e0dd1d14b35eb0d59",
     0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
};

TEST(TestbedDigest, WireBytesSpansAndTimingArePinned)
{
    for (const Pinned& pin : kPinned) {
        SCOPED_TRACE(std::string(to_string(pin.mode)) + " x" +
                     std::to_string(pin.middleboxes));
        net::CaptureCollector capture;
        obs::SpanCollector spans;
        TestbedConfig cfg;
        cfg.mode = pin.mode;
        cfg.n_middleboxes = pin.middleboxes;
        cfg.capture = &capture;
        cfg.spans = &spans;
        Testbed bed(cfg);
        auto fetch = bed.fetch_sequence({2000, 16000});
        bed.run();
        ASSERT_TRUE(fetch->completed) << fetch->error;

        Bytes wire = net::capture_serialize(capture.capture);
        EXPECT_EQ(fetch->done, pin.done);
        EXPECT_EQ(capture.capture.frames.size(), pin.frames);
        EXPECT_EQ(hex_sha(wire), pin.capture_sha);
#if defined(MCT_OBS_ENABLED)
        std::string rows = span_rows(spans);
        EXPECT_EQ(spans.ordered().size(), pin.spans);
        EXPECT_EQ(hex_sha(str_to_bytes(rows)), pin.span_sha);
#endif
    }
}

}  // namespace
}  // namespace mct::http
