// The in-memory relays (tls/relay.h, mctls/relay.h) drive every in-process
// chain. Their forwarding order decides when each party draws from a
// shared DRBG, so it decides the wire bytes. These tests pin what the
// relays must keep bit-identical — the Table 3 operation counts and a
// digest of every unit crossing every hop — plus the relay contract:
// contexts precede bytes, a livelock stops and is reported, a feed that
// fails without failing its receiver is reported, and each party's busy
// time is measured.
#include "mctls/relay.h"

#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "chain_bench.h"
#include "crypto/sha2.h"
#include "obs/span.h"
#include "tests/mctls/harness.h"
#include "tls/relay.h"
#include "tls/session.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

std::array<uint64_t, 7> fields(const crypto::OpCounters& c)
{
    return {c.hash, c.secret_comp, c.key_gen, c.asym_sign,
            c.asym_verify, c.sym_encrypt, c.sym_decrypt};
}

struct Table3Row {
    size_t n;
    bool ckd;
    std::array<uint64_t, 7> client, middlebox, server;
};

// Per-party OpCounters of bench::run_mctls_handshake, K = 4 contexts, in
// field order hash, secret, keygen, sign, verify, enc, dec.
TEST(Relay, Table3OperationCountsArePinned)
{
    const Table3Row rows[] = {
        {1, false, {14, 2, 18, 0, 3, 3, 2}, {0, 2, 10, 2, 0, 0, 2}, {15, 2, 18, 1, 0, 3, 2}},
        {1, true, {13, 2, 10, 0, 3, 2, 1}, {0, 1, 1, 2, 0, 0, 1}, {14, 1, 9, 1, 0, 1, 1}},
        {2, false, {18, 3, 19, 0, 5, 4, 2}, {0, 2, 10, 2, 0, 0, 2}, {19, 3, 19, 1, 0, 4, 2}},
        {2, true, {17, 3, 11, 0, 5, 3, 1}, {0, 1, 1, 2, 0, 0, 1}, {18, 1, 9, 1, 0, 1, 1}},
    };
    for (const Table3Row& row : rows) {
        SCOPED_TRACE("N=" + std::to_string(row.n) + " ckd=" + std::to_string(row.ckd));
        bench::BenchPki pki;
        TestRng rng(123);
        bench::PartyOps ops;
        ASSERT_TRUE(bench::run_mctls_handshake(pki, {row.n, 4, row.ckd}, rng, nullptr, &ops));
        EXPECT_EQ(fields(ops.client), row.client);
        EXPECT_EQ(fields(ops.middlebox), row.middlebox);
        EXPECT_EQ(fields(ops.server), row.server);
    }
}

// SHA-256 over every unit a party hands the relay, each prefixed by the
// hop it crosses and its length.
struct HopDigest {
    crypto::Sha256 sha;
    size_t units = 0;

    void add(uint8_t hop, const std::vector<Bytes>& batch)
    {
        for (const Bytes& unit : batch) {
            uint32_t n = static_cast<uint32_t>(unit.size());
            uint8_t header[5] = {hop, uint8_t(n >> 24), uint8_t(n >> 16), uint8_t(n >> 8),
                                 uint8_t(n)};
            sha.update(ConstBytes(header, sizeof(header)));
            sha.update(unit);
            ++units;
        }
    }
};

// Endpoint and middlebox wrappers that feed HopDigest as the relay takes
// their units and otherwise forward to the wrapped party.
struct TapEndpoint {
    Session& s;
    HopDigest& digest;
    uint8_t hop;

    void start() { s.start(); }
    std::vector<Bytes> take_write_units()
    {
        auto units = s.take_write_units();
        digest.add(hop, units);
        return units;
    }
    std::vector<obs::SpanContext> take_unit_spans() { return s.take_unit_spans(); }
    void queue_rx_span(obs::SpanContext ctx) { s.queue_rx_span(ctx); }
    Status feed(ConstBytes wire) { return s.feed(wire); }
    bool failed() const { return s.failed(); }
};

struct TapMbox {
    MiddleboxSession& m;
    HopDigest& digest;
    uint8_t to_server_hop;
    uint8_t to_client_hop;

    std::vector<Bytes> take_to_server()
    {
        auto units = m.take_to_server();
        digest.add(to_server_hop, units);
        return units;
    }
    std::vector<Bytes> take_to_client()
    {
        auto units = m.take_to_client();
        digest.add(to_client_hop, units);
        return units;
    }
    std::vector<obs::SpanContext> take_to_server_spans() { return m.take_to_server_spans(); }
    std::vector<obs::SpanContext> take_to_client_spans() { return m.take_to_client_spans(); }
    void queue_rx_span(bool from_client, obs::SpanContext ctx)
    {
        m.queue_rx_span(from_client, ctx);
    }
    Status feed_from_client(ConstBytes wire) { return m.feed_from_client(wire); }
    Status feed_from_server(ConstBytes wire) { return m.feed_from_server(wire); }
    bool failed() const { return m.failed(); }
};

// A 2-middlebox handshake plus one request and one response on a context
// the second middlebox rewrites (its reseal draws from the shared DRBG)
// and on one the first cannot read.
TEST(Relay, TwoMiddleboxChainUnitDigestIsPinned)
{
    ChainEnv env;
    ContextDescription headers{1, "headers", {Permission::read, Permission::write}};
    ContextDescription body{2, "body", {Permission::none, Permission::read}};
    auto infos = env.make_middleboxes(2);
    env.client = std::make_unique<Session>(env.client_config(infos, {headers, body}));
    env.server = std::make_unique<Session>(env.server_config());
    for (size_t i = 0; i < 2; ++i) {
        auto mcfg = env.mbox_config(i);
        if (i == 1)
            mcfg.transform = [](uint8_t, Direction, Bytes payload) {
                Bytes tag = str_to_bytes(" [m1]");
                payload.insert(payload.end(), tag.begin(), tag.end());
                return payload;
            };
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    }

    // Hops: client->M0 0, M0->M1 1, M1->server 2, server->M1 3, M1->M0 4,
    // M0->client 5.
    HopDigest digest;
    TapEndpoint client{*env.client, digest, 0};
    TapEndpoint server{*env.server, digest, 3};
    TapMbox m0{*env.mboxes[0], digest, 1, 5};
    TapMbox m1{*env.mboxes[1], digest, 2, 4};
    std::array<TapMbox*, 2> mboxes{&m0, &m1};

    tls::RelayReport report = handshake(client, mboxes, server);
    EXPECT_TRUE(report.ok());
    ASSERT_TRUE(env.all_complete());

    ASSERT_TRUE(env.client->send_app_data(1, str_to_bytes("GET /index.html")).ok());
    ASSERT_TRUE(env.client->send_app_data(2, str_to_bytes("cookie=secret")).ok());
    EXPECT_TRUE(relay(client, mboxes, server).ok());
    ASSERT_TRUE(env.server->send_app_data(1, str_to_bytes("HTTP/1.1 200 OK")).ok());
    ASSERT_TRUE(env.server->send_app_data(2, str_to_bytes("<html>hello</html>")).ok());
    EXPECT_TRUE(relay(client, mboxes, server).ok());

    auto at_server = env.server->take_app_data();
    ASSERT_EQ(at_server.size(), 2u);
    EXPECT_EQ(bytes_to_str(at_server[0].data), "GET /index.html [m1]");
    EXPECT_EQ(bytes_to_str(at_server[1].data), "cookie=secret");
    auto at_client = env.client->take_app_data();
    ASSERT_EQ(at_client.size(), 2u);
    EXPECT_EQ(bytes_to_str(at_client[0].data), "HTTP/1.1 200 OK [m1]");
    EXPECT_EQ(bytes_to_str(at_client[1].data), "<html>hello</html>");

    auto sha = digest.sha.finish();
    EXPECT_EQ(digest.units, 24u);
    EXPECT_EQ(to_hex(ConstBytes(sha.data(), sha.size())),
              "26436347382d317f26bec45de2881a2efc04c935fbefb4b40f7ada351cd7b43c");
    EXPECT_EQ(env.client->handshake_wire_bytes(), 2486u);
}

TEST(Relay, ReportsEachPartysBusyTime)
{
    ChainEnv env;
    env.build(2, {test::ctx_row(1, "d", 2, Permission::read)});
    env.client->start();
    tls::RelayReport report = env.pump();
    ASSERT_TRUE(env.all_complete());
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.client_ns, 0u);
    EXPECT_GT(report.server_ns, 0u);
    ASSERT_EQ(report.middlebox_ns.size(), 2u);
    EXPECT_GT(report.middlebox_ns[0], 0u);
    EXPECT_GT(report.middlebox_ns[1], 0u);
}

// Contexts precede bytes on the pair relay too: a traced TLS pair gets a
// deliver span for every record it opens.
TEST(Relay, PairRelayCarriesSpanContexts)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "span emission compiled out under MCT_OBS=OFF";
#endif
    uint64_t tick = 0;
    obs::SpanCollector spans(1 << 12);
    spans.set_clock([&tick] { return ++tick; });
    ChainEnv env;  // PKI fixtures only

    tls::SessionConfig ccfg = env.tls_client_config();
    ccfg.spans = &spans;
    tls::SessionConfig scfg = env.tls_server_config();
    scfg.spans = &spans;
    tls::Session client(ccfg);
    tls::Session server(scfg);
    ASSERT_TRUE(tls::handshake(client, server).ok());
    ASSERT_TRUE(client.handshake_complete() && server.handshake_complete());

    ASSERT_TRUE(client.send_app_data(str_to_bytes("ping")).ok());
    ASSERT_TRUE(server.send_app_data(str_to_bytes("pong")).ok());
    EXPECT_TRUE(tls::relay(client, server).ok());
    EXPECT_EQ(bytes_to_str(server.take_app_data()), "ping");
    EXPECT_EQ(bytes_to_str(client.take_app_data()), "pong");

    size_t delivers = 0;
    for (const auto& s : spans.ordered())
        if (s.stage == obs::Stage::deliver) ++delivers;
    EXPECT_EQ(delivers, 2u);
}

// Scripted endpoints for the relay contract.
enum class Script { quiet, echo, refuse, refuse_and_fail };

struct FakeEndpoint {
    Script script = Script::quiet;
    bool failed_ = false;
    std::vector<Bytes> out;

    explicit FakeEndpoint(Script s = Script::quiet) : script(s) {}

    void start() { out.push_back(Bytes{1}); }
    std::vector<Bytes> take_write_units() { return std::exchange(out, {}); }
    std::vector<obs::SpanContext> take_unit_spans() { return {}; }
    void queue_rx_span(obs::SpanContext) {}
    Status feed(ConstBytes wire)
    {
        if (script == Script::refuse || script == Script::refuse_and_fail) {
            failed_ = script == Script::refuse_and_fail;
            return err("refused");
        }
        if (script == Script::echo) out.push_back(to_bytes(wire));
        return {};
    }
    bool failed() const { return failed_; }
};

TEST(Relay, LivelockStopsAtTheRoundCapAndIsReported)
{
    FakeEndpoint a(Script::echo);
    FakeEndpoint b(Script::echo);
    tls::RelayReport report = tls::handshake(a, b);
    EXPECT_TRUE(report.livelock);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.bad_feed.empty());
}

TEST(Relay, FirstFeedThatFailsWithoutFailingItsReceiverIsReported)
{
    FakeEndpoint client;
    FakeEndpoint server(Script::refuse);
    tls::RelayReport report = tls::handshake(client, server);
    EXPECT_FALSE(report.livelock);
    EXPECT_EQ(report.bad_feed, "server: refused");
    EXPECT_FALSE(report.ok());

    // A receiver that fails on the bad unit is following the rule.
    FakeEndpoint client2;
    FakeEndpoint server2(Script::refuse_and_fail);
    EXPECT_TRUE(tls::handshake(client2, server2).ok());
}

}  // namespace
}  // namespace mct::mctls
