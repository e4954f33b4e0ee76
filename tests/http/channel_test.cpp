#include "http/channel.h"

#include <gtest/gtest.h>

#include "pki/authority.h"
#include "util/rng.h"

namespace mct::http {
namespace {

void pump(SecureChannel& a, SecureChannel& b)
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (auto& unit : a.take_outgoing()) {
            progress = true;
            (void)b.on_bytes(unit);
        }
        for (auto& unit : b.take_outgoing()) {
            progress = true;
            (void)a.on_bytes(unit);
        }
    }
}

TEST(PlainChannel, ImmediatelyReadyAndPassesBytes)
{
    PlainChannel a, b;
    EXPECT_TRUE(a.ready());
    ASSERT_TRUE(a.send_part(0, str_to_bytes("hello")).ok());
    pump(a, b);
    EXPECT_EQ(bytes_to_str(b.take_received()), "hello");
    EXPECT_EQ(a.handshake_wire_bytes(), 0u);
    EXPECT_EQ(a.app_overhead_bytes(), 0u);
}

TEST(PlainChannel, EachPartIsOneWriteUnit)
{
    PlainChannel a;
    (void)a.send_part(0, str_to_bytes("x"));
    (void)a.send_part(0, str_to_bytes("y"));
    EXPECT_EQ(a.take_outgoing().size(), 2u);
}

struct ChannelEnv {
    TestRng rng{700};
    pki::Authority ca{"Chan CA", rng};
    pki::TrustStore store;
    pki::Identity server_id = ca.issue("server.example.com", rng);

    ChannelEnv() { store.add_root(ca.root_certificate()); }
};

TEST(TlsChannel, HandshakeAndStreamIgnoresContextTag)
{
    ChannelEnv env;
    tls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    tls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {env.server_id.certificate};
    scfg.private_key = env.server_id.private_key;
    scfg.rng = &env.rng;

    TlsChannel client(std::move(ccfg));
    TlsChannel server(std::move(scfg));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.ready());
    ASSERT_TRUE(server.ready());

    ASSERT_TRUE(client.send_part(3, str_to_bytes("tagged")).ok());  // tag ignored
    pump(client, server);
    EXPECT_EQ(bytes_to_str(server.take_received()), "tagged");
    EXPECT_GT(client.handshake_wire_bytes(), 0u);
}

TEST(McTlsChannel, StreamReassemblesAcrossContexts)
{
    ChannelEnv env;
    mctls::SessionConfig ccfg;
    ccfg.role = tls::Role::client;
    ccfg.server_name = "server.example.com";
    ccfg.contexts = {{1, "a", {}}, {2, "b", {}}};
    ccfg.trust = &env.store;
    ccfg.rng = &env.rng;
    mctls::SessionConfig scfg;
    scfg.role = tls::Role::server;
    scfg.chain = {env.server_id.certificate};
    scfg.private_key = env.server_id.private_key;
    scfg.rng = &env.rng;

    McTlsChannel client(std::move(ccfg));
    McTlsChannel server(std::move(scfg));
    client.start();
    pump(client, server);
    ASSERT_TRUE(client.ready()) << client.error();

    // Interleave two contexts; the received stream preserves send order
    // (mcTLS global sequence numbers).
    ASSERT_TRUE(client.send_part(1, str_to_bytes("AA")).ok());
    ASSERT_TRUE(client.send_part(2, str_to_bytes("BB")).ok());
    ASSERT_TRUE(client.send_part(1, str_to_bytes("CC")).ok());
    pump(client, server);
    EXPECT_EQ(bytes_to_str(server.take_received()), "AABBCC");
}

}  // namespace
}  // namespace mct::http
