#include "chain_bench.h"

#include "mctls/relay.h"
#include "tls/relay.h"

namespace mct::bench {

namespace {

std::vector<mctls::ContextDescription> make_contexts(size_t n_contexts, size_t n_mboxes)
{
    std::vector<mctls::ContextDescription> contexts;
    for (size_t i = 0; i < n_contexts; ++i) {
        mctls::ContextDescription ctx;
        ctx.id = static_cast<uint8_t>(i + 1);
        ctx.purpose = "ctx" + std::to_string(i + 1);
        // Worst case for mcTLS: full read/write everywhere (paper §5).
        ctx.permissions.assign(n_mboxes, mctls::Permission::write);
        contexts.push_back(std::move(ctx));
    }
    return contexts;
}

// Adds the relay's per-party busy time to `seconds` (middleboxes summed).
void charge(const tls::RelayReport& report, PartySeconds* seconds)
{
    if (!seconds) return;
    seconds->client += static_cast<double>(report.client_ns) * 1e-9;
    seconds->server += static_cast<double>(report.server_ns) * 1e-9;
    for (uint64_t ns : report.middlebox_ns) seconds->middlebox += static_cast<double>(ns) * 1e-9;
}

// The configs of every mcTLS entry point's chain: client, cfg.n_middleboxes
// middleboxes, server. Entry points adjust them before building the Chain.
struct ChainConfigs {
    mctls::SessionConfig client;
    mctls::SessionConfig server;
    std::vector<mctls::MiddleboxConfig> mboxes;
};

ChainConfigs chain_configs(BenchPki& pki, const ChainConfig& cfg, Rng& rng)
{
    ChainConfigs c;
    c.client.role = tls::Role::client;
    c.client.server_name = "server.example.com";
    c.client.contexts = make_contexts(cfg.n_contexts, cfg.n_middleboxes);
    for (size_t i = 0; i < cfg.n_middleboxes; ++i)
        c.client.middleboxes.push_back(
            {pki.mbox_ids[i].certificate.subject, "mbox" + std::to_string(i)});
    c.client.trust = &pki.store;
    c.client.rng = &rng;

    c.server.role = tls::Role::server;
    c.server.chain = {pki.server_id.certificate};
    c.server.private_key = pki.server_id.private_key;
    c.server.trust = &pki.store;
    c.server.client_key_distribution = cfg.client_key_distribution;
    c.server.rng = &rng;

    for (size_t i = 0; i < cfg.n_middleboxes; ++i) {
        mctls::MiddleboxConfig mcfg;
        mcfg.name = pki.mbox_ids[i].certificate.subject;
        mcfg.chain = {pki.mbox_ids[i].certificate};
        mcfg.private_key = pki.mbox_ids[i].private_key;
        mcfg.rng = &rng;
        c.mboxes.push_back(std::move(mcfg));
    }
    return c;
}

struct Chain {
    mctls::Session client;
    mctls::Session server;
    std::vector<std::unique_ptr<mctls::MiddleboxSession>> mboxes;

    explicit Chain(ChainConfigs c) : client(std::move(c.client)), server(std::move(c.server))
    {
        for (auto& mcfg : c.mboxes)
            mboxes.push_back(std::make_unique<mctls::MiddleboxSession>(std::move(mcfg)));
    }

    // One handshake across the chain; true when every party completed it.
    bool handshake(PartySeconds* seconds)
    {
        tls::RelayReport report = mctls::handshake(client, mboxes, server);
        charge(report, seconds);
        bool ok = report.ok() && client.handshake_complete() && server.handshake_complete();
        for (auto& mbox : mboxes) ok = ok && mbox->handshake_complete();
        return ok;
    }
};

}  // namespace

bool run_mctls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                         PartySeconds* seconds, PartyOps* ops)
{
    ChainConfigs c = chain_configs(pki, cfg, rng);
    // Paper §3.1: servers typically skip middlebox authentication to save
    // CPU; Table 3 and Figure 5 assume that default.
    c.server.authenticate_middleboxes = false;
    if (ops) {
        c.client.ops = &ops->client;
        c.server.ops = &ops->server;
        if (!c.mboxes.empty()) c.mboxes[0].ops = &ops->middlebox;
    }
    return Chain(std::move(c)).handshake(seconds);
}

bool run_mctls_resumed_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                                 ResumeState& state, PartySeconds* seconds)
{
    if (state.mbox_caches.size() < cfg.n_middleboxes)
        state.mbox_caches.resize(cfg.n_middleboxes);
    bool warm = state.mctls_ticket.valid();

    ChainConfigs c = chain_configs(pki, cfg, rng);
    if (warm) c.client.ticket = &state.mctls_ticket;
    c.server.authenticate_middleboxes = false;
    c.server.session_cache = &state.mctls_cache;
    for (size_t i = 0; i < c.mboxes.size(); ++i) c.mboxes[i].session_cache = &state.mbox_caches[i];

    Chain chain(std::move(c));
    if (!chain.handshake(seconds)) return false;
    // A warm state must actually take the abbreviated path; silently timing
    // full handshakes would corrupt the resumed series.
    if (warm && !chain.client.resumed()) return false;
    state.mctls_ticket = chain.client.ticket();
    return true;
}

std::optional<uint64_t> mctls_handshake_bytes(BenchPki& pki, const ChainConfig& cfg, Rng& rng)
{
    Chain chain(chain_configs(pki, cfg, rng));
    if (!chain.handshake(nullptr)) return std::nullopt;
    return chain.client.handshake_wire_bytes();
}

namespace {

tls::SessionConfig tls_client_config(BenchPki& pki, Rng& rng, crypto::OpCounters* ops)
{
    tls::SessionConfig cfg;
    cfg.role = tls::Role::client;
    cfg.server_name = "server.example.com";
    cfg.trust = &pki.store;
    cfg.rng = &rng;
    cfg.ops = ops;
    return cfg;
}

tls::SessionConfig tls_server_config(const pki::Identity& id, Rng& rng,
                                     crypto::OpCounters* ops)
{
    tls::SessionConfig cfg;
    cfg.role = tls::Role::server;
    cfg.chain = {id.certificate};
    cfg.private_key = id.private_key;
    cfg.rng = &rng;
    cfg.ops = ops;
    return cfg;
}

// One TLS handshake; adds each side's busy time to its seconds, if given.
bool tls_handshake(tls::Session& client, tls::Session& server, double* client_seconds,
                   double* server_seconds)
{
    tls::RelayReport report = tls::handshake(client, server);
    if (client_seconds) *client_seconds += static_cast<double>(report.client_ns) * 1e-9;
    if (server_seconds) *server_seconds += static_cast<double>(report.server_ns) * 1e-9;
    return report.ok() && client.handshake_complete() && server.handshake_complete();
}

}  // namespace

bool run_split_tls_handshake(BenchPki& pki, const ChainConfig& cfg, Rng& rng,
                             PartySeconds* seconds, PartyOps* ops)
{
    // Hop 0: client <-> mbox0 (or server when no middleboxes).
    // Hops i: mbox(i-1) client-role <-> mbox(i) server-role / server.
    bool ok = true;
    size_t hops = cfg.n_middleboxes + 1;
    for (size_t hop = 0; hop < hops; ++hop) {
        bool left_is_client = hop == 0;
        bool right_is_server = hop == hops - 1;
        crypto::OpCounters* left_ops = nullptr;
        crypto::OpCounters* right_ops = nullptr;
        if (ops) {
            left_ops = left_is_client ? &ops->client : (hop == 1 ? &ops->middlebox : nullptr);
            right_ops = right_is_server ? &ops->server : (hop == 0 ? &ops->middlebox : nullptr);
        }
        double* left_seconds = nullptr;
        double* right_seconds = nullptr;
        if (seconds) {
            left_seconds = left_is_client ? &seconds->client : &seconds->middlebox;
            right_seconds = right_is_server ? &seconds->server : &seconds->middlebox;
        }

        const pki::Identity& right_id =
            right_is_server ? pki.server_id : pki.impersonation_ids[hop];
        tls::Session left(tls_client_config(pki, rng, left_ops));
        tls::Session right(tls_server_config(right_id, rng, right_ops));
        ok = ok && tls_handshake(left, right, left_seconds, right_seconds);
    }
    return ok;
}

bool run_e2e_tls_handshake(BenchPki& pki, const ChainConfig&, Rng& rng,
                           PartySeconds* seconds, PartyOps* ops)
{
    // Middleboxes only copy bytes; their cost is ~0 and charged nowhere.
    tls::Session client(tls_client_config(pki, rng, ops ? &ops->client : nullptr));
    tls::Session server(tls_server_config(pki.server_id, rng, ops ? &ops->server : nullptr));
    return tls_handshake(client, server, seconds ? &seconds->client : nullptr,
                         seconds ? &seconds->server : nullptr);
}

bool run_tls_resumed_handshake(BenchPki& pki, Rng& rng, ResumeState& state,
                               PartySeconds* seconds)
{
    bool warm = state.tls_ticket.valid();
    tls::SessionConfig ccfg = tls_client_config(pki, rng, nullptr);
    if (warm) ccfg.ticket = &state.tls_ticket;
    tls::SessionConfig scfg = tls_server_config(pki.server_id, rng, nullptr);
    scfg.session_cache = &state.tls_cache;

    tls::Session client(std::move(ccfg));
    tls::Session server(std::move(scfg));
    if (!tls_handshake(client, server, seconds ? &seconds->client : nullptr,
                       seconds ? &seconds->server : nullptr))
        return false;
    if (warm && !client.resumed()) return false;
    state.tls_ticket = client.ticket();
    return true;
}

std::optional<uint64_t> tls_handshake_bytes(BenchPki& pki, Rng& rng)
{
    tls::Session client(tls_client_config(pki, rng, nullptr));
    tls::Session server(tls_server_config(pki.server_id, rng, nullptr));
    if (!tls_handshake(client, server, nullptr, nullptr)) return std::nullopt;
    return client.handshake_wire_bytes();
}

}  // namespace mct::bench
