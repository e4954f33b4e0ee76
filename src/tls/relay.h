// In-memory relay for sans-IO endpoints: moves write units from each party
// to its neighbour until every party goes quiet. It is the transport of
// every in-process client → server run: tests, benches and demos.
//
// Contract, shared with mctls::relay (mctls/relay.h):
//   - Order. Each round drains the client toward the server, then the
//     server back toward the client. The order decides when each party
//     draws from a shared DRBG, so it decides the wire bytes.
//   - Contexts precede bytes. Every unit's span context (take_unit_spans)
//     is queued at the receiver (queue_rx_span) before the unit is fed.
//     Both calls do nothing when no span collector is attached.
//   - A run that is not quiet after kMaxRelayRounds rounds is a livelock:
//     it stops and says so instead of hanging.
//   - Every feed must be ok() or leave its receiver failed(); the first
//     feed that breaks this is reported.
//   - Each party's busy time (wall time inside its start/feed calls) is
//     measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.h"
#include "obs/span.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mct::tls {

// A correct chain settles in a handful of rounds.
inline constexpr int kMaxRelayRounds = 10000;

struct RelayReport {
    bool livelock = false;  // stopped at kMaxRelayRounds without going quiet
    // First feed that failed while its receiver stayed healthy, as
    // "<receiver>: <error>"; empty when there was none.
    std::string bad_feed;
    uint64_t client_ns = 0;
    uint64_t server_ns = 0;
    std::vector<uint64_t> middlebox_ns;  // mctls::relay: one per middlebox

    bool ok() const { return !livelock && bad_feed.empty(); }
};

namespace relay_detail {

// Start the client's handshake; returns the nanoseconds it took.
template <class Client>
uint64_t timed_start(Client& client)
{
    auto t0 = std::chrono::steady_clock::now();
    client.start();
    return obs::SessionProbe::cpu_since(t0);
}

// One sender's units with their index-aligned span contexts. A braced
// initializer evaluates in order, so the units are taken before the spans.
struct Batch {
    std::vector<Bytes> units;
    std::vector<obs::SpanContext> ctxs;
};

template <class Endpoint>
Batch take(Endpoint& from)
{
    return {from.take_write_units(), from.take_unit_spans()};
}

// Feed `batch` to one receiver, each unit preceded by its span context:
// `feed(ctx, unit)` queues the context and feeds the bytes, `failed()`
// reads the receiver's state. True if the batch was non-empty.
template <class Feed, class Failed>
bool carry(const Batch& batch, const char* receiver, uint64_t& ns, RelayReport& report,
           Feed&& feed, Failed&& failed)
{
    for (size_t i = 0; i < batch.units.size(); ++i) {
        obs::SpanContext ctx = i < batch.ctxs.size() ? batch.ctxs[i] : obs::SpanContext{};
        auto t0 = std::chrono::steady_clock::now();
        Status s = feed(ctx, batch.units[i]);
        ns += obs::SessionProbe::cpu_since(t0);
        if (!s && !failed() && report.bad_feed.empty())
            report.bad_feed = std::string(receiver) + ": " + s.error().message;
    }
    return !batch.units.empty();
}

template <class Endpoint>
bool deliver(const Batch& batch, Endpoint& to, const char* receiver, uint64_t& ns,
             RelayReport& report)
{
    return carry(
        batch, receiver, ns, report,
        [&](obs::SpanContext ctx, ConstBytes unit) {
            to.queue_rx_span(ctx);
            return to.feed(unit);
        },
        [&] { return to.failed(); });
}

// Run `round(report)` — true if any unit moved — until a round moves
// nothing or kMaxRelayRounds rounds have run.
template <class Round>
RelayReport until_quiet(RelayReport report, Round&& round)
{
    for (int i = 0; i < kMaxRelayRounds; ++i)
        if (!round(report)) return report;
    report.livelock = true;
    return report;
}

}  // namespace relay_detail

// Relay client <-> server until both are quiet. The two endpoint types may
// differ (an mcTLS client against a TLS server).
template <class Client, class Server>
RelayReport relay(Client& client, Server& server)
{
    using namespace relay_detail;
    return until_quiet({}, [&](RelayReport& report) {
        bool progress = deliver(take(client), server, "server", report.server_ns, report);
        progress |= deliver(take(server), client, "client", report.client_ns, report);
        return progress;
    });
}

// Start the client's handshake (charged to the client) and relay.
template <class Client, class Server>
RelayReport handshake(Client& client, Server& server)
{
    uint64_t start_ns = relay_detail::timed_start(client);
    RelayReport report = relay(client, server);
    report.client_ns += start_ns;
    return report;
}

}  // namespace mct::tls
