// In-memory relay for a whole mcTLS chain: client → M0 … Mn−1 → server
// with N ≥ 0 middleboxes, same contract as tls::relay (tls/relay.h).
//
// Each round drains, in order: the client toward M0; each Mi toward Mi+1
// (or the server), in index order; the server toward Mn−1; each Mi toward
// Mi−1 (or the client), in reverse index order. A unit fed to a hop earlier
// in the round is forwarded in the same round.
#pragma once

#include <array>
#include <iterator>
#include <utility>
#include <vector>

#include "mctls/middlebox.h"
#include "mctls/session.h"
#include "tls/relay.h"

namespace mct::mctls {

namespace relay_detail {

using tls::relay_detail::Batch;

// A middlebox's units queued toward the server (`to_server`) or the client.
template <class Mbox>
Batch take_from_mbox(Mbox& from, bool to_server)
{
    if (to_server) return {from.take_to_server(), from.take_to_server_spans()};
    return {from.take_to_client(), from.take_to_client_spans()};
}

// Feed `batch` to a middlebox on its client side (`from_client`) or its
// server side.
template <class Mbox>
bool deliver_to_mbox(const Batch& batch, Mbox& to, bool from_client, uint64_t& ns,
                     tls::RelayReport& report)
{
    return tls::relay_detail::carry(
        batch, "middlebox", ns, report,
        [&](obs::SpanContext ctx, ConstBytes unit) {
            to.queue_rx_span(from_client, ctx);
            return from_client ? to.feed_from_client(unit) : to.feed_from_server(unit);
        },
        [&] { return to.failed(); });
}

}  // namespace relay_detail

// Relay the chain until every party is quiet. `mboxes` is a range of
// pointers (raw or owning) to the middleboxes, client side first. The
// party types are parameters only so a test can tap the units crossing
// each hop; everything else passes Session and MiddleboxSession.
template <class Client, class Mboxes, class Server>
tls::RelayReport relay(Client& client, const Mboxes& mboxes, Server& server)
{
    using namespace relay_detail;
    using tls::relay_detail::deliver;
    using tls::relay_detail::take;
    size_t n = std::size(mboxes);
    if (n == 0) return tls::relay(client, server);
    auto mbox = [&](size_t i) -> auto& { return *std::data(mboxes)[i]; };

    tls::RelayReport start;
    start.middlebox_ns.assign(n, 0);
    return tls::relay_detail::until_quiet(std::move(start), [&](tls::RelayReport& report) {
        std::vector<uint64_t>& mbox_ns = report.middlebox_ns;
        bool progress = deliver_to_mbox(take(client), mbox(0), true, mbox_ns[0], report);
        for (size_t i = 0; i < n; ++i) {
            Batch batch = take_from_mbox(mbox(i), true);
            progress |= i + 1 < n
                            ? deliver_to_mbox(batch, mbox(i + 1), true, mbox_ns[i + 1], report)
                            : deliver(batch, server, "server", report.server_ns, report);
        }
        progress |= deliver_to_mbox(take(server), mbox(n - 1), false, mbox_ns[n - 1], report);
        for (size_t i = n; i-- > 0;) {
            Batch batch = take_from_mbox(mbox(i), false);
            progress |= i > 0
                            ? deliver_to_mbox(batch, mbox(i - 1), false, mbox_ns[i - 1], report)
                            : deliver(batch, client, "client", report.client_ns, report);
        }
        return progress;
    });
}

// The one-middlebox chain of the demos.
inline tls::RelayReport relay(Session& client, MiddleboxSession& mbox, Session& server)
{
    return relay(client, std::array{&mbox}, server);
}

// Start the client's handshake (charged to the client) and relay.
template <class Client, class Mboxes, class Server>
tls::RelayReport handshake(Client& client, const Mboxes& mboxes, Server& server)
{
    uint64_t start_ns = tls::relay_detail::timed_start(client);
    tls::RelayReport report = relay(client, mboxes, server);
    report.client_ns += start_ns;
    return report;
}

inline tls::RelayReport handshake(Session& client, MiddleboxSession& mbox, Session& server)
{
    return handshake(client, std::array{&mbox}, server);
}

}  // namespace mct::mctls
