#include "http/testbed.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

namespace mct::http {

const char* to_string(Mode mode)
{
    switch (mode) {
    case Mode::mctls:
        return "mcTLS";
    case Mode::split_tls:
        return "SplitTLS";
    case Mode::e2e_tls:
        return "E2E-TLS";
    case Mode::no_encrypt:
        return "NoEncrypt";
    }
    return "?";
}

namespace {

constexpr uint16_t kPort = 443;

std::string mbox_host(size_t i)
{
    return "mbox" + std::to_string(i);
}

Request make_request(const std::string& path)
{
    Request req;
    req.method = "GET";
    req.path = path;
    req.headers = {
        {"Host", "server.example.com"},
        {"User-Agent", "mct-bench/1.0"},
        {"Accept", "*/*"},
        {"Accept-Encoding", "identity"},
        {"Cookie", "session=0123456789abcdef"},
    };
    return req;
}

Response make_object_response(size_t size, char fill = 'x')
{
    Response resp;
    resp.status = 200;
    resp.reason = "OK";
    resp.headers = {
        {"Content-Type", "application/octet-stream"},
        {"Cache-Control", "max-age=3600"},
        {"Server", "mct-sim/1.0"},
    };
    resp.body.assign(size, fill);
    return resp;
}

size_t parse_object_size(const std::string& path)
{
    // Paths look like /obj/<bytes> (or /f<id>/obj/<bytes> when tagged).
    size_t slash = path.rfind('/');
    if (slash == std::string::npos) return 0;
    return static_cast<size_t>(std::strtoull(path.c_str() + slash + 1, nullptr, 10));
}

// Session tagging (cfg.tag_sessions): the fetch id rides the request path
// and determines the object body's fill byte, so the client can verify the
// plaintext it decrypted belongs to *its* session.
uint64_t parse_fetch_id(const std::string& path)
{
    if (path.size() < 3 || path[0] != '/' || path[1] != 'f') return 0;
    return std::strtoull(path.c_str() + 2, nullptr, 10);
}

char fill_for(uint64_t fetch_id)
{
    return static_cast<char>('a' + fetch_id % 26);
}

// Span context `i` of a batch aligned by index with its write units
// (invalid = untraced unit).
obs::SpanContext span_at(const std::vector<obs::SpanContext>& ctxs, size_t i)
{
    return i < ctxs.size() ? ctxs[i] : obs::SpanContext{};
}

// One transport send per write unit, traced when its context is valid so
// SimNet can attribute queueing and transmission to the record behind it.
void send_unit(const net::ConnectionPtr& conn, const Bytes& unit, const obs::SpanContext& ctx)
{
    if (conn->close_queued()) return;
    if (ctx.valid())
        conn->send_traced(unit, ctx);
    else
        conn->send(unit);
}

// Send a channel's pending write units with their span contexts.
void flush_channel(SecureChannel* channel, const net::ConnectionPtr& conn)
{
    if (conn->close_queued()) return;
    std::vector<Bytes> units = channel->take_outgoing();
    std::vector<obs::SpanContext> ctxs = channel->take_outgoing_spans();
    for (size_t i = 0; i < units.size(); ++i) send_unit(conn, units[i], span_at(ctxs, i));
}

// Hand delivered transport span contexts to the channel before the bytes
// they annotate are fed (contexts precede bytes; see Connection docs).
void drain_rx_spans(const net::ConnectionPtr& conn, SecureChannel* channel)
{
    for (const auto& ctx : conn->take_rx_spans()) channel->queue_rx_span(ctx);
}

}  // namespace

struct Testbed::Impl {
    TestbedConfig cfg;
    net::EventLoop* loop;
    net::SimNet net;
    crypto::HmacDrbg rng;

    pki::Authority ca;
    pki::TrustStore store;
    pki::Identity server_id;
    std::vector<pki::Identity> mbox_ids;
    std::vector<pki::Identity> impersonation_ids;  // SplitTLS per middlebox
    std::vector<mctls::MiddleboxInfo> mbox_infos;
    std::vector<mctls::ContextDescription> contexts;

    // Optional hook to customize middlebox behaviour (used by examples).
    std::function<void(size_t, mctls::MiddleboxConfig&)> customize_middlebox;

    // Keep per-connection state alive.
    std::vector<std::shared_ptr<void>> anchors;
    std::vector<net::ConnectionPtr> tracked_conns;
    // Every session owned via anchors, labelled with its trace actor name
    // so publish_session_stats can key the metrics registry. `endpoint` is
    // set for client and server channels: §5.2's overhead accounting stays
    // endpoint to endpoint, without the SplitTLS relay channels.
    struct Tracked {
        std::string label;
        std::function<obs::SessionStats()> stats;
        const SecureChannel* endpoint = nullptr;
    };
    std::vector<Tracked> sessions;
    std::map<std::string, size_t> label_counts;

    // Telemetry (null/0 when cfg.obs is unset).
    obs::Tracer* tracer = nullptr;
    uint16_t actor_testbed = 0;

    // Flight recorder (null when cfg.flight is unset). Client rings are
    // opened per fetch id in start_attempt; these are the shared
    // infrastructure rings under sid 0.
    obs::FlightRecorder* flight = nullptr;
    obs::FlightRing* state_ring = nullptr;
    obs::FlightRing* server_ring = nullptr;
    std::vector<obs::FlightRing*> mbox_rings;  // by relay index; entries may be null

    // Fault state.
    std::vector<char> mbox_dead;        // by relay index
    std::vector<char> corrupt_armed;    // one-shot byte flip per relay
    std::vector<std::vector<net::ConnectionPtr>> relay_conns;  // live legs per relay
    bool fallback_engaged = false;      // client retries over plain TLS (§5.4)

    // Session-continuity state plane (resume/excise policies). The server
    // caches live here so they survive across connections and attempts; the
    // client keeps its last tickets to offer abbreviated handshakes. The
    // plane's maintenance tasks tick off the sim loop between fetches.
    mctls::StatePlane state;
    tls::TlsTicket client_tls_ticket;
    mctls::ResumptionTicket client_mctls_ticket;
    std::vector<char> excised_traced;   // mbox_excised emitted once per relay
    size_t outstanding_fetches = 0;
    uint64_t maintenance_epoch = 0;     // newest pump event wins; stale ones no-op
    bool maintenance_pending = false;
    net::SimTime maintenance_at = 0;

    // Concurrent-session plane. Every live client attempt registers here by
    // fetch id so rekey storms reach ALL established sessions, not just the
    // newest; entries drop out on completion/failure (and lazily when the
    // weak_ptr expires).
    struct ClientConn;
    uint64_t next_fetch_id = 0;
    std::map<uint64_t, std::weak_ptr<ClientConn>> live_clients;
    uint64_t completed_count = 0;
    uint64_t failed_count = 0;

    // Retired-session accounting (cfg.retain_sessions == false): stats fold
    // into per-class aggregates before the session graph is released, so
    // totals survive sessions that no longer exist.
    std::map<std::string, obs::SessionStats> retired_stats;
    Testbed::OverheadTotals retired_overhead;
    uint64_t retired_app_bytes = 0;

    // Degradation-rate gauges: last published cumulative totals + sim time.
    bool gauges_published = false;
    net::SimTime last_publish_at = 0;
    uint64_t last_shed = 0, last_declines = 0, last_evictions = 0;

    Impl(TestbedConfig config, net::EventLoop* outer_loop)
        : cfg(std::move(config)),
          loop(outer_loop),
          net(*outer_loop),
          rng(str_to_bytes("testbed-seed-" + std::to_string(cfg.seed))),
          ca("Sim Root CA", rng),
          server_id(ca.issue("server.example.com", rng)),
          state(cfg.state_plane, cfg.n_middleboxes)
    {
        store.add_root(ca.root_certificate());
        for (size_t i = 0; i < cfg.n_middleboxes; ++i) {
            std::string name = mbox_host(i) + ".isp.net";
            mbox_ids.push_back(ca.issue(name, rng));
            // SplitTLS middleboxes impersonate the server (custom-root model).
            impersonation_ids.push_back(ca.issue("server.example.com", rng));
            mbox_infos.push_back({name, mbox_host(i)});
        }
        if (cfg.contexts_override > 0) {
            for (size_t i = 0; i < cfg.contexts_override; ++i) {
                mctls::ContextDescription ctx;
                ctx.id = static_cast<uint8_t>(i + 1);
                ctx.purpose = "ctx" + std::to_string(i + 1);
                ctx.permissions.assign(cfg.n_middleboxes, cfg.mbox_permission);
                contexts.push_back(std::move(ctx));
            }
            cfg.strategy = ContextStrategy::one_context;
        } else {
            contexts =
                strategy_contexts(cfg.strategy, cfg.n_middleboxes, cfg.mbox_permission);
        }
        if (!cfg.permission_rows.empty()) {
            for (size_t c = 0; c < contexts.size(); ++c) {
                for (size_t m = 0; m < cfg.n_middleboxes; ++m) {
                    if (m < cfg.permission_rows.size() &&
                        c < cfg.permission_rows[m].size())
                        contexts[c].permissions[m] = cfg.permission_rows[m][c];
                }
            }
        }
        mbox_dead.assign(cfg.n_middleboxes, 0);
        corrupt_armed.assign(cfg.n_middleboxes, 0);
        relay_conns.resize(cfg.n_middleboxes);
        excised_traced.assign(cfg.n_middleboxes, 0);
        // Every sink stamps sim time: monotonic and causal, so transport
        // spans telescope exactly into end-to-end record latency.
        auto sim_clock = [clock_loop = loop] { return clock_loop->now(); };
        if (cfg.obs) {
            tracer = &cfg.obs->tracer;
            actor_testbed = tracer->intern("testbed");
            tracer->set_clock(sim_clock);
            net.set_tracer(tracer);
        }
        if (cfg.capture) net.set_capture(cfg.capture);
        if (cfg.spans) {
            cfg.spans->set_clock(sim_clock);
            net.set_spans(cfg.spans);
        }
        if (cfg.flight) {
            flight = cfg.flight;
            flight->set_clock(sim_clock);
            state_ring = flight->open(0, "state");
            server_ring = flight->open(0, "server");
            for (size_t i = 0; i < cfg.n_middleboxes; ++i)
                mbox_rings.push_back(flight->open(0, mbox_host(i)));
        }
        state.set_clock(sim_clock);
        wire_state_plane();
        build_topology();
        start_server();
        for (size_t i = 0; i < cfg.n_middleboxes; ++i) start_relay(i);
        // Same-tick faults fire in declaration order: one loop event per
        // distinct timestamp applies its whole group in sequence, so a
        // kill+restart pair at the same instant behaves identically however
        // the loop breaks timestamp ties.
        std::map<net::SimTime, std::vector<FaultEvent>> fault_groups;
        for (const auto& fault : cfg.faults) fault_groups[fault.at].push_back(fault);
        for (auto& [at, group] : fault_groups)
            loop->schedule_at(at, [this, group = std::move(group)] {
                for (const auto& fault : group) apply_fault(fault);
            });
    }

    // Any configured fault (or recovery beyond abort) arms retransmission on
    // every link and builds bypass links, so failed paths can heal or be
    // routed around. Loss-free byte accounting is unchanged when false.
    bool fault_mode() const
    {
        return !cfg.faults.empty() || cfg.recovery != RecoveryPolicy::abort ||
               cfg.retry.max_attempts > 1;
    }

    // Chain node i: 0 = client, 1..n = middleboxes, n+1 = server.
    std::string chain_node(size_t i) const
    {
        if (i == 0) return "client";
        if (i <= cfg.n_middleboxes) return mbox_host(i - 1);
        return "server";
    }

    // Session-continuity policies keep caches and tickets alive between
    // attempts so the retry can run the abbreviated handshake.
    bool continuity() const
    {
        return cfg.recovery == RecoveryPolicy::resume ||
               cfg.recovery == RecoveryPolicy::excise;
    }

    // Routing skips dead middleboxes only under policies whose session
    // composition excludes them; a plain reconnect (or resume) keeps aiming
    // at the full chain (and fails fast until the middlebox restarts).
    bool route_around_dead() const
    {
        return cfg.recovery == RecoveryPolicy::drop_dead_middleboxes ||
               cfg.recovery == RecoveryPolicy::excise || fallback_engaged;
    }

    // The first chain host from relay `first` on that routing accepts.
    std::string alive_host_from(size_t first) const
    {
        for (size_t j = first; j < cfg.n_middleboxes; ++j)
            if (!mbox_dead[j] || !route_around_dead()) return mbox_host(j);
        return "server";
    }

    // First use of a base label returns it verbatim; later uses get "#n"
    // suffixes so repeated attempts/accepts keep distinct metric prefixes.
    std::string unique_label(const std::string& base)
    {
        size_t n = ++label_counts[base];
        if (n == 1) return base;
        return base + "#" + std::to_string(n);
    }

    // Retain mode only: keep `session` under a unique label.
    template <class S>
    void track_session(const std::string& base, const S* session,
                       const SecureChannel* endpoint = nullptr)
    {
        if (prune()) return;
        sessions.push_back(
            {unique_label(base), [session] { return session->session_stats(); }, endpoint});
    }

    // The fields every session config shares, under the names
    // obs::make_probe reads: the testbed DRBG and the observability sinks.
    template <class Config>
    Config session_config(std::string actor, obs::FlightRing* ring)
    {
        Config c;
        c.rng = &rng;
        c.tracer = tracer;
        c.trace_actor = std::move(actor);
        c.spans = cfg.spans;
        c.flight = ring;
        return c;
    }

    // ---- Session retirement (cfg.retain_sessions == false) ----

    bool prune() const { return !cfg.retain_sessions; }

    void fold_stats(const std::string& cls, const obs::SessionStats& s)
    {
        obs::SessionStats& agg = retired_stats[cls];
        agg.actor = cls;
        agg.established |= s.established;
        agg.resumed |= s.resumed;
        if (s.epoch > agg.epoch) agg.epoch = s.epoch;
        agg.rekeys += s.rekeys;
        agg.handshake_wire_bytes += s.handshake_wire_bytes;
        agg.app_overhead_bytes += s.app_overhead_bytes;
        agg.app_records_sent += s.app_records_sent;
        agg.app_records_received += s.app_records_received;
        agg.macs_generated += s.macs_generated;
        agg.macs_verified += s.macs_verified;
        agg.mac_failures += s.mac_failures;
        agg.alerts_sent += s.alerts_sent;
        agg.alerts_received += s.alerts_received;
        for (const auto& [type, n] : s.alerts_sent_by_type)
            agg.alerts_sent_by_type[type] += n;
        for (const auto& [type, n] : s.alerts_received_by_type)
            agg.alerts_received_by_type[type] += n;
        agg.trace_events_dropped += s.trace_events_dropped;
        for (const auto& c : s.contexts) {
            auto it = std::find_if(
                agg.contexts.begin(), agg.contexts.end(),
                [&](const obs::ContextStats& a) { return a.name == c.name; });
            if (it == agg.contexts.end()) {
                agg.contexts.push_back(c);
                continue;
            }
            it->bytes_out += c.bytes_out;
            it->bytes_in += c.bytes_in;
            it->records_out += c.records_out;
            it->records_in += c.records_in;
        }
    }

    void retire_channel(const std::string& cls, SecureChannel* channel)
    {
        retired_overhead.overhead_bytes += channel->app_overhead_bytes();
        retired_overhead.records += channel->app_records_sent();
        fold_stats(cls, channel->session_stats());
    }

    // Break the connection's reference cycle one tick later: the callbacks
    // being cleared are the very closures the current stack may be executing
    // (and the last owners of `anchor`), so clearing synchronously would
    // free the session graph out from under itself. The deferred event owns
    // `anchor` until after the clear, making teardown safe wherever it was
    // triggered from.
    void release_conn(net::ConnectionPtr conn, std::shared_ptr<void> anchor)
    {
        if (!conn) return;
        loop->schedule(0, [this, conn = std::move(conn), anchor = std::move(anchor)] {
            retired_app_bytes += conn->app_bytes_sent();
            conn->set_on_connect({});
            conn->set_on_data({});
            conn->set_on_close({});
        });
    }

    // Bounded garbage collection for the per-relay connection lists: closed
    // legs accumulate under churn (every retired session leaves two), so
    // compact once the list outgrows a threshold. Amortized O(1) per
    // session; kill faults keep iterating a small live set.
    void compact_relay_conns(size_t index)
    {
        auto& v = relay_conns[index];
        if (v.size() < 64) return;
        v.erase(std::remove_if(v.begin(), v.end(),
                               [](const net::ConnectionPtr& c) {
                                   return c->close_queued();
                               }),
                v.end());
    }

    // ---- State plane ----

    // Degradation decisions become trace events (routine hit/miss traffic
    // stays in CacheStats — tracing it would swamp the ring buffer under
    // churn). ctx carries the cache id: 0 = TLS sessions, 1 = mcTLS server
    // tickets, 2+n = middlebox n's pairwise keys.
    void trace_cache_event(uint16_t cache_id, util::CacheEvent e, uint64_t detail)
    {
        obs::EventType type;
        switch (e) {
        case util::CacheEvent::expired:
            type = obs::EventType::cache_expired;
            break;
        case util::CacheEvent::evicted:
            type = obs::EventType::cache_evicted;
            break;
        case util::CacheEvent::declined:
            type = obs::EventType::cache_declined;
            break;
        case util::CacheEvent::shed:
            type = obs::EventType::cache_shed;
            break;
        default:
            return;
        }
        obs::trace_at(tracer, state_ring, loop->now(), actor_testbed, type, cache_id,
                      detail);
    }

    void wire_state_plane()
    {
        if (tracer || state_ring) {
            state.tls_cache().set_observer([this](util::CacheEvent e, uint64_t d) {
                trace_cache_event(0, e, d);
            });
            state.server_cache().set_observer([this](util::CacheEvent e, uint64_t d) {
                trace_cache_event(1, e, d);
            });
            for (size_t i = 0; i < cfg.n_middleboxes; ++i)
                state.middlebox_cache(i).set_observer(
                    [this, i](util::CacheEvent e, uint64_t d) {
                        trace_cache_event(static_cast<uint16_t>(2 + i), e, d);
                    });
        }
        state.on_sweep = [this](size_t reclaimed, uint64_t now) {
            obs::trace_at(tracer, state_ring, now, actor_testbed,
                          obs::EventType::state_sweep, 0, reclaimed);
        };
        state.on_rekey_due = [this](uint64_t now) {
            obs::trace_at(tracer, state_ring, now, actor_testbed,
                          obs::EventType::state_rekey_due);
            rekey_live_sessions();
        };
        state.on_excise_due = [this](size_t index, uint64_t now) {
            // The grace expired with the relay still down: drop its rejoin
            // state so a zombie restart cannot resume old sessions. Live
            // traffic already routes around it (or the excise retry path
            // splices it out of the composition).
            obs::trace_at(tracer, state_ring, now, actor_testbed,
                          obs::EventType::state_excise_due, 0, index);
            state.excise_middlebox(index);
        };
    }

    // The pump keeps maintenance deadlines firing while fetches are in
    // flight, and stops rescheduling the moment none are — EventLoop::run()
    // drains its queue, so a perpetual timer would never let run() return.
    void schedule_maintenance()
    {
        if (outstanding_fetches == 0) return;
        uint64_t due = state.next_deadline();
        if (due == util::TickScheduler::kIdle) return;
        net::SimTime at = due > loop->now() ? due : loop->now();
        if (maintenance_pending && at >= maintenance_at) return;
        maintenance_pending = true;
        maintenance_at = at;
        uint64_t epoch = ++maintenance_epoch;
        loop->schedule_at(at, [this, epoch] {
            if (epoch != maintenance_epoch) return;  // superseded
            maintenance_pending = false;
            if (outstanding_fetches == 0) return;
            state.tick(loop->now());
            schedule_maintenance();
        });
    }

    void fetch_finished()
    {
        if (outstanding_fetches > 0) --outstanding_fetches;
    }

    void apply_fault(const FaultEvent& fault)
    {
        obs::trace_at(tracer, state_ring, loop->now(), actor_testbed,
                      obs::EventType::fault_injected,
                      0, static_cast<uint64_t>(fault.kind),
                      fault.kind == FaultEvent::Kind::link_down ||
                              fault.kind == FaultEvent::Kind::link_up
                          ? fault.hop
                          : fault.middlebox);
        switch (fault.kind) {
        case FaultEvent::Kind::kill_middlebox:
            if (fault.middlebox >= cfg.n_middleboxes) return;
            mbox_dead[fault.middlebox] = 1;
            // Crash: both TCP legs drop abruptly; callbacks are cleared so
            // in-flight segments land in a dead process.
            for (auto& conn : relay_conns[fault.middlebox]) {
                conn->set_on_data({});
                conn->set_on_close({});
                conn->set_on_connect({});
                conn->abort();
            }
            relay_conns[fault.middlebox].clear();
            // Start the excision grace timer (no-op unless configured) and
            // make sure the pump is armed to fire it.
            state.middlebox_down(fault.middlebox, loop->now());
            schedule_maintenance();
            return;
        case FaultEvent::Kind::restart_middlebox:
            if (fault.middlebox >= cfg.n_middleboxes) return;
            mbox_dead[fault.middlebox] = 0;
            state.middlebox_up(fault.middlebox);
            return;
        case FaultEvent::Kind::link_down:
        case FaultEvent::Kind::link_up: {
            size_t hop = fault.hop;
            if (hop + 1 > cfg.n_middleboxes + 1) return;
            net.set_link_down(chain_node(hop), chain_node(hop + 1),
                              fault.kind == FaultEvent::Kind::link_down);
            return;
        }
        case FaultEvent::Kind::corrupt_record:
            if (fault.middlebox < cfg.n_middleboxes) corrupt_armed[fault.middlebox] = 1;
            return;
        }
    }

    // One-shot byzantine corruption: flip a byte inside the ciphertext of
    // the next application record the armed relay forwards. The three-MAC
    // scheme at the receiving endpoint must catch it (bad_record_mac).
    void maybe_corrupt(size_t index, Bytes& unit)
    {
        if (index >= corrupt_armed.size() || !corrupt_armed[index]) return;
        if (unit.empty() || unit[0] != 23) return;  // wait for application_data
        unit.back() ^= 0x01;
        corrupt_armed[index] = 0;
    }

    // Arm a channel's handshake deadline and schedule the expiry check.
    void arm_channel_deadline(std::shared_ptr<void> anchor, SecureChannel* channel,
                              net::ConnectionPtr conn,
                              std::function<void(const std::string&)> on_expired)
    {
        if (cfg.handshake_deadline == 0) return;
        (void)channel->tick(loop->now());  // arms the deadline
        loop->schedule(cfg.handshake_deadline + 1,
                       [this, anchor, channel, conn, on_expired] {
                           if (channel->ready() || channel->failed()) return;
                           (void)channel->tick(loop->now());
                           flush_channel(channel, conn);  // the timeout alert
                           if (channel->failed() && on_expired)
                               on_expired(channel->error());
                       });
    }

    net::LinkConfig hop_link(size_t hop) const
    {
        if (hop < cfg.per_hop_links.size()) return cfg.per_hop_links[hop];
        return cfg.link;
    }

    void build_topology()
    {
        net.add_host("client");
        net.add_host("server");
        for (size_t i = 0; i < cfg.n_middleboxes; ++i) net.add_host(mbox_host(i));
        auto chain_link = [this](size_t hop) {
            net::LinkConfig lc = hop_link(hop);
            if (fault_mode()) lc.faultable = true;
            return lc;
        };
        if (cfg.n_middleboxes == 0) {
            net.add_link("client", "server", chain_link(0));
            return;
        }
        net.add_link("client", mbox_host(0), chain_link(0));
        for (size_t i = 0; i + 1 < cfg.n_middleboxes; ++i)
            net.add_link(mbox_host(i), mbox_host(i + 1), chain_link(i + 1));
        net.add_link(mbox_host(cfg.n_middleboxes - 1), "server",
                     chain_link(cfg.n_middleboxes));
        if (!fault_mode()) return;
        // Bypass links between non-adjacent chain nodes so the client can
        // route around dead middleboxes. Latency = sum of the spanned hops
        // (the detour re-traces the same physical path).
        size_t nodes = cfg.n_middleboxes + 2;
        for (size_t i = 0; i < nodes; ++i) {
            for (size_t j = i + 2; j < nodes; ++j) {
                net::LinkConfig lc;
                for (size_t hop = i; hop < j; ++hop) lc.latency += hop_link(hop).latency;
                lc.faultable = true;
                net.add_link(chain_node(i), chain_node(j), lc);
            }
        }
    }

    // The mode channels/relays actually run: a TLS-fallback retry downgrades
    // mcTLS to end-to-end TLS with blind relays (§5.4).
    Mode effective_mode() const
    {
        if (fallback_engaged && cfg.mode == Mode::mctls) return Mode::e2e_tls;
        return cfg.mode;
    }

    // Session composition for the next client attempt: under the
    // drop_dead_middleboxes and excise policies, dead relays leave the
    // middlebox list (and their permission columns leave every context).
    // Under excise the reduced list rides the abbreviated handshake, which
    // is what actually rekeys the contexts the dead middlebox could read.
    void alive_composition(std::vector<mctls::MiddleboxInfo>* infos,
                           std::vector<mctls::ContextDescription>* ctxs) const
    {
        *infos = mbox_infos;
        *ctxs = contexts;
        if (cfg.recovery != RecoveryPolicy::drop_dead_middleboxes &&
            cfg.recovery != RecoveryPolicy::excise)
            return;
        infos->clear();
        for (size_t i = 0; i < cfg.n_middleboxes; ++i)
            if (!mbox_dead[i]) infos->push_back(mbox_infos[i]);
        if (infos->size() == mbox_infos.size()) return;
        for (auto& ctx : *ctxs) {
            std::vector<mctls::Permission> kept;
            for (size_t i = 0; i < ctx.permissions.size(); ++i)
                if (i >= mbox_dead.size() || !mbox_dead[i])
                    kept.push_back(ctx.permissions[i]);
            ctx.permissions = std::move(kept);
        }
    }

    // Get-or-create the black box for one fetch's client session.
    obs::FlightRing* client_ring(uint64_t fetch_id)
    {
        return flight ? flight->open(fetch_id, "client") : nullptr;
    }

    std::unique_ptr<SecureChannel> make_client_channel(obs::FlightRing* ring)
    {
        // The client fields TLS and mcTLS configs share.
        auto client_config = [&](auto c, auto& ticket) {
            c.role = tls::Role::client;
            c.server_name = "server.example.com";
            c.trust = &store;
            c.handshake_timeout = cfg.handshake_deadline;
            c.keylog = cfg.keylog;
            if (continuity() && ticket.valid()) c.ticket = &ticket;
            return c;
        };
        switch (effective_mode()) {
        case Mode::no_encrypt:
            return std::make_unique<PlainChannel>();
        case Mode::split_tls:
        case Mode::e2e_tls:
            return std::make_unique<TlsChannel>(client_config(
                session_config<tls::SessionConfig>("client", ring), client_tls_ticket));
        case Mode::mctls: {
            auto mcfg = client_config(session_config<mctls::SessionConfig>("client", ring),
                                      client_mctls_ticket);
            alive_composition(&mcfg.middleboxes, &mcfg.contexts);
            return std::make_unique<McTlsChannel>(std::move(mcfg));
        }
        }
        return nullptr;
    }

    std::unique_ptr<SecureChannel> make_server_channel()
    {
        switch (effective_mode()) {
        case Mode::no_encrypt:
            return std::make_unique<PlainChannel>();
        case Mode::split_tls:
        case Mode::e2e_tls: {
            auto tcfg = session_config<tls::SessionConfig>("server", server_ring);
            tcfg.role = tls::Role::server;
            tcfg.chain = {server_id.certificate};
            tcfg.private_key = server_id.private_key;
            tcfg.handshake_timeout = cfg.handshake_deadline;
            if (continuity()) tcfg.session_cache = &state.tls_cache();
            return std::make_unique<TlsChannel>(std::move(tcfg));
        }
        case Mode::mctls: {
            auto mcfg = session_config<mctls::SessionConfig>("server", server_ring);
            mcfg.role = tls::Role::server;
            mcfg.chain = {server_id.certificate};
            mcfg.private_key = server_id.private_key;
            mcfg.trust = &store;
            mcfg.client_key_distribution = cfg.client_key_distribution;
            mcfg.handshake_timeout = cfg.handshake_deadline;
            if (continuity()) mcfg.session_cache = &state.server_cache();
            return std::make_unique<McTlsChannel>(std::move(mcfg));
        }
        }
        return nullptr;
    }

    // Harvest the client channel's resumption state (if its handshake got
    // far enough to mint a ticket) so the next attempt can offer an
    // abbreviated handshake. A failed handshake keeps the previous ticket.
    void capture_ticket(SecureChannel* channel)
    {
        if (!continuity() || !channel) return;
        if (auto* t = dynamic_cast<TlsChannel*>(channel)) {
            tls::TlsTicket ticket = t->session().ticket();
            if (ticket.valid()) client_tls_ticket = std::move(ticket);
        } else if (auto* m = dynamic_cast<McTlsChannel*>(channel)) {
            mctls::ResumptionTicket ticket = m->session().ticket();
            if (ticket.valid()) client_mctls_ticket = std::move(ticket);
        }
    }

    // ---- Server ----

    struct ServerConn {
        std::unique_ptr<SecureChannel> channel;
        RequestParser parser;
        net::ConnectionPtr conn;
        Impl* impl;
        bool retired = false;

        void flush() { flush_channel(channel.get(), conn); }

        void on_data(ConstBytes data)
        {
            drain_rx_spans(conn, channel.get());
            if (!channel->on_bytes(data)) {
                flush();  // the fatal alert
                if (!conn->close_queued()) conn->close();
                return;
            }
            flush();
            parser.feed(channel->take_received());
            while (true) {
                auto req = parser.next();
                if (!req.ok() || !req.value().has_value()) break;
                const std::string& path = req.value()->path;
                Response resp = make_object_response(
                    parse_object_size(path),
                    impl->cfg.tag_sessions ? fill_for(parse_fetch_id(path)) : 'x');
                for (auto& part : partition_response(impl->cfg.strategy, resp)) {
                    (void)channel->send_part(part.context_id, part.data);
                    flush();  // one transport send per part/record
                }
            }
            if (channel->closed()) {
                // close_notify exchanged: finish the TCP conversation too.
                flush();
                if (!conn->close_queued()) conn->close();
            }
        }
    };

    void start_server()
    {
        net.listen("server", kPort, [this](net::ConnectionPtr conn) {
            auto state = std::make_shared<ServerConn>();
            state->impl = this;
            state->conn = conn;
            state->channel = make_server_channel();
            track_session("server", state->channel.get(), state->channel.get());
            conn->set_nagle(cfg.nagle);
            conn->set_on_data([state](ConstBytes data) { state->on_data(data); });
            conn->set_on_close([this, state] {
                // EOF without close_notify: typed truncation at the server.
                // (After a clean close_notify exchange this is the normal
                // FIN and a no-op for the channel.) The transport is gone
                // either way: the per-connection session can retire.
                state->channel->transport_closed();
                if (!prune() || state->retired) return;
                state->retired = true;
                retire_channel("server", state->channel.get());
                release_conn(state->conn, state);
            });
            arm_channel_deadline(state, state->channel.get(), conn,
                                 [state](const std::string&) {
                                     if (!state->conn->close_queued())
                                         state->conn->close();
                                 });
            if (!prune()) {
                anchors.push_back(state);
                tracked_conns.push_back(conn);
            }
        });
    }

    // ---- Relays ----
    //
    // One Relay per connection a middlebox accepts. It owns what every mode
    // shares: the upstream leg opens on the first downstream bytes (proxies
    // need the request / ClientHello first, matching the paper's 2-RTT
    // NoEncrypt / 4-RTT TLS-family baselines) and is routed at connect time,
    // so recovery attempts skip middleboxes that died meanwhile; EOF on one
    // leg closes the other; retirement releases both legs. A mode supplies
    // only its Crossing: how bytes get across (holding upstream traffic until
    // `up_ready`) and what it folds into the stats when it retires.

    struct Relay;

    struct Crossing {
        Crossing() = default;
        Crossing(const Crossing&) = delete;
        Crossing& operator=(const Crossing&) = delete;
        virtual ~Crossing() = default;
        virtual void bytes(Relay& r, bool from_down, ConstBytes data) = 0;
        // The upstream leg connected: release what waited for it.
        virtual void up_connected(Relay& r) = 0;
        // EOF on one leg, before the relay closes the other.
        virtual void leg_closed(Relay&, bool /*from_down*/) {}
        virtual void retire(Relay&) {}
    };

    struct Relay : std::enable_shared_from_this<Relay> {
        Impl* impl = nullptr;
        size_t index = 0;
        std::unique_ptr<Crossing> crossing;
        net::ConnectionPtr down, up;
        bool up_ready = false;
        bool retired = false;

        const net::ConnectionPtr& leg(bool is_down) const { return is_down ? down : up; }

        void on_bytes(bool from_down, ConstBytes data)
        {
            if (from_down && !up) open_up();
            crossing->bytes(*this, from_down, data);
        }
        void open_up()
        {
            up = impl->net.connect(mbox_host(index), impl->alive_host_from(index + 1), kPort);
            up->set_nagle(impl->cfg.nagle);
            if (!impl->prune()) impl->tracked_conns.push_back(up);
            impl->relay_conns[index].push_back(up);
            auto self = shared_from_this();
            up->set_on_connect([self] {
                self->up_ready = true;
                self->crossing->up_connected(*self);
            });
            up->set_on_data([self](ConstBytes b) { self->on_bytes(false, b); });
            up->set_on_close([self] { self->leg_closed(false); });
        }
        void leg_closed(bool from_down)
        {
            crossing->leg_closed(*this, from_down);
            const net::ConnectionPtr& other = leg(!from_down);
            if (other && !other->close_queued()) other->close();
            if (!impl->prune() || retired) return;
            retired = true;
            crossing->retire(*this);
            impl->release_conn(down, shared_from_this());
            impl->release_conn(up, shared_from_this());
        }
    };

    // NoEncrypt and E2E-TLS: bytes cross untouched, span contexts with them.
    // Bytes that arrive before the upstream leg connects leave in one send
    // (Nagle segments it exactly as the figures expect).
    struct BlindCrossing final : Crossing {
        Bytes backlog;

        void bytes(Relay& r, bool from_down, ConstBytes data) override
        {
            if (from_down && !r.up_ready)
                append(backlog, data);
            else if (!r.leg(!from_down)->close_queued())
                r.leg(!from_down)->forward_traced(data, *r.leg(from_down));
        }
        void up_connected(Relay& r) override
        {
            if (backlog.empty() || r.up->close_queued()) return;
            r.up->send(backlog);
            backlog.clear();
        }
    };

    // SplitTLS: one TLS session per leg, plaintext relayed between them.
    // Client bytes wait in `backlog` until the upstream handshake is done.
    struct SplitCrossing final : Crossing {
        std::unique_ptr<TlsChannel> down_tls;  // server role, impersonation cert
        std::unique_ptr<TlsChannel> up_tls;    // client role toward next hop
        Bytes backlog;

        void flush(Relay& r)
        {
            flush_channel(down_tls.get(), r.down);
            if (r.up_ready) flush_channel(up_tls.get(), r.up);
        }
        void bytes(Relay& r, bool from_down, ConstBytes data) override
        {
            TlsChannel* tls = from_down ? down_tls.get() : up_tls.get();
            drain_rx_spans(r.leg(from_down), tls);
            (void)tls->on_bytes(data);
            pump(r);
        }
        void pump(Relay& r)
        {
            flush(r);
            append(backlog, down_tls->take_received());
            if (up_tls->ready() && !backlog.empty()) {
                (void)up_tls->send_part(0, backlog);
                backlog.clear();
            }
            Bytes from_server = up_tls->take_received();
            if (!from_server.empty() && down_tls->ready())
                (void)down_tls->send_part(0, from_server);
            flush(r);
        }
        void up_connected(Relay& r) override
        {
            up_tls->start();
            pump(r);
        }
        void leg_closed(Relay&, bool from_down) override
        {
            (from_down ? down_tls : up_tls)->transport_closed();
        }
        void retire(Relay& r) override
        {
            r.impl->fold_stats(mbox_host(r.index) + "-down", down_tls->session_stats());
            r.impl->fold_stats(mbox_host(r.index) + "-up", up_tls->session_stats());
        }
    };

    // mcTLS: a MiddleboxSession reads or rewrites the contexts it holds keys
    // for. Units toward the server wait, with their span contexts, until the
    // upstream leg connects. An armed corrupt_record fault flips a byte of
    // the next application record forwarded in either direction.
    struct McTlsCrossing final : Crossing {
        std::unique_ptr<mctls::MiddleboxSession> session;
        std::vector<std::pair<Bytes, obs::SpanContext>> backlog;

        void bytes(Relay& r, bool from_down, ConstBytes data) override
        {
            for (const auto& ctx : r.leg(from_down)->take_rx_spans())
                session->queue_rx_span(from_down, ctx);
            (void)(from_down ? session->feed_from_client(data) : session->feed_from_server(data));
            pump(r);
        }
        void pump(Relay& r)
        {
            for (bool to_down : {true, false}) {
                std::vector<Bytes> units =
                    to_down ? session->take_to_client() : session->take_to_server();
                std::vector<obs::SpanContext> ctxs =
                    to_down ? session->take_to_client_spans() : session->take_to_server_spans();
                for (size_t i = 0; i < units.size(); ++i) {
                    r.impl->maybe_corrupt(r.index, units[i]);
                    if (to_down || r.up_ready)
                        send_unit(r.leg(to_down), units[i], span_at(ctxs, i));
                    else
                        backlog.emplace_back(std::move(units[i]), span_at(ctxs, i));
                }
            }
        }
        void up_connected(Relay& r) override
        {
            for (const auto& [unit, ctx] : backlog) send_unit(r.up, unit, ctx);
            backlog.clear();
        }
        // The session originates a fatal middlebox_failure alert toward the
        // survivor unless close_notify already flowed; flush it.
        void leg_closed(Relay& r, bool from_down) override
        {
            session->transport_closed(/*from_client_side=*/from_down);
            pump(r);
        }
        void retire(Relay& r) override
        {
            r.impl->fold_stats(mbox_host(r.index), session->session_stats());
        }
    };

    std::unique_ptr<Crossing> make_crossing(size_t index)
    {
        std::string host = mbox_host(index);
        obs::FlightRing* ring = index < mbox_rings.size() ? mbox_rings[index] : nullptr;
        switch (effective_mode()) {
        case Mode::no_encrypt:
        case Mode::e2e_tls:
            return std::make_unique<BlindCrossing>();
        case Mode::split_tls: {
            auto split = std::make_unique<SplitCrossing>();
            auto down_cfg = session_config<tls::SessionConfig>(host + "-down", ring);
            down_cfg.role = tls::Role::server;
            down_cfg.chain = {impersonation_ids[index].certificate};
            down_cfg.private_key = impersonation_ids[index].private_key;
            split->down_tls = std::make_unique<TlsChannel>(std::move(down_cfg));
            auto up_cfg = session_config<tls::SessionConfig>(host + "-up", ring);
            up_cfg.role = tls::Role::client;
            up_cfg.server_name = "server.example.com";
            up_cfg.trust = &store;
            split->up_tls = std::make_unique<TlsChannel>(std::move(up_cfg));
            track_session(host + "-down", split->down_tls.get());
            track_session(host + "-up", split->up_tls.get());
            return split;
        }
        case Mode::mctls: {
            auto mcfg = session_config<mctls::MiddleboxConfig>(host, ring);
            mcfg.name = mbox_ids[index].certificate.subject;
            mcfg.chain = {mbox_ids[index].certificate};
            mcfg.private_key = mbox_ids[index].private_key;
            mcfg.trust = &store;
            if (continuity()) mcfg.session_cache = &state.middlebox_cache(index);
            if (customize_middlebox) customize_middlebox(index, mcfg);
            auto mc = std::make_unique<McTlsCrossing>();
            mc->session = std::make_unique<mctls::MiddleboxSession>(std::move(mcfg));
            track_session(host, mc->session.get());
            return mc;
        }
        }
        return nullptr;
    }

    void start_relay(size_t index)
    {
        net.listen(mbox_host(index), kPort, [this, index](net::ConnectionPtr down) {
            if (mbox_dead[index]) {
                down->abort();  // a dead process accepts nothing
                return;
            }
            down->set_nagle(cfg.nagle);
            if (prune()) compact_relay_conns(index);
            relay_conns[index].push_back(down);
            auto relay = std::make_shared<Relay>();
            relay->impl = this;
            relay->index = index;
            relay->down = down;
            relay->crossing = make_crossing(index);
            down->set_on_data([relay](ConstBytes d) { relay->on_bytes(true, d); });
            down->set_on_close([relay] { relay->leg_closed(true); });
            if (!prune()) anchors.push_back(relay);
        });
    }

    // ---- Client ----

    struct ClientConn : std::enable_shared_from_this<ClientConn> {
        Impl* impl;
        net::ConnectionPtr conn;
        obs::FlightRing* ring = nullptr;  // this fetch's black box
        std::unique_ptr<SecureChannel> channel;
        ResponseParser parser;
        std::deque<size_t> pending;
        FetchPtr result;
        std::function<void()> on_done;
        bool request_outstanding = false;
        bool attempt_done = false;  // this attempt finished (either way)

        void flush() { flush_channel(channel.get(), conn); }

        void transport_lost()
        {
            if (attempt_done) return;
            channel->transport_closed();
            attempt_failed(channel->failed() ? channel->error()
                                             : "testbed: transport closed");
        }

        // This attempt is over; hand control to the Impl-level retry logic.
        void attempt_failed(std::string reason)
        {
            if (attempt_done) return;
            attempt_done = true;
            if (!impl->prune()) {
                // Clear on_connect too: a dead middlebox's FIN can outrun
                // its SYN-ACK, and a late establish must not start() a dead
                // channel. In prune mode these callbacks are the attempt's
                // only owners, so clearing happens via release_conn one tick
                // later instead; the attempt_done guards cover the gap.
                conn->set_on_connect({});
                conn->set_on_data({});
                conn->set_on_close({});
            }
            if (!conn->close_queued()) conn->abort();
            impl->capture_ticket(channel.get());
            if (impl->prune()) {
                impl->retire_channel("client", channel.get());
                impl->release_conn(conn, shared_from_this());
            }
            std::vector<size_t> remaining(pending.begin(), pending.end());
            impl->attempt_failed(std::move(remaining), result, on_done,
                                 std::move(reason));
        }

        void maybe_send_request()
        {
            if (request_outstanding || pending.empty() || !channel->ready()) return;
            if (result->handshake_done == 0) {
                result->handshake_done = impl->loop->now();
                result->handshake_wire_bytes = channel->handshake_wire_bytes();
            }
            std::string size_str = std::to_string(pending.front());
            Request req = make_request(
                impl->cfg.tag_sessions
                    ? "/f" + std::to_string(result->id) + "/obj/" + size_str
                    : "/obj/" + size_str);
            for (auto& part : partition_request(impl->cfg.strategy, req)) {
                (void)channel->send_part(part.context_id, part.data);
                flush();
            }
            request_outstanding = true;
        }

        void on_data(ConstBytes data)
        {
            if (attempt_done) return;
            drain_rx_spans(conn, channel.get());
            if (!channel->on_bytes(data)) {
                flush();  // our fatal alert, if the transport still stands
                attempt_failed(channel->error());
                return;
            }
            flush();
            maybe_send_request();
            Bytes received = channel->take_received();
            if (!received.empty()) {
                if (result->first_byte == 0) result->first_byte = impl->loop->now();
                result->app_bytes_received += received.size();
                parser.feed(received);
            }
            while (true) {
                auto resp = parser.next();
                if (!resp.ok()) {
                    attempt_failed("testbed: " + resp.error().message);
                    return;
                }
                if (!resp.value().has_value()) break;
                if (impl->cfg.tag_sessions) {
                    // Organic isolation check: every body byte must carry
                    // this fetch's fill. Anything else is another session's
                    // plaintext (or corruption) delivered to this client.
                    char want = fill_for(result->id);
                    for (char c : resp.value()->body)
                        if (c != want) ++result->body_mismatch_bytes;
                }
                result->object_done.push_back(impl->loop->now());
                pending.pop_front();
                request_outstanding = false;
                if (pending.empty()) {
                    finish();
                    return;
                }
                maybe_send_request();
            }
        }

        void finish()
        {
            if (result->completed) return;
            attempt_done = true;
            result->completed = true;
            result->done = impl->loop->now();
            result->resumed = channel->resumed();
            result->app_overhead_bytes = channel->app_overhead_bytes();
            result->wire_bytes_client_link = conn->wire_bytes_sent();
            impl->capture_ticket(channel.get());
            obs::trace_at(impl->tracer, ring, impl->loop->now(), impl->actor_testbed,
                          obs::EventType::fetch_complete, 0,
                          result->app_bytes_received, result->attempts);
            if (impl->flight) impl->flight->close(ring);
            ++impl->completed_count;
            impl->live_clients.erase(result->id);
            if (impl->prune()) {
                channel->close();  // polite close_notify toward the server
                flush();
                if (!conn->close_queued()) conn->close();
                impl->retire_channel("client", channel.get());
                impl->release_conn(conn, shared_from_this());
            }
            impl->fetch_finished();
            if (on_done) on_done();
        }
    };

    // Epoch-age deadline fired (or a chaos campaign asked for a rekey
    // storm): bump every live client session's key epoch in place via the
    // three-phase in-band rekey. Only meaningful for established
    // contributory-mode mcTLS channels; anything else skips this deadline
    // (the next one fires regardless). Returns how many rekeys started.
    size_t rekey_live_sessions()
    {
        if (cfg.mode != Mode::mctls || cfg.client_key_distribution) return 0;
        size_t n = 0;
        for (auto it = live_clients.begin(); it != live_clients.end();) {
            auto client = it->second.lock();
            if (!client || client->attempt_done) {
                it = live_clients.erase(it);
                continue;
            }
            auto* m = dynamic_cast<McTlsChannel*>(client->channel.get());
            if (m && m->ready() && m->session().initiate_rekey()) {
                client->flush();
                ++n;
            }
            ++it;
        }
        return n;
    }

    FetchPtr fetch_sequence(std::vector<size_t> sizes, std::function<void()> on_done)
    {
        auto result = std::make_shared<Fetch>();
        result->id = ++next_fetch_id;
        result->start = loop->now();
        ++outstanding_fetches;
        schedule_maintenance();
        start_attempt(std::move(sizes), result, std::move(on_done));
        return result;
    }

    void start_attempt(std::vector<size_t> sizes, FetchPtr result,
                       std::function<void()> on_done)
    {
        ++result->attempts;
        obs::FlightRing* ring = client_ring(result->id);
        obs::trace_at(tracer, ring, loop->now(), actor_testbed,
                      obs::EventType::attempt_start, 0, result->attempts, sizes.size());
        if (fallback_engaged && cfg.mode == Mode::mctls) result->fell_back_to_tls = true;
        auto state = std::make_shared<ClientConn>();
        state->impl = this;
        state->result = std::move(result);
        state->on_done = std::move(on_done);
        state->pending.assign(sizes.begin(), sizes.end());
        state->ring = ring;
        state->channel = make_client_channel(ring);
        track_session("client", state->channel.get(), state->channel.get());
        state->conn = net.connect("client", alive_host_from(0), kPort);
        state->conn->set_nagle(cfg.nagle);
        state->conn->set_on_connect([state] {
            if (state->attempt_done) return;
            state->channel->start();
            state->flush();
            state->maybe_send_request();  // NoEncrypt is ready immediately
        });
        state->conn->set_on_data([state](ConstBytes d) { state->on_data(d); });
        state->conn->set_on_close([state] { state->transport_lost(); });
        arm_channel_deadline(state, state->channel.get(), state->conn,
                             [state](const std::string& reason) {
                                 state->attempt_failed(reason);
                             });
        live_clients[state->result->id] = state;
        if (!prune()) {
            anchors.push_back(state);
            tracked_conns.push_back(state->conn);
        }
    }

    // A client attempt failed: retry with backoff under the configured
    // recovery policy, or surface the typed failure.
    void attempt_failed(std::vector<size_t> remaining, FetchPtr result,
                        std::function<void()> on_done, std::string reason)
    {
        result->error = std::move(reason);
        obs::FlightRing* ring = flight ? client_ring(result->id) : nullptr;
        obs::trace_at(tracer, ring, loop->now(), actor_testbed,
                      obs::EventType::attempt_failed, 0, result->attempts);
        bool can_retry = cfg.recovery != RecoveryPolicy::abort &&
                         result->attempts < cfg.retry.max_attempts &&
                         !remaining.empty();
        if (!can_retry) {
            result->failed = true;
            result->done = loop->now();
            if (flight) flight->close(ring);
            ++failed_count;
            live_clients.erase(result->id);
            fetch_finished();
            if (on_done) on_done();
            return;
        }
        if (cfg.recovery == RecoveryPolicy::tls_fallback && !fallback_engaged) {
            fallback_engaged = true;
            obs::trace_at(tracer, loop->now(), actor_testbed,
                          obs::EventType::tls_fallback, 0, result->attempts);
        }
        if (cfg.recovery == RecoveryPolicy::excise) {
            for (size_t i = 0; i < cfg.n_middleboxes; ++i) {
                if (!mbox_dead[i] || excised_traced[i]) continue;
                excised_traced[i] = 1;
                obs::trace_at(tracer, loop->now(), actor_testbed,
                              obs::EventType::mbox_excised, 0, i);
            }
        }
        net::SimTime delay = cfg.retry.backoff;
        for (size_t i = 1; i < result->attempts; ++i)
            delay = static_cast<net::SimTime>(static_cast<double>(delay) *
                                              cfg.retry.backoff_multiplier);
        if (cfg.retry.jitter > 0.0) {
            // Uniform factor in [1 - jitter, 1 + jitter], drawn from the
            // testbed DRBG so runs stay reproducible per seed.
            Bytes draw = rng.bytes(4);
            uint32_t bits = (uint32_t{draw[0]} << 24) | (uint32_t{draw[1]} << 16) |
                            (uint32_t{draw[2]} << 8) | draw[3];
            double frac = static_cast<double>(bits) / 4294967296.0;
            double factor = 1.0 - cfg.retry.jitter + 2.0 * cfg.retry.jitter * frac;
            delay = static_cast<net::SimTime>(static_cast<double>(delay) * factor);
        }
        if (cfg.retry.max_backoff != 0 && delay > cfg.retry.max_backoff)
            delay = cfg.retry.max_backoff;
        loop->schedule(delay, [this, remaining = std::move(remaining), result,
                               on_done = std::move(on_done)] {
            start_attempt(remaining, result, on_done);
        });
    }

    Testbed::OverheadTotals overhead_totals() const
    {
        Testbed::OverheadTotals totals;
        for (const Tracked& t : sessions) {
            if (!t.endpoint) continue;
            totals.overhead_bytes += t.endpoint->app_overhead_bytes();
            totals.records += t.endpoint->app_records_sent();
        }
        totals.overhead_bytes += retired_overhead.overhead_bytes;
        totals.records += retired_overhead.records;
        return totals;
    }

    uint64_t total_app_bytes() const
    {
        uint64_t total = retired_app_bytes;
        for (const auto& conn : tracked_conns)
            total += conn->app_bytes_sent();
        return total;
    }

    void publish_stats()
    {
        if (!cfg.obs) return;
        // Global per-alert-type counters ("alerts.sent.<type>") accumulate
        // across every session in the testbed; per-label variants are
        // published by Hub::publish under "<label>.alerts.sent.<type>".
        std::map<std::string, uint64_t> alerts_sent, alerts_received;
        auto publish = [&](const std::string& label, const obs::SessionStats& s) {
            for (const auto& [type, n] : s.alerts_sent_by_type) alerts_sent[type] += n;
            for (const auto& [type, n] : s.alerts_received_by_type)
                alerts_received[type] += n;
            cfg.obs->publish(label, s);
        };
        for (const Tracked& t : sessions) publish(t.label, t.stats());
        // Prune mode folds each retired session into a per-class aggregate
        // ("client", "server", "mbox0", ...) at retirement time.
        for (const auto& [cls, stats] : retired_stats) publish(cls, stats);
        auto set = [&](const std::string& name, uint64_t v) {
            cfg.obs->metrics.counter(name)->set(v);
        };
        for (const auto& [type, n] : alerts_sent) set("alerts.sent." + type, n);
        for (const auto& [type, n] : alerts_received) set("alerts.received." + type, n);
        cfg.obs->publish_trace_health();
        if (flight) {
            set("obs.flight.events", flight->events_recorded());
            set("obs.flight.dropped", flight->events_dropped());
            set("obs.flight.rings_opened", flight->rings_opened());
            set("obs.flight.rings_denied", flight->rings_denied());
            set("obs.flight.rings_recycled", flight->rings_recycled());
        }
        set("fetch.completed", completed_count);
        set("fetch.failed", failed_count);
        set("loop.events_run", loop->events_run());
        set("loop.events_scheduled", loop->events_scheduled());
        auto snap = state.snapshot();
        cfg.obs->publish_cache("cache.tls", snap.tls);
        cfg.obs->publish_cache("cache.mctls", snap.server);
        cfg.obs->publish_cache("cache.mbox", snap.middlebox);
        set("state.sweeps", snap.sweeps);
        set("state.swept_entries", snap.swept_entries);
        set("state.rekeys_signalled", snap.rekeys_signalled);
        set("state.excisions_signalled", snap.excisions_signalled);
        set("state.excisions_applied", snap.excisions_applied);
        // Degradation gauges: instantaneous live-session count plus
        // shed/decline/evict rates (per simulated second) over the window
        // since the previous publish — the overload signals an operator
        // would watch on the Prometheus hub.
        cfg.obs->metrics.gauge("sessions.live")
            ->set(static_cast<double>(outstanding_fetches));
        uint64_t shed_total = snap.tls.shed + snap.server.shed + snap.middlebox.shed;
        uint64_t decline_total =
            snap.tls.declines + snap.server.declines + snap.middlebox.declines;
        uint64_t evict_total =
            snap.tls.evictions + snap.server.evictions + snap.middlebox.evictions;
        net::SimTime now = loop->now();
        double shed_rate = 0, decline_rate = 0, evict_rate = 0;
        if (gauges_published && now > last_publish_at) {
            double secs = static_cast<double>(now - last_publish_at) / 1e6;
            shed_rate = static_cast<double>(shed_total - last_shed) / secs;
            decline_rate = static_cast<double>(decline_total - last_declines) / secs;
            evict_rate = static_cast<double>(evict_total - last_evictions) / secs;
        }
        cfg.obs->metrics.gauge("cache.shed_rate")->set(shed_rate);
        cfg.obs->metrics.gauge("cache.decline_rate")->set(decline_rate);
        cfg.obs->metrics.gauge("cache.evict_rate")->set(evict_rate);
        gauges_published = true;
        last_publish_at = now;
        last_shed = shed_total;
        last_declines = decline_total;
        last_evictions = evict_total;
        if (cfg.spans) cfg.obs->publish_spans(*cfg.spans);
    }
};

Testbed::Testbed(TestbedConfig cfg)
{
    impl_ = std::make_unique<Impl>(std::move(cfg), &loop_);
    total_conn_bytes_ = [this] { return impl_->total_app_bytes(); };
}

Testbed::~Testbed() = default;

Testbed::FetchPtr Testbed::fetch_sequence(std::vector<size_t> sizes,
                                          std::function<void()> on_done)
{
    return impl_->fetch_sequence(std::move(sizes), std::move(on_done));
}

void Testbed::set_middlebox_customizer(
    std::function<void(size_t, mctls::MiddleboxConfig&)> customize)
{
    impl_->customize_middlebox = std::move(customize);
}

Testbed::OverheadTotals Testbed::record_overhead_totals() const
{
    return impl_->overhead_totals();
}

void Testbed::publish_session_stats()
{
    impl_->publish_stats();
}

mctls::StatePlane& Testbed::state_plane()
{
    return impl_->state;
}

net::SimNet& Testbed::sim_net()
{
    return impl_->net;
}

void Testbed::inject_fault(const FaultEvent& fault)
{
    impl_->apply_fault(fault);
}

size_t Testbed::rekey_live_sessions()
{
    return impl_->rekey_live_sessions();
}

size_t Testbed::live_fetches() const
{
    return impl_->outstanding_fetches;
}

uint64_t Testbed::completed_fetches() const
{
    return impl_->completed_count;
}

uint64_t Testbed::failed_fetches() const
{
    return impl_->failed_count;
}

}  // namespace mct::http
