// Typed event tracing for protocol sessions and the simulated network.
//
// A TraceEvent is a fixed-size POD: a global sequence number (total causal
// order — assigned at emit time, so "A emitted before B" always holds even
// when both carry the same virtual timestamp or no clock is attached), a
// monotonic timestamp (the sim loop's clock when one is wired, 0 otherwise),
// an interned actor id, a typed event code, three small payload fields
// whose meaning depends on the type (context id, byte counts, etc.) and the
// span trace id of a record event. The same POD fills the flight rings
// (obs/flight.h), where the ring itself is the actor and `span` ties a
// record event to its latency tree.
//
// Emission is allocation-free: the event is stamped on the stack and handed
// to each sink. RingBufferSink writes into a preallocated array (the default
// always-on sink); JsonlFileSink serializes per event and is meant for
// capture runs, not hot paths.
//
// Protocol sessions emit through obs::SessionProbe (obs/probe.h); the
// simulated network calls the null-checked trace_at() helper below (same
// idiom as crypto::count_*). When the tree is configured with -DMCT_OBS=OFF
// both compile to nothing, so instrumented code carries zero overhead.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mct::obs {

enum class EventType : uint8_t {
    // Handshake phases (a = wire bytes of the flight where meaningful).
    hs_start,             // ClientHello sent / awaited
    hs_client_hello,      // ClientHello processed by a server/middlebox
    hs_server_flight,     // ServerHello..Done flight sent or consumed
    hs_mbox_hello,        // middlebox hello/key-exchange bundle handled
    hs_key_distribution,  // context key material derived/installed (a = contexts)
    hs_finished_sent,
    hs_finished_verified,
    hs_complete,  // session established (a = handshake wire bytes)
    hs_failed,    // handshake or session failure

    // Session continuity (resumption / rekeying / excision).
    hs_resume_offer,   // abbreviated handshake offered (a = session id bytes)
    hs_resume_accept,  // offer accepted: abbreviated flow runs
    hs_resume_reject,  // cache miss: full handshake fallback
    rekey_init,        // epoch bump initiated (a = new epoch)
    rekey_complete,    // both directions switched (a = epoch)
    mbox_rejoin,       // middlebox rejoined from cached session state
    mbox_excised,      // middlebox spliced out of the session (a = entity)

    // Record layer (ctx = encryption context id, a = payload bytes,
    // b = MACs generated/verified for this record).
    record_seal,
    record_open,
    mac_verify_fail,

    // Middlebox per-record access decisions (ctx, a = payload bytes).
    mbox_forward_blind,
    mbox_read,
    mbox_write_pass,
    mbox_rewrite,

    // Alerts (a = alert code).
    alert_sent,
    alert_received,
    session_close,

    // Simulated network (ts is always the loop clock; a/b vary).
    net_link_down,
    net_link_up,
    net_conn_established,
    net_conn_abort,
    net_conn_closed,
    net_rto_giveup,
    net_syn_retry,

    // Testbed / fault-injection harness.
    fault_injected,  // a = fault kind ordinal, b = injection time (µs)
    attempt_start,   // a = attempt number
    attempt_failed,  // a = attempt number
    fetch_complete,  // a = body bytes
    tls_fallback,

    // State plane (appended: JSONL consumers key on these names, and the
    // ordinals above must stay stable). ctx = cache id (testbed: 0 = TLS
    // session cache, 1 = mcTLS server cache, 2+n = middlebox n's cache).
    cache_expired,   // stale entry purged at lookup or by sweep (a = bytes)
    cache_evicted,   // LRU entry dropped to make room (a = bytes freed)
    cache_declined,  // insert refused under the decline policy (a = bytes)
    cache_shed,      // batch of coldest entries dropped (a = bytes freed)
    state_sweep,     // background expiry sweep ran (a = entries reclaimed)
    state_rekey_due, // epoch rekey deadline fired (a = deadline ordinal)
    state_excise_due,// dead middlebox passed its grace (a = relay index)
};

const char* to_string(EventType t);

struct TraceEvent {
    uint64_t seq = 0;   // global emission order
    uint64_t ts = 0;    // monotonic sim time (µs); 0 when no clock attached
    uint16_t actor = 0; // interned actor name
    EventType type = EventType::hs_start;
    uint16_t ctx = 0;   // encryption context id where applicable
    uint64_t a = 0;     // type-dependent payload
    uint64_t b = 0;
    uint64_t span = 0;  // span trace id for record events; 0 = none
};

class Tracer;

class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void on_event(const TraceEvent& e, const Tracer& tracer) = 0;
    virtual void flush() {}
    // Events this sink could not retain (e.g. ring-buffer overwrites).
    // Surfaced through Tracer::events_dropped() into SessionStats so a
    // truncated trace is visible instead of silently missing its prefix.
    virtual uint64_t dropped() const { return 0; }
};

// Fixed-capacity ring: keeps the most recent `capacity` events with no
// allocation after construction.
class RingBufferSink : public TraceSink {
public:
    explicit RingBufferSink(size_t capacity = 4096) : capacity_(capacity)
    {
        buffer_.resize(capacity_);
    }

    void on_event(const TraceEvent& e, const Tracer&) override
    {
        buffer_[next_ % capacity_] = e;
        next_++;
    }

    uint64_t total_seen() const { return next_; }
    uint64_t dropped() const override { return next_ > capacity_ ? next_ - capacity_ : 0; }

    // Events in emission order (oldest retained first).
    std::vector<TraceEvent> ordered() const;

private:
    size_t capacity_;
    std::vector<TraceEvent> buffer_;
    uint64_t next_ = 0;
};

// One JSON object per line:
// {"seq":..,"ts":..,"actor":"client","type":"record_seal","ctx":1,"a":512,"b":3}
class JsonlFileSink : public TraceSink {
public:
    explicit JsonlFileSink(const std::string& path) : out_(path, std::ios::trunc) {}

    bool ok() const { return out_.good(); }
    void on_event(const TraceEvent& e, const Tracer& tracer) override;
    void flush() override { out_.flush(); }

private:
    std::ofstream out_;
};

// Serialize one event as a single-line JSON object (no trailing newline).
void event_to_json(const TraceEvent& e, const Tracer& tracer, std::string* out);

class Tracer {
public:
    // Intern an actor name; returns a stable id (0 is reserved for "?").
    uint16_t intern(std::string_view name);
    const std::string& actor_name(uint16_t id) const;

    // Sinks are borrowed, not owned; callers keep them alive.
    void add_sink(TraceSink* sink) { sinks_.push_back(sink); }

    // Optional monotonic clock consulted by emit(); the sim wires the event
    // loop's now() here. Never a wall clock.
    void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }

    void emit(uint16_t actor, EventType type, uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0,
              uint64_t span = 0)
    {
        emit_at(clock_ ? clock_() : 0, actor, type, ctx, a, b, span);
    }

    // Explicit-timestamp variant for callers that already hold the loop time.
    void emit_at(uint64_t ts, uint16_t actor, EventType type, uint16_t ctx = 0, uint64_t a = 0,
                 uint64_t b = 0, uint64_t span = 0)
    {
        TraceEvent e{next_seq_++, ts, actor, type, ctx, a, b, span};
        for (auto* s : sinks_) s->on_event(e, *this);
    }

    void flush()
    {
        for (auto* s : sinks_) s->flush();
    }

    uint64_t events_emitted() const { return next_seq_; }

    // Sum of events dropped across attached sinks (a full ring buffer keeps
    // only the newest events; this counts the overwritten ones).
    uint64_t events_dropped() const
    {
        uint64_t total = 0;
        for (auto* s : sinks_) total += s->dropped();
        return total;
    }

private:
    std::vector<TraceSink*> sinks_;
    std::vector<std::string> actors_{"?"};
    std::function<uint64_t()> clock_;
    uint64_t next_seq_ = 0;
};

// Null-checked emission helper for instrumented drivers (the simulated
// network). Compiled out entirely when the tree is configured with
// -DMCT_OBS=OFF.
#if defined(MCT_OBS_ENABLED)
inline void trace_at(Tracer* t, uint64_t ts, uint16_t actor, EventType type, uint16_t ctx = 0,
                     uint64_t a = 0, uint64_t b = 0)
{
    if (t) t->emit_at(ts, actor, type, ctx, a, b);
}
#else
inline void trace_at(Tracer*, uint64_t, uint16_t, EventType, uint16_t = 0, uint64_t = 0,
                     uint64_t = 0)
{
}
#endif

}  // namespace mct::obs
