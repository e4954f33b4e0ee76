// One session's observability handle, shared by every protocol role
// (tls::Session, mctls::Session, mctls::MiddleboxSession).
//
// A SessionProbe is built once per session from the config's borrowed
// tracer, flight ring and span collector plus the session's actor name. It
// interns the actor in each sink, routes every protocol event through one
// emit() (tracer and black box in one call), builds the record-root, child
// and hop spans of the latency-attribution plane, and keeps the counters
// every role reports. Sessions never thread the three sink pointers by hand:
// with -DMCT_OBS=OFF, emit() and spans_on() compile out here, so every
// emission site in protocol code goes with them, while the counters (plain
// integers) keep working.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "obs/obs.h"

namespace mct::obs {

class SessionProbe {
public:
    SessionProbe(Tracer* tracer, FlightRing* flight, SpanCollector* spans, std::string actor);

    const std::string& actor() const { return actor_; }

    // One protocol event to the tracer and the flight ring. `span` (the
    // record's trace id, 0 = none) is how an incident bundle ties a record
    // event to its latency tree.
    void emit(EventType type, uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0,
              uint64_t span = 0)
    {
        trace(tracer_, flight_, trace_actor_, type, ctx, a, b, span);
    }

    // --- Latency spans (obs/span.h). Crypto runs in zero sim time, so every
    // span a session emits is an instant at one `now` read once per record.
    bool spans_on() const { return span_on(spans_); }
    uint64_t span_now() const { return spans_->now(); }
    // Root span of a freshly sealed record; starts the record's trace.
    SpanContext record_root(uint64_t now, uint16_t ctx, uint64_t bytes);
    // Instant span parented under `parent` (a record root, or the incoming
    // hop context of a received record). Returns its span id so a forwarded
    // unit can chain the next hop.
    uint64_t span(uint64_t now, SpanContext parent, Stage stage, uint16_t ctx, uint64_t cpu_ns,
                  uint64_t a);
    // Hop span at the current instant, parented under the record's incoming
    // context `in` (a middlebox's forward / decrypt_verify / reseal).
    uint64_t hop(SpanContext in, Stage stage, uint16_t ctx, uint64_t cpu_ns, uint64_t a)
    {
        return span(span_now(), in, stage, ctx, cpu_ns, a);
    }
    // A receiving endpoint's spans for one opened record, both under the
    // incoming hop context: decrypt_verify (crypto cost, a = MACs checked)
    // and deliver (a = plaintext bytes).
    void deliver_spans(SpanContext in, uint16_t ctx, uint64_t cpu_ns, uint64_t macs,
                       uint64_t bytes)
    {
        uint64_t now = span_now();
        span(now, in, Stage::decrypt_verify, ctx, cpu_ns, macs);
        span(now, in, Stage::deliver, ctx, 0, bytes);
    }
    // Steady-clock nanoseconds since `t0`, for the cpu_ns of crypto stages.
    static uint64_t cpu_since(std::chrono::steady_clock::time_point t0)
    {
        return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                         std::chrono::steady_clock::now() - t0)
                                         .count());
    }

    // --- Counters every role reports (always on). ---
    struct Counters {
        uint64_t records_sent = 0;
        uint64_t records_received = 0;
        uint64_t macs_generated = 0;
        uint64_t macs_verified = 0;
        uint64_t mac_failures = 0;
        uint64_t alerts_sent = 0;
        uint64_t alerts_received = 0;
        // Keyed by the alert description's name; alerts are rare and
        // terminal, so the map insert stays off the record fast path.
        std::map<std::string, uint64_t> alerts_sent_by_type;
        std::map<std::string, uint64_t> alerts_received_by_type;
    };
    Counters count;

    // A record sealed (record_seal) or accepted (record_open, or a middlebox
    // access decision): counts it with the MACs it generated or verified.
    void sealed(uint16_t ctx, uint64_t bytes, uint64_t macs, uint64_t span)
    {
        ++count.records_sent;
        count.macs_generated += macs;
        emit(EventType::record_seal, ctx, bytes, macs, span);
    }
    // A middlebox rewrite also regenerates MACs (`macs_regenerated`); its
    // event then reports those instead of the verified ones.
    void opened(EventType type, uint16_t ctx, uint64_t bytes, uint64_t macs, uint64_t span = 0,
                uint64_t macs_regenerated = 0)
    {
        ++count.records_received;
        count.macs_verified += macs;
        count.macs_generated += macs_regenerated;
        emit(type, ctx, bytes, macs_regenerated ? macs_regenerated : macs, span);
    }
    void mac_failure(uint16_t ctx, uint64_t bytes)
    {
        ++count.mac_failures;
        emit(EventType::mac_verify_fail, ctx, bytes);
    }
    // Alerts travel on the control context; `name` keys the by-type maps.
    void alert_sent(uint8_t code, const char* name);
    void alert_received(uint8_t code, const char* name);

    // The SessionStats fields every role shares: actor, record and MAC
    // counts, alerts by type, and the tracer's dropped events.
    SessionStats stats() const;

private:
    Tracer* tracer_;
    FlightRing* flight_;
    SpanCollector* spans_;
    std::string actor_;
    uint16_t trace_actor_ = 0;
    uint16_t span_actor_ = 0;
};

// Probe over a session config's `tracer`, `flight`, `spans` and
// `trace_actor` fields, which every role's config carries under these names.
template <class Config>
SessionProbe make_probe(const Config& cfg, std::string default_actor)
{
    return SessionProbe(cfg.tracer, cfg.flight, cfg.spans,
                        cfg.trace_actor.empty() ? std::move(default_actor) : cfg.trace_actor);
}

}  // namespace mct::obs
