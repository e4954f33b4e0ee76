#include "obs/probe.h"

#include <utility>

namespace mct::obs {

SessionProbe::SessionProbe(Tracer* tracer, FlightRing* flight, SpanCollector* spans,
                           std::string actor)
    : tracer_(tracer), flight_(flight), spans_(spans), actor_(std::move(actor))
{
    if (tracer_) trace_actor_ = tracer_->intern(actor_);
    if (spans_) span_actor_ = spans_->intern(actor_);
}

SpanContext SessionProbe::record_root(uint64_t now, uint16_t ctx, uint64_t bytes)
{
    SpanContext rec = spans_->begin_trace();
    SpanRecord root;
    root.trace_id = rec.trace_id;
    root.span_id = rec.span_id;
    root.start_ts = now;
    root.end_ts = now;
    root.actor = span_actor_;
    root.ctx = ctx;
    root.a = bytes;
    root.stage = Stage::record;
    spans_->emit(root);
    return rec;
}

uint64_t SessionProbe::span(uint64_t now, SpanContext parent, Stage stage, uint16_t ctx,
                            uint64_t cpu_ns, uint64_t a)
{
    SpanRecord r;
    r.trace_id = parent.trace_id;
    r.span_id = spans_->next_span_id();
    r.parent_id = parent.span_id;
    r.start_ts = now;
    r.end_ts = now;
    r.cpu_ns = cpu_ns;
    r.actor = span_actor_;
    r.ctx = ctx;
    r.a = a;
    r.stage = stage;
    spans_->emit(r);
    return r.span_id;
}

void SessionProbe::alert_sent(uint8_t code, const char* name)
{
    ++count.alerts_sent;
    ++count.alerts_sent_by_type[name];
    emit(EventType::alert_sent, 0, code);
}

void SessionProbe::alert_received(uint8_t code, const char* name)
{
    ++count.alerts_received;
    ++count.alerts_received_by_type[name];
    emit(EventType::alert_received, 0, code);
}

SessionStats SessionProbe::stats() const
{
    SessionStats s;
    s.actor = actor_;
    s.app_records_sent = count.records_sent;
    s.app_records_received = count.records_received;
    s.macs_generated = count.macs_generated;
    s.macs_verified = count.macs_verified;
    s.mac_failures = count.mac_failures;
    s.alerts_sent = count.alerts_sent;
    s.alerts_received = count.alerts_received;
    s.alerts_sent_by_type = count.alerts_sent_by_type;
    s.alerts_received_by_type = count.alerts_received_by_type;
    if (tracer_) s.trace_events_dropped = tracer_->events_dropped();
    return s;
}

}  // namespace mct::obs
