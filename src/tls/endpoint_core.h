// The endpoint machine shared by the baseline TLS session (tls::Session)
// and the mcTLS endpoint (mctls::Session): lifecycle phase, typed failure,
// the alert protocol, graceful shutdown, the handshake deadline, truncation
// detection, the record dispatch loop, handshake-flight framing and the
// write-unit queue (DESIGN.md §7 "Failure model").
//
// Each protocol keeps only its own handshake steps, key schedule and record
// protection. It derives from Endpoint<Self> (CRTP), which binds the
// dispatch loop to three protocol handlers at compile time — no virtual
// call on the record path:
//   Status open_app_record(const RecordView&, obs::SpanContext in);
//       application data while established; `in` is the record's incoming
//       transport span context, already popped from the rx FIFO
//   Status handle_handshake(const HandshakeMessage&);
//   Status handle_rekey(const RecordView&);
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/ops.h"
#include "obs/probe.h"
#include "tls/alert.h"
#include "tls/messages.h"
#include "tls/record.h"
#include "util/rng.h"

namespace mct::tls {

// One transport connection's write units — byte blobs the transport sends
// with one send() call each — with their index-aligned span contexts, plus
// the FIFO of span contexts for traced units arriving on the connection.
// Pushes and pops ride the same in-order stream, and only traced record
// units carry contexts, so the queues never skew.
class UnitQueue {
public:
    explicit UnitQueue(bool traced) : traced_(traced) {}

    // Queue one unit; a valid `ctx` tags it (untraced units pad as invalid).
    void push(Bytes unit, obs::SpanContext ctx = {})
    {
        if (ctx.valid()) {
            spans_.resize(units_.size());
            spans_.push_back(ctx);
        }
        units_.push_back(std::move(unit));
    }
    // The unit to coalesce into: the last one, or a fresh one if none.
    Bytes& tail()
    {
        if (units_.empty()) units_.emplace_back();
        return units_.back();
    }
    // Tag the last queued unit with `ctx`.
    void tag_last(obs::SpanContext ctx)
    {
        if (units_.empty()) return;
        spans_.resize(units_.size() - 1);
        spans_.push_back(ctx);
    }

    std::vector<Bytes> take()
    {
        if (traced_) {
            spans_.resize(units_.size());  // pad trailing untraced units
            taken_spans_ = std::move(spans_);
            spans_.clear();
        }
        return std::exchange(units_, {});
    }
    // Contexts aligned with the units of the most recent take().
    std::vector<obs::SpanContext> take_spans() { return std::exchange(taken_spans_, {}); }

    void queue_rx(obs::SpanContext ctx)
    {
        if (traced_ && ctx.valid()) rx_.push_back(ctx);
    }
    // Next incoming context; invalid when untraced.
    obs::SpanContext pop_rx()
    {
        if (rx_.empty()) return {};
        obs::SpanContext ctx = rx_.front();
        rx_.pop_front();
        return ctx;
    }

private:
    bool traced_;
    std::vector<Bytes> units_;
    std::vector<obs::SpanContext> spans_;
    std::vector<obs::SpanContext> taken_spans_;
    std::deque<obs::SpanContext> rx_;
};

// Alert bookkeeping for every role, middleboxes included: at most one fatal
// alert leaves a session, close_notify at most once, and each alert sent or
// received is counted by type and traced through the session's probe.
class AlertLedger {
public:
    // True when `alert` may go on the wire; if so it is recorded as sent.
    bool admit(const Alert& alert, obs::SessionProbe& probe);
    void received(const Alert& alert, obs::SessionProbe& probe);

    const std::optional<Alert>& sent() const { return sent_; }
    const std::optional<Alert>& peer() const { return peer_; }

private:
    std::optional<Alert> sent_;
    std::optional<Alert> peer_;
    bool close_notify_sent_ = false;
};

class EndpointCore {
public:
    // Wire blobs to transmit, one transport send() each.
    std::vector<Bytes> take_write_units() { return out_.take(); }
    // Span contexts aligned index-for-index with the units returned by the
    // most recent take_write_units() (invalid context = untraced unit, e.g.
    // a handshake flight). Call immediately after take_write_units(); the
    // driver attaches each valid context to its unit's transport send.
    std::vector<obs::SpanContext> take_unit_spans() { return out_.take_spans(); }
    // FIFO of incoming transport span contexts: the driver pushes one per
    // traced unit delivered by the transport BEFORE feeding the bytes; each
    // application record pops one.
    void queue_rx_span(obs::SpanContext ctx) { out_.queue_rx(ctx); }

    bool handshake_complete() const { return phase_ == Phase::established; }
    bool failed() const { return phase_ == Phase::failed; }
    const std::string& error() const { return error_; }

    // --- Failure semantics (see DESIGN.md "Failure model") ---

    // Drive time-based state. Arms the handshake deadline on the first call;
    // once `now` passes it with the handshake still incomplete, the session
    // fails with a fatal handshake_timeout alert instead of stalling.
    Status tick(uint64_t now);
    // Graceful shutdown: send close_notify (once). An established session
    // keeps receiving until the peer's close_notify arrives; sending is
    // rejected.
    void close();
    // The transport reported EOF. Without a prior close_notify from the peer
    // this flags the stream as truncated (truncation-attack detection).
    void transport_closed();

    bool closed() const { return phase_ == Phase::closed; }
    bool close_sent() const { return close_sent_; }
    bool truncated() const { return truncated_; }
    // Typed reason the session stopped (origin none while healthy).
    const SessionError& failure() const { return failure_; }
    // Last alert we emitted / the peer's alert, if any.
    const std::optional<Alert>& alert_sent() const { return alerts_.sent(); }
    const std::optional<Alert>& peer_alert() const { return alerts_.peer(); }

    // Wire bytes of handshake and ChangeCipherSpec records in both
    // directions (Figure 8). Alerts and rekey records are not counted.
    uint64_t handshake_wire_bytes() const { return handshake_wire_bytes_; }
    // Record-protection overhead of the application phase (§5.2).
    uint64_t app_overhead_bytes() const { return app_overhead_bytes_; }
    uint64_t app_records_sent() const { return probe_.count.records_sent; }

protected:
    enum class Phase { handshaking, established, closed, failed };

    // `name` prefixes every error message ("tls", "mctls").
    template <class Config>
    EndpointCore(const char* name, bool with_context_id, const Config& cfg,
                 std::string default_actor)
        : name_(name),
          handshake_timeout_(cfg.handshake_timeout),
          rng_(cfg.rng),
          ops_(cfg.ops),
          probe_(obs::make_probe(cfg, std::move(default_actor))),
          codec_(with_context_id),
          out_(probe_.spans_on())
    {
    }

    Status fail(std::string message);  // handshake_failure
    Status fail(AlertDescription description, std::string message);
    Status fail_with(SessionError::Origin origin, AlertDescription description,
                     std::string message, bool emit_alert);
    void send_alert(const Alert& alert);

    // Fragment a handshake flight into control records appended to `unit`.
    void encode_flight(ConstBytes flight, Bytes& unit);
    // Append ChangeCipherSpec plus `finished` sealed under send_protector_.
    void encode_ccs_finished(ConstBytes finished, Bytes& unit);

    // Common SessionStats fields; the protocol adds its own.
    obs::SessionStats core_stats() const;

    // Record dispatch steps shared by every protocol (see Endpoint).
    Status receive_alert(ConstBytes payload);
    Status receive_ccs(const RecordView& view);
    // Counts the record and feeds its (decrypted, once CCS arrived) payload
    // into handshake_reader_.
    Status receive_handshake(const RecordView& view);
    std::string prefixed(std::string_view message) const;

    const char* name_;
    Phase phase_ = Phase::handshaking;
    std::string error_;
    SessionError failure_;
    AlertLedger alerts_;
    bool close_sent_ = false;
    bool peer_close_received_ = false;
    bool truncated_ = false;
    uint64_t handshake_timeout_;
    uint64_t handshake_deadline_ = 0;  // 0 = not armed

    Rng* rng_;
    crypto::OpCounters* ops_;
    obs::SessionProbe probe_;

    RecordCodec codec_;
    HandshakeReader handshake_reader_;
    UnitQueue out_;
    // Control-record protection, installed by the key schedule. Baseline
    // TLS protects its application records with the same pair.
    std::unique_ptr<CbcHmacProtector> send_protector_;
    std::unique_ptr<CbcHmacProtector> recv_protector_;
    bool ccs_received_ = false;

    uint64_t handshake_wire_bytes_ = 0;
    uint64_t app_overhead_bytes_ = 0;
};

template <class Protocol>
class Endpoint : public EndpointCore {
public:
    // Consume network bytes; may queue output and/or application data.
    Status feed(ConstBytes wire)
    {
        if (phase_ == Phase::failed) return err(error_);
        codec_.feed(wire);
        while (true) {
            auto next = codec_.next_view();
            if (!next) return fail(AlertDescription::decode_error, next.error().message);
            if (!next.value().has_value()) return {};
            if (auto s = dispatch(*next.value()); !s) return s;
        }
    }

protected:
    using EndpointCore::EndpointCore;

private:
    Status dispatch(const RecordView& view)
    {
        Protocol& self = static_cast<Protocol&>(*this);
        // Established application data is the hot path: opened straight
        // from the codec buffer, no owning Record in between.
        if (view.type == ContentType::application_data && phase_ == Phase::established)
            return self.open_app_record(view, out_.pop_rx());
        if (view.type == ContentType::alert) return receive_alert(view.payload);
        if (phase_ == Phase::closed)
            return fail(AlertDescription::unexpected_message,
                        prefixed("record after close_notify"));
        switch (view.type) {
        case ContentType::change_cipher_spec:
            return receive_ccs(view);
        case ContentType::handshake:
            if (auto s = receive_handshake(view); !s) return s;
            while (true) {
                auto msg = handshake_reader_.next();
                if (!msg) return fail(AlertDescription::decode_error, msg.error().message);
                if (!msg.value().has_value()) return {};
                if (auto s = self.handle_handshake(*msg.value()); !s) return s;
            }
        case ContentType::rekey:
            return self.handle_rekey(view);
        case ContentType::application_data:
            out_.pop_rx();  // consumed even on failure: keeps the FIFO aligned
            return fail(AlertDescription::unexpected_message, prefixed("early application data"));
        case ContentType::alert:
            break;  // handled above
        }
        return fail(AlertDescription::decode_error, prefixed("unknown record type"));
    }
};

}  // namespace mct::tls
