// SecureChannel: one interface over the four transport-security modes the
// paper evaluates (§5, "four modes of operation"):
//
//   mcTLS     - mctls::Session (contexts, three MACs, middlebox key material)
//   SplitTLS  - tls::Session per hop, terminated at middleboxes
//   E2E-TLS   - tls::Session end-to-end, middleboxes forward blindly
//   NoEncrypt - plaintext byte stream
//
// HTTP apps talk to this interface only, so the same client/server code runs
// over every mode. send_part's context id is meaningful only for mcTLS.
#pragma once

#include <memory>
#include <type_traits>

#include "mctls/session.h"
#include "tls/session.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mct::http {

class SecureChannel {
public:
    virtual ~SecureChannel() = default;

    // Client side: begin the handshake (may queue outgoing bytes).
    virtual void start() {}
    virtual Status on_bytes(ConstBytes wire) = 0;
    // Write units: send each element with exactly one transport send().
    virtual std::vector<Bytes> take_outgoing() = 0;
    virtual bool ready() const = 0;
    virtual bool failed() const = 0;
    virtual std::string error() const { return {}; }

    virtual Status send_part(uint8_t context_id, ConstBytes data) = 0;
    // Ordered application byte stream received so far.
    virtual Bytes take_received() = 0;

    // --- Failure semantics (no-ops for modes without a session) ---

    // Drive the session's handshake deadline (see Session::tick).
    virtual Status tick(uint64_t) { return {}; }
    // Graceful shutdown / transport EOF, forwarded to the session.
    virtual void close() {}
    virtual void transport_closed() {}
    virtual bool closed() const { return false; }

    virtual uint64_t handshake_wire_bytes() const { return 0; }
    virtual uint64_t app_overhead_bytes() const { return 0; }
    virtual uint64_t app_records_sent() const { return 0; }

    // Telemetry snapshot of the underlying session (empty default for modes
    // without one, e.g. NoEncrypt).
    virtual obs::SessionStats session_stats() const { return {}; }

    // Session continuity: did the handshake complete via resumption?
    virtual bool resumed() const { return false; }

    // --- Latency attribution (no-ops for modes without spans) ---

    // Span contexts aligned with the units returned by the most recent
    // take_outgoing(); the driver pairs each valid context with its unit's
    // Connection::send_traced call.
    virtual std::vector<obs::SpanContext> take_outgoing_spans() { return {}; }
    // Incoming transport contexts (Connection::take_rx_spans), pushed in
    // order BEFORE the bytes they annotate are fed to on_bytes.
    virtual void queue_rx_span(obs::SpanContext) {}
};

class PlainChannel final : public SecureChannel {
public:
    Status on_bytes(ConstBytes wire) override
    {
        append(received_, wire);
        return {};
    }
    std::vector<Bytes> take_outgoing() override { return std::exchange(out_, {}); }
    bool ready() const override { return true; }
    bool failed() const override { return false; }
    Status send_part(uint8_t, ConstBytes data) override
    {
        out_.push_back(to_bytes(data));
        return {};
    }
    Bytes take_received() override { return std::exchange(received_, {}); }

private:
    std::vector<Bytes> out_;
    Bytes received_;
};

// A channel over one protocol session. tls::Session and mctls::Session
// share the tls::Endpoint API, so only sending (mcTLS picks a context) and
// receiving (mcTLS delivers per-context chunks) differ by protocol.
template <class S>
class SessionChannel final : public SecureChannel {
public:
    static constexpr bool kMcTls = std::is_same_v<S, mctls::Session>;
    using Config = std::conditional_t<kMcTls, mctls::SessionConfig, tls::SessionConfig>;

    explicit SessionChannel(Config cfg) : session_(std::move(cfg)) {}

    void start() override { session_.start(); }
    Status on_bytes(ConstBytes wire) override { return session_.feed(wire); }
    std::vector<Bytes> take_outgoing() override { return session_.take_write_units(); }
    bool ready() const override { return session_.handshake_complete(); }
    bool failed() const override { return session_.failed(); }
    std::string error() const override { return session_.error(); }
    Status send_part(uint8_t context_id, ConstBytes data) override
    {
        if constexpr (kMcTls)
            return session_.send_app_data(context_id, data);
        else
            return session_.send_app_data(data);
    }
    Bytes take_received() override
    {
        if constexpr (kMcTls) {
            Bytes out;
            for (auto& chunk : session_.take_app_data()) append(out, chunk.data);
            return out;
        } else {
            return session_.take_app_data();
        }
    }
    Status tick(uint64_t now) override { return session_.tick(now); }
    void close() override { session_.close(); }
    void transport_closed() override { session_.transport_closed(); }
    bool closed() const override { return session_.closed(); }
    uint64_t handshake_wire_bytes() const override { return session_.handshake_wire_bytes(); }
    uint64_t app_overhead_bytes() const override { return session_.app_overhead_bytes(); }
    uint64_t app_records_sent() const override { return session_.app_records_sent(); }
    obs::SessionStats session_stats() const override { return session_.session_stats(); }
    bool resumed() const override { return session_.resumed(); }
    std::vector<obs::SpanContext> take_outgoing_spans() override
    {
        return session_.take_unit_spans();
    }
    void queue_rx_span(obs::SpanContext ctx) override { session_.queue_rx_span(ctx); }

    S& session() { return session_; }

private:
    S session_;
};

using TlsChannel = SessionChannel<tls::Session>;
using McTlsChannel = SessionChannel<mctls::Session>;

}  // namespace mct::http
