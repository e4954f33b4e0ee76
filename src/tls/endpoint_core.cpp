#include "tls/endpoint_core.h"

#include <algorithm>

namespace mct::tls {

bool AlertLedger::admit(const Alert& alert, obs::SessionProbe& probe)
{
    if (sent_ && sent_->is_fatal()) return false;  // at most one fatal
    if (alert.is_close_notify()) {
        // Idempotent shutdown: close() racing an incoming close_notify (or
        // repeated close() calls) must not put a second close_notify on the
        // wire. Deduped here at the emission layer so every caller is safe.
        if (close_notify_sent_) return false;
        close_notify_sent_ = true;
    }
    sent_ = alert;
    probe.alert_sent(static_cast<uint8_t>(alert.description), to_string(alert.description));
    return true;
}

void AlertLedger::received(const Alert& alert, obs::SessionProbe& probe)
{
    peer_ = alert;
    probe.alert_received(static_cast<uint8_t>(alert.description), to_string(alert.description));
}

std::string EndpointCore::prefixed(std::string_view message) const
{
    std::string out = name_;
    out += ": ";
    out += message;
    return out;
}

Status EndpointCore::fail(std::string message)
{
    return fail(AlertDescription::handshake_failure, std::move(message));
}

Status EndpointCore::fail(AlertDescription description, std::string message)
{
    return fail_with(SessionError::Origin::local, description, std::move(message),
                     /*emit_alert=*/true);
}

Status EndpointCore::fail_with(SessionError::Origin origin, AlertDescription description,
                               std::string message, bool emit_alert)
{
    bool in_handshake = phase_ != Phase::established && phase_ != Phase::closed;
    phase_ = Phase::failed;
    error_ = std::move(message);
    if (!failure_.failed()) failure_ = {origin, description, error_};
    if (in_handshake)
        probe_.emit(obs::EventType::hs_failed, 0, static_cast<uint64_t>(description));
    // Fatal alert to the peer, best effort (never in response to the peer's
    // own fatal alert, which would just echo noise at a dead session).
    if (emit_alert) send_alert(fatal_alert(description));
    return err(error_);
}

void EndpointCore::send_alert(const Alert& alert)
{
    if (!alerts_.admit(alert, probe_)) return;
    out_.push(codec_.encode({ContentType::alert, 0, alert.serialize()}));
}

Status EndpointCore::receive_alert(ConstBytes payload)
{
    auto parsed = Alert::parse(payload);
    if (!parsed) return fail(AlertDescription::decode_error, prefixed("malformed alert"));
    const Alert& alert = parsed.value();
    alerts_.received(alert, probe_);
    if (alert.is_close_notify()) {
        peer_close_received_ = true;
        if (phase_ == Phase::closed) return {};
        if (phase_ != Phase::established)
            return fail_with(SessionError::Origin::peer, AlertDescription::close_notify,
                             prefixed("close_notify during handshake"), /*emit_alert=*/false);
        if (!close_sent_) {
            close_sent_ = true;
            send_alert(close_notify_alert());
        }
        phase_ = Phase::closed;
        return {};
    }
    if (!alert.is_fatal()) return {};  // unknown warnings are ignorable
    return fail_with(SessionError::Origin::peer, alert.description,
                     prefixed("peer alert: ") + to_string(alert.description),
                     /*emit_alert=*/false);
}

Status EndpointCore::tick(uint64_t now)
{
    if (phase_ == Phase::failed) return err(error_);
    if (phase_ != Phase::handshaking || handshake_timeout_ == 0) return {};
    if (handshake_deadline_ == 0) {
        handshake_deadline_ = now + handshake_timeout_;
        return {};
    }
    if (now < handshake_deadline_) return {};
    return fail_with(SessionError::Origin::timeout, AlertDescription::handshake_timeout,
                     prefixed("handshake deadline exceeded"), /*emit_alert=*/true);
}

void EndpointCore::close()
{
    if (phase_ == Phase::failed || close_sent_) return;
    close_sent_ = true;
    probe_.emit(obs::EventType::session_close);
    send_alert(close_notify_alert());
    // Mid-handshake close abandons the session; an established session keeps
    // receiving until the peer's close_notify arrives.
    if (phase_ != Phase::established || peer_close_received_) phase_ = Phase::closed;
}

void EndpointCore::transport_closed()
{
    if (phase_ == Phase::failed || phase_ == Phase::closed) return;
    truncated_ = true;
    (void)fail_with(SessionError::Origin::truncated, AlertDescription::close_notify,
                    prefixed("transport closed without close_notify (truncated)"),
                    /*emit_alert=*/false);
}

void EndpointCore::encode_flight(ConstBytes flight, Bytes& unit)
{
    // A flight may exceed the maximum record size; fragment as TLS does.
    size_t before = unit.size();
    for (size_t off = 0; off < flight.size();) {
        size_t take = std::min(kMaxFragment, flight.size() - off);
        codec_.encode_into({ContentType::handshake, 0, to_bytes(flight.subspan(off, take))},
                           unit);
        off += take;
    }
    handshake_wire_bytes_ += unit.size() - before;
}

void EndpointCore::encode_ccs_finished(ConstBytes finished, Bytes& unit)
{
    size_t before = unit.size();
    codec_.encode_into({ContentType::change_cipher_spec, 0, Bytes{1}}, unit);
    Bytes sealed = send_protector_->protect(ContentType::handshake, 0, finished, *rng_);
    crypto::count_enc(ops_);
    codec_.encode_into({ContentType::handshake, 0, std::move(sealed)}, unit);
    handshake_wire_bytes_ += unit.size() - before;
}

Status EndpointCore::receive_ccs(const RecordView& view)
{
    handshake_wire_bytes_ += view.payload.size() + codec_.header_size();
    if (ccs_received_)
        return fail(AlertDescription::unexpected_message, prefixed("duplicate CCS"));
    ccs_received_ = true;
    return {};
}

Status EndpointCore::receive_handshake(const RecordView& view)
{
    handshake_wire_bytes_ += view.payload.size() + codec_.header_size();
    if (!ccs_received_ || !recv_protector_) {
        handshake_reader_.feed(view.payload);
        return {};
    }
    auto plain = recv_protector_->unprotect(view.type, view.context_id, view.payload);
    if (!plain) return fail(AlertDescription::bad_record_mac, prefixed(plain.error().message));
    crypto::count_dec(ops_);
    handshake_reader_.feed(plain.value());
    return {};
}

obs::SessionStats EndpointCore::core_stats() const
{
    obs::SessionStats s = probe_.stats();
    s.established = phase_ == Phase::established || phase_ == Phase::closed;
    if (failure_.failed()) s.failure = failure_.message;
    s.handshake_wire_bytes = handshake_wire_bytes_;
    s.app_overhead_bytes = app_overhead_bytes_;
    return s;
}

}  // namespace mct::tls
