#include "tls/session.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "crypto/ct.h"
#include "crypto/ed25519.h"
#include "crypto/prf.h"
#include "crypto/sha2.h"
#include "crypto/x25519.h"
#include "tls/keylog.h"

namespace mct::tls {

namespace {

constexpr size_t kKeySize = crypto::Aes128::kKeySize;
constexpr size_t kMacKeySize = 32;

}  // namespace

Session::Session(SessionConfig cfg)
    : Endpoint("tls", /*with_context_id=*/false, cfg,
               cfg.role == Role::client ? "tls-client" : "tls-server"),
      cfg_(std::move(cfg))
{
    if (!cfg_.rng) throw std::invalid_argument("tls::Session: rng is required");
    step_ = cfg_.role == Role::client ? Step::idle : Step::wait_client_hello;
}

void Session::queue_handshake(const HandshakeMessage& msg, Bytes* flight)
{
    Bytes wire = msg.serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);
    append(*flight, wire);
}

void Session::flush_flight(const Bytes& flight)
{
    Bytes unit;
    encode_flight(flight, unit);
    if (!unit.empty()) out_.push(std::move(unit));
}

void Session::start()
{
    if (cfg_.role != Role::client || step_ != Step::idle || phase_ != Phase::handshaking)
        throw std::logic_error("tls::Session: start() is for idle clients");

    client_random_ = cfg_.rng->bytes(kRandomSize);
    auto kp = crypto::x25519_keypair(*cfg_.rng);
    our_dh_private_ = kp.private_key;
    our_dh_public_ = kp.public_key;

    ClientHello hello;
    hello.random = client_random_;
    hello.cipher_suites = {kCipherSuiteX25519Ed25519Aes128Sha256};
    if (cfg_.ticket && cfg_.ticket->valid()) {
        hello.session_id = cfg_.ticket->session_id;
        probe_.emit(obs::EventType::hs_resume_offer, 0, hello.session_id.size());
    }

    Bytes flight;
    queue_handshake(hello.to_message(), &flight);
    flush_flight(flight);
    step_ = Step::wait_server_hello;
    probe_.emit(obs::EventType::hs_start, 0, handshake_wire_bytes_);
}

Status Session::open_app_record(const RecordView& view, obs::SpanContext in)
{
    // Decrypt straight from the codec buffer into the receive scratch.
    bool traced = probe_.spans_on() && in.valid();
    std::chrono::steady_clock::time_point t0;
    if (traced) t0 = std::chrono::steady_clock::now();
    recv_scratch_.clear();
    auto plain = recv_protector_->unprotect_into(view.type, 0, view.payload, recv_scratch_);
    if (!plain) {
        probe_.mac_failure(0, view.payload.size());
        return fail(AlertDescription::bad_record_mac, "tls: " + plain.error().message);
    }
    // Baseline TLS verifies its single record MAC inside the fused open.
    if (traced) probe_.deliver_spans(in, 0, obs::SessionProbe::cpu_since(t0), 1, plain.value());
    app_bytes_received_ += plain.value();
    probe_.opened(obs::EventType::record_open, 0, plain.value(), 1, in.trace_id);
    append(app_data_, ConstBytes{recv_scratch_.data(), plain.value()});
    return {};
}

Status Session::handle_rekey(const RecordView&)
{
    // In-band rekeying is an mcTLS extension; baseline TLS rejects it.
    return fail(AlertDescription::unexpected_message, "tls: unexpected rekey record");
}

Status Session::handle_handshake(const HandshakeMessage& msg)
{
    switch (step_) {
    case Step::wait_server_hello:
        return client_handle_server_flight(msg);
    case Step::wait_client_hello:
        return server_handle_client_hello(msg);
    case Step::wait_client_finish:
        return server_handle_second_flight(msg);
    case Step::wait_server_finish:
        return handle_finished(msg);
    default:
        return fail(AlertDescription::unexpected_message, "tls: unexpected handshake message");
    }
}

Status Session::client_handle_server_flight(const HandshakeMessage& msg)
{
    Bytes wire = msg.serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);

    switch (msg.type) {
    case HandshakeType::server_hello: {
        auto hello = ServerHello::parse(msg.body);
        if (!hello) return fail(AlertDescription::decode_error, hello.error().message);
        if (hello.value().cipher_suite != kCipherSuiteX25519Ed25519Aes128Sha256)
            return fail(AlertDescription::handshake_failure, "tls: unsupported cipher suite");
        server_random_ = hello.value().random;
        session_id_ = hello.value().session_id;
        if (cfg_.ticket && cfg_.ticket->valid() &&
            session_id_ == cfg_.ticket->session_id) {
            // Server echoed our offer: abbreviated handshake. Re-expand a
            // fresh key block from the cached master secret; the server's
            // CCS + Finished come next, no certificate or key exchange.
            resumed_ = true;
            master_secret_ = cfg_.ticket->master_secret;
            derive_key_block();
            step_ = Step::wait_server_finish;
            probe_.emit(obs::EventType::hs_resume_accept);
        }
        return {};
    }
    case HandshakeType::certificate: {
        auto certs = CertificateMsg::parse(msg.body);
        if (!certs) return fail(AlertDescription::decode_error, certs.error().message);
        peer_chain_ = certs.take().chain;
        if (cfg_.trust) {
            auto status = cfg_.trust->verify_chain(peer_chain_, cfg_.server_name, cfg_.now);
            if (!status) return fail(AlertDescription::bad_certificate, status.error().message);
        }
        return {};
    }
    case HandshakeType::server_key_exchange: {
        auto kx = KeyExchange::parse(msg.type, msg.body);
        if (!kx) return fail(AlertDescription::decode_error, kx.error().message);
        if (peer_chain_.empty())
            return fail(AlertDescription::unexpected_message, "tls: SKE before certificate");
        if (!crypto::ed25519_verify(peer_chain_.front().public_key,
                                    kx.value().signed_payload(), kx.value().signature))
            return fail(AlertDescription::decrypt_error, "tls: bad SKE signature");
        crypto::count_verify(cfg_.ops);  // entity authenticated (cert + key sig)
        peer_dh_public_ = kx.value().public_key;
        return {};
    }
    case HandshakeType::server_hello_done: {
        if (peer_dh_public_.empty())
            return fail(AlertDescription::unexpected_message, "tls: hello done before SKE");
        probe_.emit(obs::EventType::hs_server_flight, 0, handshake_wire_bytes_);
        derive_keys();

        Bytes flight;
        ClientKeyExchange cke{our_dh_public_};
        queue_handshake(cke.to_message(), &flight);
        flush_flight(flight);
        send_ccs_and_finished();
        step_ = Step::wait_server_finish;
        return {};
    }
    default:
        return fail(AlertDescription::unexpected_message, "tls: unexpected message in server flight");
    }
}

Status Session::server_handle_client_hello(const HandshakeMessage& msg)
{
    if (msg.type != HandshakeType::client_hello)
        return fail(AlertDescription::unexpected_message, "tls: expected ClientHello");
    probe_.emit(obs::EventType::hs_client_hello, 0, msg.body.size());
    Bytes wire = msg.serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);

    auto hello = ClientHello::parse(msg.body);
    if (!hello) return fail(AlertDescription::decode_error, hello.error().message);
    bool suite_ok = false;
    for (uint16_t s : hello.value().cipher_suites)
        suite_ok |= s == kCipherSuiteX25519Ed25519Aes128Sha256;
    if (!suite_ok) return fail(AlertDescription::handshake_failure, "tls: no common cipher suite");
    client_random_ = hello.value().random;

    server_random_ = cfg_.rng->bytes(kRandomSize);

    // Resumption offer: on a cache hit run the abbreviated flow — echo the
    // id, re-expand keys from the cached master secret, and answer with
    // CCS + Finished directly (1 RTT, no certificate / key exchange).
    const Bytes& offered = hello.value().session_id;
    if (!offered.empty() && cfg_.session_cache) {
        if (const TlsTicket* cached = cfg_.session_cache->find(offered)) {
            resumed_ = true;
            session_id_ = offered;
            master_secret_ = cached->master_secret;
            probe_.emit(obs::EventType::hs_resume_accept);

            Bytes flight;
            ServerHello sh;
            sh.random = server_random_;
            sh.session_id = session_id_;
            queue_handshake(sh.to_message(), &flight);
            flush_flight(flight);
            derive_key_block();
            send_ccs_and_finished();
            step_ = Step::wait_client_finish;
            return {};
        }
        probe_.emit(obs::EventType::hs_resume_reject);
    }

    auto kp = crypto::x25519_keypair(*cfg_.rng);
    our_dh_private_ = kp.private_key;
    our_dh_public_ = kp.public_key;

    Bytes flight;
    ServerHello sh;
    sh.random = server_random_;
    // Fresh id the completed session will be cached under (resumption miss
    // or first contact); clients treat a non-echoed id as "full handshake".
    if (cfg_.session_cache) {
        session_id_ = cfg_.rng->bytes(kSessionIdSize);
        sh.session_id = session_id_;
    }
    queue_handshake(sh.to_message(), &flight);

    CertificateMsg certs{cfg_.chain};
    queue_handshake(certs.to_message(), &flight);

    KeyExchange ske;
    ske.msg_type = HandshakeType::server_key_exchange;
    ske.entity = 0xff;
    ske.public_key = our_dh_public_;
    ske.signature = crypto::ed25519_sign(cfg_.private_key, ske.signed_payload());
    crypto::count_sign(cfg_.ops);
    queue_handshake(ske.to_message(), &flight);

    queue_handshake({HandshakeType::server_hello_done, {}}, &flight);
    flush_flight(flight);
    step_ = Step::wait_client_finish;
    return {};
}

Status Session::server_handle_second_flight(const HandshakeMessage& msg)
{
    if (msg.type == HandshakeType::client_key_exchange) {
        if (resumed_)
            return fail(AlertDescription::unexpected_message,
                        "tls: key exchange in abbreviated handshake");
        Bytes wire = msg.serialize();
        append(transcript_, wire);
        crypto::count_hash(cfg_.ops);
        auto kx = ClientKeyExchange::parse(msg.body);
        if (!kx) return fail(AlertDescription::decode_error, kx.error().message);
        peer_dh_public_ = kx.value().public_key;
        derive_keys();
        return {};
    }
    if (msg.type == HandshakeType::finished) return handle_finished(msg);
    return fail(AlertDescription::unexpected_message, "tls: unexpected message in client flight");
}

void Session::derive_keys()
{
    auto pre = crypto::x25519_shared(our_dh_private_, peer_dh_public_);
    if (!pre) throw std::runtime_error("tls: degenerate DH share");
    crypto::count_secret(cfg_.ops);

    Bytes randoms = concat(client_random_, server_random_);
    master_secret_ = crypto::prf(pre.value(), "master secret", randoms, 48);
    derive_key_block();
}

// Key-block expansion from an existing master secret — the part of the key
// schedule the abbreviated handshake re-runs with fresh randoms (no DH).
void Session::derive_key_block()
{
    // Covers the full handshake and both resumed paths (all of them come
    // through here), for either role.
    keylog_tls_master_secret(cfg_.keylog, client_random_, master_secret_);

    Bytes seed = concat(server_random_, client_random_);
    Bytes block =
        crypto::prf(master_secret_, "key expansion", seed, 2 * kMacKeySize + 2 * kKeySize);
    crypto::count_keygen(cfg_.ops);  // session key block, one logical key gen

    ConstBytes view{block};
    Bytes client_mac = to_bytes(view.subspan(0, kMacKeySize));
    Bytes server_mac = to_bytes(view.subspan(kMacKeySize, kMacKeySize));
    Bytes client_key = to_bytes(view.subspan(2 * kMacKeySize, kKeySize));
    Bytes server_key = to_bytes(view.subspan(2 * kMacKeySize + kKeySize, kKeySize));

    if (cfg_.role == Role::client) {
        send_protector_ = std::make_unique<CbcHmacProtector>(client_key, client_mac);
        recv_protector_ = std::make_unique<CbcHmacProtector>(server_key, server_mac);
    } else {
        send_protector_ = std::make_unique<CbcHmacProtector>(server_key, server_mac);
        recv_protector_ = std::make_unique<CbcHmacProtector>(client_key, client_mac);
    }
    probe_.emit(obs::EventType::hs_key_distribution, 0, 1);
}

Bytes Session::finished_verify_data(const char* label) const
{
    Bytes digest = crypto::Sha256::digest(transcript_);
    crypto::count_hash(cfg_.ops);
    return crypto::prf(master_secret_, label, digest, kVerifyDataSize);
}

void Session::send_ccs_and_finished()
{
    const char* label = cfg_.role == Role::client ? "client finished" : "server finished";
    Finished fin{finished_verify_data(label)};
    Bytes wire = fin.to_message().serialize();
    append(transcript_, wire);
    crypto::count_hash(cfg_.ops);
    // Coalesces into the pending flight, as OpenSSL's buffered BIO does.
    encode_ccs_finished(wire, out_.tail());
    probe_.emit(obs::EventType::hs_finished_sent);
}

Status Session::handle_finished(const HandshakeMessage& msg)
{
    if (msg.type != HandshakeType::finished)
        return fail(AlertDescription::unexpected_message, "tls: expected Finished");
    if (!ccs_received_) return fail(AlertDescription::unexpected_message, "tls: Finished before CCS");
    auto fin = Finished::parse(msg.body);
    if (!fin) return fail(AlertDescription::decode_error, fin.error().message);

    const char* label = cfg_.role == Role::client ? "server finished" : "client finished";
    Bytes expected = finished_verify_data(label);
    if (!crypto::ct_equal(expected, fin.value().verify_data))
        return fail(AlertDescription::decrypt_error, "tls: Finished verification failed");

    append(transcript_, msg.serialize());
    crypto::count_hash(cfg_.ops);
    probe_.emit(obs::EventType::hs_finished_verified);

    // Full handshake: the server answers the client's Finished. Abbreviated:
    // the order flips — the server spoke first, the client answers here.
    bool respond = resumed_ ? cfg_.role == Role::client : cfg_.role == Role::server;
    if (respond) send_ccs_and_finished();
    step_ = Step::done;
    phase_ = Phase::established;
    if (cfg_.role == Role::server && cfg_.session_cache && !session_id_.empty())
        cfg_.session_cache->put({session_id_, master_secret_});
    probe_.emit(obs::EventType::hs_complete, 0, handshake_wire_bytes_);
    return {};
}

Status Session::send_app_data(ConstBytes data)
{
    if (phase_ != Phase::established) return err("tls: not established");
    if (close_sent_) return err("tls: send after close");
    size_t off = 0;
    do {
        size_t take = std::min(kMaxFragment - 512, data.size() - off);
        ConstBytes chunk = data.subspan(off, take);
        // Build the wire unit in place: header, then seal straight into the
        // same buffer (one allocation, no intermediate fragment copy).
        size_t body = CbcHmacProtector::protected_size(chunk.size());
        Bytes wire;
        wire.reserve(codec_.header_size() + body);
        codec_.encode_header_into(ContentType::application_data, 0, body, wire);
        bool traced = probe_.spans_on();
        std::chrono::steady_clock::time_point t0;
        if (traced) t0 = std::chrono::steady_clock::now();
        send_protector_->protect_into(ContentType::application_data, 0, chunk, *cfg_.rng, wire);
        obs::SpanContext rec;
        if (traced) {
            // Baseline TLS gets a coarser breakdown than mcTLS: one root
            // plus a single encrypt child covering MAC+CBC (its protector
            // is one fused operation).
            uint64_t cpu = obs::SessionProbe::cpu_since(t0);
            uint64_t now = probe_.span_now();
            rec = probe_.record_root(now, 0, chunk.size());
            probe_.span(now, rec, obs::Stage::encrypt, 0, cpu, chunk.size());
        }
        app_overhead_bytes_ += wire.size() - chunk.size();
        app_bytes_sent_ += chunk.size();
        probe_.sealed(0, chunk.size(), 1, rec.trace_id);
        out_.push(std::move(wire), rec);
        off += take;
    } while (off < data.size());
    return {};
}

obs::SessionStats Session::session_stats() const
{
    obs::SessionStats s = core_stats();
    s.resumed = resumed_;
    obs::ContextStats app;
    app.name = "app";
    app.id = 0;
    app.bytes_out = app_bytes_sent_;
    app.bytes_in = app_bytes_received_;
    app.records_out = s.app_records_sent;
    app.records_in = s.app_records_received;
    s.contexts.push_back(std::move(app));
    return s;
}

Bytes Session::take_app_data()
{
    return std::exchange(app_data_, {});
}

}  // namespace mct::tls
