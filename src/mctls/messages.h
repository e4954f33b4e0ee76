// mcTLS-specific handshake messages (Figure 1).
//
// MiddleboxHello / MiddleboxKeyExchange form the "bundle" a middlebox
// injects toward both endpoints while forwarding the server's first flight;
// MiddleboxKeyMaterial carries AuthEnc-protected (partial) context keys.
#pragma once

#include <cstdint>
#include <vector>

#include "mctls/key_schedule.h"
#include "mctls/types.h"
#include "pki/certificate.h"
#include "tls/messages.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mct::mctls {

constexpr uint8_t kEntityServer = 0xff;
constexpr uint8_t kEntityClient = 0xfe;

// randM + certificate chain, tagged with the middlebox's index in the
// session's middlebox list.
struct MiddleboxHello {
    uint8_t entity = 0;
    Bytes random;  // 32 bytes
    std::vector<pki::Certificate> chain;

    tls::HandshakeMessage to_message() const;
    static Result<MiddleboxHello> parse(ConstBytes body);
};

// Signed ephemeral X25519 key; a middlebox emits two (one per endpoint,
// §3.5 step 3 — distinct key pairs prevent small-subgroup issues).
struct MiddleboxKeyExchange {
    uint8_t entity = 0;
    uint8_t recipient = kEntityClient;  // kEntityClient or kEntityServer
    Bytes public_key;
    Bytes signature;

    Bytes signed_payload() const;
    tls::HandshakeMessage to_message() const;
    static Result<MiddleboxKeyExchange> parse(ConstBytes body);
};

// AuthEnc-protected key material from one endpoint to one entity.
struct MiddleboxKeyMaterial {
    uint8_t sender = kEntityClient;  // kEntityClient or kEntityServer
    uint8_t entity = 0;              // destination: middlebox index or endpoint tag
    Bytes sealed;

    tls::HandshakeMessage to_message() const;
    static Result<MiddleboxKeyMaterial> parse(ConstBytes body);
};

// Associated data binding a sealed MiddleboxKeyMaterial to its sender and
// recipient, so material cannot be redirected to another entity.
Bytes key_material_ad(uint8_t sender, uint8_t entity);

// --- Key-material payloads (the plaintext inside `sealed`) ---

// To a middlebox, default mode: this endpoint's halves for each context the
// middlebox may access. CKD mode: complete keys instead of halves.
struct MiddleboxMaterialEntry {
    uint8_t context_id = 0;
    Permission permission = Permission::none;
    Bytes reader_half;    // default mode (32B); empty in CKD mode
    Bytes writer_half;    // default mode, writers only
    Bytes complete_keys;  // CKD mode: ContextKeys::serialize()
};

Bytes serialize_middlebox_material(const std::vector<MiddleboxMaterialEntry>& entries);
Result<std::vector<MiddleboxMaterialEntry>> parse_middlebox_material(ConstBytes wire);

// Between endpoints, default mode: the sender's halves for every context.
struct EndpointMaterialEntry {
    uint8_t context_id = 0;
    PartialContextKeys partial;
};

Bytes serialize_endpoint_material(const std::vector<EndpointMaterialEntry>& entries);
Result<std::vector<EndpointMaterialEntry>> parse_endpoint_material(ConstBytes wire);

}  // namespace mct::mctls
